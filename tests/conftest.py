import numpy as np
import pytest

from viewplan.mesh import TriangleMesh
from viewplan.quality import QualityParams, View
from viewplan.rectangles import ViewingRectangle
from viewplan.tours import Trajectory


@pytest.fixture
def params():
    return QualityParams()


@pytest.fixture
def single_triangle():
    return TriangleMesh(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        [[0, 1, 2]],
    )


def flat_patch(extent: float = 10.0, cell: float = 1.0) -> TriangleMesh:
    from viewplan.mesh import _terrain

    return _terrain(extent, cell)


def wall_mesh(x0=0.0, x1=4.0, y=0.0, z0=0.0, z1=4.0, normal_sign=1.0) -> TriangleMesh:
    """Vertical wall in the y=const plane, normal +/-y."""
    v = np.array([[x0, y, z0], [x1, y, z0], [x1, y, z1], [x0, y, z1]])
    f = [[0, 1, 2], [0, 2, 3]] if normal_sign < 0 else [[0, 2, 1], [0, 3, 2]]
    return TriangleMesh(v, f)


def axis_rect(cx=0.0, cy=0.0, cz=5.0, hw=1.0, hh=1.0) -> ViewingRectangle:
    return ViewingRectangle(
        center=np.array([cx, cy, cz]),
        normal=np.array([0.0, 0.0, 1.0]),
        axis_u=np.array([1.0, 0.0, 0.0]),
        axis_v=np.array([0.0, 1.0, 0.0]),
        half_w=hw,
        half_h=hh,
    )


def poses(views: list[View]) -> Trajectory:
    """The open trajectory through the given views, in order."""
    return Trajectory([v.position for v in views], [v.direction for v in views])


def grid_views(extent: float, z: float, spacing: float = 1.0) -> Trajectory:
    """Nadir lattice over [0, extent]^2 at height z."""
    xs = np.arange(0.0, extent + 1e-9, spacing)
    down = np.array([0.0, 0.0, -1.0])
    return poses([View(np.array([x, y, z]), down) for x in xs for y in xs])


def tree_weight_from_pruefer(seq, k, dmat) -> float:
    """Weight of the labelled tree encoded by a Pruefer sequence."""
    import heapq

    degree = [1] * k
    for node in seq:
        degree[node] += 1
    total = 0.0
    leaves = [i for i in range(k) if degree[i] == 1]
    heapq.heapify(leaves)
    for node in seq:
        leaf = heapq.heappop(leaves)
        total += dmat[leaf, node]
        degree[node] -= 1
        if degree[node] == 1:
            heapq.heappush(leaves, node)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    return total + dmat[a, b]
