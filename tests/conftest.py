import math

import numpy as np
import pytest
from hypothesis import settings

from viewplan.bvh import _edges, _hits
from viewplan.mesh import TriangleMesh
from viewplan.quality import HALF_FOV, QualityParams, unit_directions
from viewplan.rectangles import ViewingRectangle
from viewplan.tours import Trajectory

# every property test runs the same examples on every run, with no time limit
# per example and no example database; each test sets its own max_examples
settings.register_profile("viewplan", derandomize=True, deadline=None, database=None)
settings.load_profile("viewplan")


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


def renumbered(vertices, faces, rng):
    """The same faces with the vertices permuted, the faces shuffled and
    each face's corners turned by a random cyclic shift, as
    ``(vertices, faces)``."""
    perm = rng.permutation(len(vertices))
    new_id = np.empty_like(perm)
    new_id[perm] = np.arange(len(perm))
    faces = new_id[np.asarray(faces)][rng.permutation(len(faces))]
    turn = (rng.integers(0, 3, size=(len(faces), 1)) + np.arange(3)) % 3
    return np.asarray(vertices)[perm], np.take_along_axis(faces, turn, axis=1)


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


def poses(positions, directions) -> Trajectory:
    """The open trajectory through ``positions``, in order, each pose looking
    along its row of ``directions`` (one row serves every pose), normalised
    by ``unit_directions`` as the planners normalise theirs."""
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    return Trajectory(positions, unit_directions(np.broadcast_to(directions, positions.shape)))


def grid_views(extent: float, z: float, spacing: float = 1.0) -> Trajectory:
    """Nadir lattice over [0, extent]^2 at height z."""
    xs = np.arange(0.0, extent + 1e-9, spacing)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    return poses(np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, z)], axis=1), [0.0, 0.0, -1.0])


def pair_quality_reference(centroid, positions, params):
    """The per-face widest-pair body, every pair scored from scratch, kept as
    the bit-equality reference of every scorer test: ``(theta, q, (a, b))``
    for one centroid and its (m, 3) views, ``(0.0, 0.0, None)`` without a
    pair. Each cosine is ``(x0*y0 + x1*y1) + x2*y2`` of its two unit vectors."""
    m = len(positions)
    if m < 2:
        return 0.0, 0.0, None
    offs = positions - centroid
    dist = np.linalg.norm(offs, axis=1)
    unit = offs / dist[:, None]
    x, y = unit[:, None, :], unit[None, :, :]
    cos_mat = np.clip((x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1]) + x[..., 2] * y[..., 2], -1.0, 1.0)
    iu, ju = np.triu_indices(m, k=1)
    ang = np.arccos(cos_mat[iu, ju])
    eligible = ~np.isnan(ang)  # a view at its point has no direction
    if params.min_pair_angle is not None:
        eligible &= ang >= params.min_pair_angle
    if params.max_pair_angle is not None:
        eligible &= ang <= params.max_pair_angle
    if not eligible.any():
        return 0.0, 0.0, None
    ang = np.where(eligible, ang, -1.0)
    best = int(np.argmax(ang))
    theta = float(ang[best])
    a, b = int(iu[best]), int(ju[best])
    q = math.sin(theta) / (float(dist[a]) * float(dist[b]))
    return theta, q, (a, b)


def visibility_matrix_reference(mesh, trajectory, params, *, faces=None):
    """The visibility body that the blocked cull replaced, kept as the
    reference of the cull tests: the band, front-facing and cone tests over
    whole (faces, views, 3) offsets, then one ``occluded_many`` call."""
    pos, dirs = trajectory.positions, trajectory.directions
    if faces is None:
        faces = np.arange(mesh.num_faces)
    faces = np.asarray(faces, dtype=np.int64)
    n_f, n_v = len(faces), len(pos)
    if n_f == 0 or n_v == 0:
        return np.zeros((n_f, n_v), dtype=bool)

    c = mesh.centroids[faces]
    nrm = mesh.normals[faces]
    offset = pos[None, :, :] - c[:, None, :]  # (F, V, 3), face -> view
    dist = np.linalg.norm(offset, axis=-1)
    lo, hi = params.band
    cand = (dist >= lo) & (dist <= hi)
    cand &= (nrm[:, None, :] * offset).sum(axis=-1) > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_view = (dirs[None, :, :] * (-offset)).sum(axis=-1) / np.where(dist > 0, dist, 1.0)
    cand &= cos_view >= math.cos(HALF_FOV)

    fi, vi = np.nonzero(cand)
    if len(fi):
        blocked = mesh.occluded_many(pos[vi], c[fi])
        cand[fi[blocked], vi[blocked]] = False
    return cand


def segments_hit_any(all_tris: np.ndarray, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Brute-force occlusion: every segment against every triangle with the
    BVH's own kernel. The oracle ``Bvh.occluded`` is tested against."""
    n = len(sources)
    out = np.zeros(n, dtype=bool)
    v0, e1, e2 = (x[:, None] for x in _edges(np.asarray(all_tris)))
    chunk = max(1, int(4_000_000 // max(1, v0.shape[-1])))
    for lo in range(0, n, chunk):
        src, dst = sources[lo : lo + chunk].T[..., None], targets[lo : lo + chunk].T[..., None]
        out[lo : lo + chunk] = _hits(v0, e1, e2, src, dst - src).any(axis=1)
    return out


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
