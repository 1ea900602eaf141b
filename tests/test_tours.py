import itertools
import json
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from viewplan.errors import (
    BudgetExhaustedError,
    DisconnectedTreeError,
)
from viewplan import tours
from viewplan.rectangles import ViewingRectangle
from viewplan.tours import (
    GridEdge,
    Trajectory,
    boustrophedon_tour,
    grid_mst,
    impose_grid,
    lower_bound,
    mst_weight,
    plan_rectangles,
    stitch_tour,
)

from conftest import axis_rect, plane_coords, poses, tree_weight_from_pruefer


class TestTrajectory:
    def test_empty_length_zero(self):
        assert Trajectory([], []).length == 0.0

    def test_length_recomputable(self):
        rng = np.random.default_rng(2)
        pts = rng.random((6, 3)) * 10
        t = poses(pts, [0, 0, -1])
        manual = sum(float(np.linalg.norm(pts[i + 1] - pts[i])) for i in range(5))
        assert t.length == pytest.approx(manual)
        closed = Trajectory(t.positions, t.directions, closed=True)
        assert closed.length == pytest.approx(manual + float(np.linalg.norm(pts[-1] - pts[0])))

    def test_json_schema(self, tmp_path):
        t = poses([1.0, 2.0, 3.0], [0, 0, -1])
        p = tmp_path / "t.json"
        t.save_json(p)
        data = json.loads(p.read_text())
        assert data["schema"] == 1
        assert data["views"][0] == {
            "x": 1.0, "y": 2.0, "z": 3.0, "dir_x": 0.0, "dir_y": 0.0, "dir_z": -1.0,
        }

    def test_row_count_mismatch_raises(self):
        pts = np.zeros((4, 3))
        with pytest.raises(ValueError, match="4 positions but 1 directions"):
            Trajectory(pts, [0.0, 0.0, -1.0])
        with pytest.raises(ValueError, match="4 positions but 3 directions"):
            Trajectory(pts, np.tile([0.0, 0.0, -1.0], (3, 1)))

    @pytest.mark.parametrize("bad", [[0.0, 0.0, -2.0], [0.0, 0.0, 0.0], [np.nan, 0.0, 1.0]])
    def test_non_unit_direction_raises(self, bad):
        dirs = np.tile([0.0, 0.0, -1.0], (3, 1))
        dirs[1] = bad
        with pytest.raises(ValueError, match="unit rows"):
            Trajectory(np.zeros((3, 3)), dirs)


class TestImposeGrid:
    def test_two_by_two_rect_nine_points(self):
        g = impose_grid(axis_rect(hw=1.0, hh=1.0), r=1.0)
        assert g.shape == (3, 3)
        assert g.num_points == 9

    def test_uncountable_resolution_names_r(self):
        # width / r overflows to inf: a ValueError, not an OverflowError
        with pytest.raises(ValueError, match="r=1e-320"):
            impose_grid(axis_rect(), r=1e-320)
        with pytest.raises(ValueError, match="r=1e-320"):
            plan_rectangles([axis_rect()], r=1e-320, d=5.0)

    def test_ten_by_ten_r5(self):
        g = impose_grid(axis_rect(hw=5.0, hh=5.0), r=5.0)
        assert g.shape == (3, 3)
        cells = (g.shape[0] - 1) * (g.shape[1] - 1)
        assert cells == pytest.approx(g.rectangle.area / 5.0**2)

    def test_axis_spacing_exact(self):
        g = impose_grid(axis_rect(hw=3.1, hh=2.3), r=1.0)
        nu, nv = g.shape
        pts = g.points.reshape(nu, nv, 3)
        du = np.linalg.norm(pts[1:, :, :] - pts[:-1, :, :], axis=-1)
        dv = np.linalg.norm(pts[:, 1:, :] - pts[:, :-1, :], axis=-1)
        assert np.allclose(du, 1.0)
        assert np.allclose(dv, 1.0)

    def test_symmetric_margins_and_count_bound(self):
        rect = axis_rect(hw=2.6, hh=1.7)
        g = impose_grid(rect, r=1.0)
        nu, nv = g.shape
        assert nu <= math.floor(rect.width / 1.0) + 1
        assert nv <= math.floor(rect.height / 1.0) + 1
        uv = plane_coords(rect, g.points)
        assert -uv[:, 0].min() == pytest.approx(uv[:, 0].max())
        assert -uv[:, 1].min() == pytest.approx(uv[:, 1].max())
        assert (np.abs(uv[:, 0]) <= rect.half_w + 1e-9).all()

    def test_orientation_toward_scene(self):
        g = impose_grid(axis_rect(), r=1.0)
        assert np.allclose(g.trajectory().directions, [0, 0, -1])


class TestBoustrophedon:
    def test_three_by_three_length(self):
        g = impose_grid(axis_rect(hw=1.0, hh=1.0), r=1.0)
        tour = boustrophedon_tour(g)
        assert len(tour) == 9
        assert tour.length == pytest.approx(8.0)

    def test_line_grid(self):
        g = impose_grid(axis_rect(hw=2.0, hh=0.0), r=1.0)
        assert g.shape == (5, 1)
        tour = boustrophedon_tour(g)
        assert tour.length == pytest.approx(4.0)

    def test_visits_every_point_once(self):
        g = impose_grid(axis_rect(hw=2.0, hh=3.0), r=1.0)
        tour = boustrophedon_tour(g)
        seen = {tuple(np.round(p, 9)) for p in tour.positions}
        assert len(seen) == g.num_points

    @pytest.mark.parametrize("hw,hh,r", [(1.0, 1.0, 1.0), (5.0, 3.5, 1.0), (4.0, 1.0, 0.8)])
    def test_per_rectangle_bound(self, hw, hh, r):
        rect = axis_rect(hw=hw, hh=hh)
        tour = boustrophedon_tour(impose_grid(rect, r))
        assert tour.length <= 3.0 * rect.area / r + 1e-9

    def test_lanes_along_longer_axis(self):
        g = impose_grid(axis_rect(hw=3.0, hh=1.0), r=1.0)  # wide in u
        tour = boustrophedon_tour(g)
        # first lane sweeps the u axis: x varies, y fixed
        xs = tour.positions[:7, 0]
        ys = tour.positions[:7, 1]
        assert len(set(np.round(ys, 9))) == 1
        assert len(set(np.round(xs, 9))) == 7


class TestGridMst:
    def test_single_grid_empty(self):
        g = impose_grid(axis_rect(), r=1.0)
        assert grid_mst([g]) == []

    def test_three_grid_triangle(self):
        # nearest-grid distances: A-B = 1, A-C = 2, B-C = sqrt(5); MST = 1 + 2
        ga = impose_grid(axis_rect(cx=0.0, cy=0.0), r=1.0)  # spans [-1,1]^2
        gb = impose_grid(axis_rect(cx=3.0, cy=0.0), r=1.0)
        gc = impose_grid(axis_rect(cx=0.0, cy=4.0), r=1.0)
        edges = grid_mst([ga, gb, gc])
        assert mst_weight(edges) == pytest.approx(3.0)
        assert {(e.i, e.j) for e in edges} == {(0, 1), (0, 2)}

    def test_edge_stores_realizing_points(self):
        ga = impose_grid(axis_rect(cx=0.0), r=1.0)
        gb = impose_grid(axis_rect(cx=5.0), r=1.0)
        (e,) = grid_mst([ga, gb])
        pa, pb = ga.points[e.point_i], gb.points[e.point_j]
        assert float(np.linalg.norm(pa - pb)) == pytest.approx(e.weight)

    def test_exhaustive_spanning_tree_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(6):
            k = int(rng.integers(2, 7))
            grids = [
                impose_grid(
                    axis_rect(
                        cx=float(rng.uniform(-20, 20)),
                        cy=float(rng.uniform(-20, 20)),
                        cz=float(rng.uniform(0, 10)),
                    ),
                    r=1.0,
                )
                for _ in range(k)
            ]
            edges = grid_mst(grids)
            # independent distance matrix
            dmat = np.zeros((k, k))
            for i in range(k):
                for j in range(i + 1, k):
                    d = np.linalg.norm(
                        grids[i].points[:, None, :] - grids[j].points[None, :, :], axis=-1
                    ).min()
                    dmat[i, j] = dmat[j, i] = d
            best = np.inf
            if k == 2:
                best = dmat[0, 1]
            else:
                for pruefer in itertools.product(range(k), repeat=k - 2):
                    w = tree_weight_from_pruefer(list(pruefer), k, dmat)
                    best = min(best, w)
            assert mst_weight(edges) == pytest.approx(best, abs=1e-9)

    def test_weight_invariant_under_order(self):
        rng = np.random.default_rng(8)
        grids = [
            impose_grid(axis_rect(cx=float(rng.uniform(-9, 9)), cy=float(rng.uniform(-9, 9))), 1.0)
            for _ in range(5)
        ]
        w1 = mst_weight(grid_mst(grids))
        w2 = mst_weight(grid_mst(grids[::-1]))
        assert w1 == pytest.approx(w2, abs=1e-9)

    def test_touching_grids_join_at_zero_cost(self):
        # two copies of one grid share every lattice point; a zero distance
        # must still be an edge
        g = impose_grid(axis_rect(), r=1.0)
        edges = grid_mst([g, g])
        assert [(e.i, e.j, e.weight) for e in edges] == [(0, 1, 0.0)]
        traj, cert = stitch_tour([g, g], edges, d=1.0)
        assert len(traj) == 2 * g.num_points


def _csgraph_mst(grids):
    """The construction grid_mst replaced: scipy's Kruskal on the weights
    shifted by 1.0, since csgraph reads a near-zero entry as no edge."""
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    k = len(grids)
    dmat = np.zeros((k, k))
    for i, j in itertools.combinations(range(k), 2):
        d = np.linalg.norm(grids[i].points[:, None, :] - grids[j].points[None, :, :], axis=-1)
        dmat[i, j] = dmat[j, i] = d.min()
    off = ~np.eye(k, dtype=bool)
    tree = csgraph.minimum_spanning_tree(np.where(off, dmat + 1.0, 0.0)).tocoo()
    return sorted((min(a, b), max(a, b), float(dmat[a, b])) for a, b in zip(tree.row, tree.col))


_lattice = st.integers(-2, 2).map(float)


@st.composite
def lattice_grids(draw):
    """Two to eight unit-spaced grids of 1 to 9 points centred on a small
    integer lattice, so coincident and equidistant grids are common."""
    half = st.sampled_from([0.0, 0.5, 1.0])
    grids = []
    for _ in range(draw(st.integers(2, 8))):
        rect = axis_rect(
            cx=draw(_lattice), cy=draw(_lattice), cz=draw(_lattice),
            hw=draw(half), hh=draw(half),
        )
        grids.append(impose_grid(rect, r=1.0))
    return grids


def _point_grids(*centres):
    return [impose_grid(axis_rect(cx=x, cy=y, hw=0.0, hh=0.0), r=1.0) for x, y in centres]


@settings(max_examples=200)
@given(lattice_grids())
@example(_point_grids((0, 0), (0, 0), (0, 0)))  # coincident: every weight is zero
@example(_point_grids((0, 0), (1, 0), (0, 1), (1, 1)))  # unit square: four equal sides
@example(_point_grids((0, 0), (2, 0), (1, 0), (1, 0), (-1, 0)))  # equal steps, a duplicate
def test_grid_mst_breaks_ties_like_csgraph_kruskal(grids):
    edges = [(e.i, e.j, e.weight) for e in grid_mst(grids)]
    assert edges == _csgraph_mst(grids)


def grid_mst_reference(grids):
    """``grid_mst`` as it was before it computed one block of distances per
    grid: a broadcast per grid pair, its argmin, and Kruskal over numpy
    scalars."""
    k = len(grids)
    dmat = np.zeros((k, k))
    closest = {}
    for i in range(k):
        for j in range(i + 1, k):
            diff = grids[i].points[:, None, :] - grids[j].points[None, :, :]
            d = np.sqrt((diff * diff).sum(axis=-1))
            pi, pj = divmod(int(d.argmin()), d.shape[1])
            dmat[i, j] = d[pi, pj]
            closest[(i, j)] = (pi, pj)
    rows, cols = np.triu_indices(k, 1)
    comp = np.arange(k)
    edges = []
    for e in np.argsort(dmat[rows, cols], kind="stable"):
        i, j = int(rows[e]), int(cols[e])
        if comp[i] != comp[j]:
            comp[comp == comp[j]] = comp[i]
            edges.append(GridEdge(i, j, float(dmat[i, j]), *closest[(i, j)]))
    edges.sort(key=lambda e: (e.i, e.j))
    return edges


def _edge_bytes(edges):
    return [(e.i, e.j, struct.pack("<d", e.weight), e.point_i, e.point_j) for e in edges]


@st.composite
def shared_point_grids(draw):
    """Two to twelve grids that often share lattice points: axis-aligned on a
    half-unit lattice at spacing 0.5 or 1, or tilted at spacing 0.7."""
    grids = []
    for _ in range(draw(st.integers(2, 12))):
        if draw(st.booleans()):
            half = st.integers(0, 4).map(lambda v: v * 0.5)
            rect = axis_rect(
                cx=draw(_lattice) / 2, cy=draw(_lattice) / 2, cz=draw(_lattice) / 2,
                hw=draw(half), hh=draw(half),
            )
            grids.append(impose_grid(rect, r=draw(st.sampled_from([0.5, 1.0]))))
        else:
            (rect,) = draw(tilted_rects(count=st.just(1)))
            grids.append(impose_grid(rect, r=0.7))
    return grids


@settings(max_examples=300)
@given(shared_point_grids(), st.sampled_from([1, 7, 40, tours._MST_BLOCK]))
@example(_point_grids((0, 0), (0, 0), (0, 0)), 1)
def test_grid_mst_bit_equal_to_the_pair_by_pair_reference(grids, block):
    """Edges, weight bytes and realising points equal the reference whether
    grid i's later grids come in one block or in blocks of one grid each."""
    with mock.patch.object(tours, "_MST_BLOCK", block):
        got = grid_mst(grids)
    assert _edge_bytes(got) == _edge_bytes(grid_mst_reference(grids))


class TestStitch:
    def test_single_rectangle_closed_tour(self):
        g = impose_grid(axis_rect(hw=1.0, hh=1.0), r=1.0)
        tour = boustrophedon_tour(g)
        traj, cert = stitch_tour([g], [], d=1.0)
        assert traj.closed
        assert len(traj) == 9
        assert cert.final_length == pytest.approx(tour.length + cert.splice_overheads[-1])
        assert cert.final_length <= cert.bound_value + 1e-9

    def test_two_grids_recorded_length(self):
        # two 3x3 grids at r=1 in one plane, nearest points 2 apart
        ga = impose_grid(axis_rect(cx=0.0), r=1.0)
        gb = impose_grid(axis_rect(cx=4.0), r=1.0)
        mst = grid_mst([ga, gb])
        assert mst_weight(mst) == pytest.approx(2.0)
        traj, cert = stitch_tour([ga, gb], mst, d=1.0)
        # closing hops 2 * sqrt(8); the edge joins a's (1, -1) to b's (3, -1),
        # so the splice trades a's step (1, -1) -> (1, 0) and b's closing hop
        # (5, 1) -> (3, -1) for 2 + |(5, 1) - (1, 0)|: 1 + sqrt(17) - sqrt(8);
        # with the two sweeps of 8, 17 + sqrt(8) + sqrt(17)
        assert cert.final_length == pytest.approx(17 + math.sqrt(8) + math.sqrt(17))
        assert cert.final_length == 23.951532750363853  # recorded from construction
        assert cert.final_length <= 8.0 + 8.0 + 2 * 2.0 + sum(cert.splice_overheads) + 1e-9
        assert cert.final_length <= cert.bound_value + 1e-9

    def test_every_view_exactly_once(self):
        rng = np.random.default_rng(5)
        grids = [
            impose_grid(
                axis_rect(
                    cx=float(rng.uniform(-15, 15)),
                    cy=float(rng.uniform(-15, 15)),
                    hw=float(rng.uniform(1, 3)),
                    hh=float(rng.uniform(1, 3)),
                ),
                r=1.0,
            )
            for _ in range(4)
        ]
        mst = grid_mst(grids)
        traj, cert = stitch_tour(grids, mst, d=1.0)
        assert len(traj) == sum(g.num_points for g in grids)
        seen = {tuple(np.round(p, 9)) for p in traj.positions}
        assert len(seen) == len(traj)

    def test_certificate_recomputation(self):
        ga = impose_grid(axis_rect(cx=0.0, hw=2.0, hh=1.5), r=1.0)
        gb = impose_grid(axis_rect(cx=8.0, hw=1.0, hh=1.0), r=1.0)
        mst = grid_mst([ga, gb])
        traj, cert = stitch_tour([ga, gb], mst, d=2.0)
        # recompute every certificate field from its own components
        assert cert.total_area == pytest.approx(sum(cert.areas))
        assert cert.mst_weight == pytest.approx(sum(w for _, _, w in cert.mst_edges))
        assert cert.final_length == pytest.approx(
            sum(cert.tour_lengths) + sum(cert.splice_overheads)
        )
        assert cert.bound_value == pytest.approx(
            3 * cert.total_area / cert.r + 2 * cert.mst_weight + cert.splice_allowance
        )
        assert cert.splice_allowance == pytest.approx(2 * cert.r * 2)
        assert cert.final_length <= cert.bound_value + 1e-9
        assert cert.ratio_vs_lower_bound == pytest.approx(cert.final_length / cert.lower_bound)

    def test_open_tour_flag(self):
        # the stitched tour is the closed one its certificate measures; clearing
        # ``closed`` drops only the closing hop from its length
        g = impose_grid(axis_rect(), r=1.0)
        tour = boustrophedon_tour(g)
        traj, cert = stitch_tour([g], [], d=1.0)
        assert traj.closed
        assert traj.length == pytest.approx(cert.final_length)
        traj.closed = False
        assert traj.length == pytest.approx(tour.length)
        assert cert.final_length == pytest.approx(tour.length + cert.splice_overheads[-1])

    def test_disconnected_tree_rejected(self):
        grids = [impose_grid(axis_rect(cx=4.0 * i), r=1.0) for i in range(3)]
        bad = [GridEdge(0, 1, 1.0, 0, 0)]  # grid 2 unreachable
        with pytest.raises(DisconnectedTreeError):
            stitch_tour(grids, bad, d=1.0)

    def test_cyclic_edges_rejected(self):
        # three edges over three grids: the third splice splits the tour in two
        grids = [impose_grid(axis_rect(cx=4.0 * i), r=1.0) for i in range(3)]
        cyclic = [GridEdge(0, 1, 1.0, 0, 0), GridEdge(0, 2, 1.0, 0, 0), GridEdge(1, 2, 1.0, 0, 0)]
        with pytest.raises(DisconnectedTreeError):
            stitch_tour(grids, cyclic, d=1.0)


_coord = st.floats(-15.0, 15.0)
_half = st.floats(0.5, 3.0)


@st.composite
def tilted_rects(draw, half=_half, count=st.integers(1, 5)):
    """Rectangles (one to five by default) with random centers, sizes and
    orientations."""
    rects = []
    for _ in range(draw(count)):
        normal = np.array(draw(st.tuples(_coord, _coord, _coord)))
        assume(np.linalg.norm(normal) > 0.1)
        normal = normal / np.linalg.norm(normal)
        helper = np.eye(3)[int(np.argmin(np.abs(normal)))]
        u = np.cross(normal, helper)
        u = u / np.linalg.norm(u)
        rects.append(
            ViewingRectangle(
                center=np.array(draw(st.tuples(_coord, _coord, _coord))),
                normal=normal,
                axis_u=u,
                axis_v=np.cross(normal, u),
                half_w=draw(half),
                half_h=draw(half),
            )
        )
    return rects


def _pose_rows(trajectory):
    rows = np.hstack([trajectory.positions, trajectory.directions])
    return sorted(row.tobytes() for row in rows)


@settings(max_examples=60)
@given(tilted_rects())
def test_stitched_tour_reuses_every_sweep_pose_once_bit_for_bit(rects):
    plan = plan_rectangles(rects, r=1.0, d=5.0)
    sweeps = [boustrophedon_tour(g) for g in plan.grids]
    assert _pose_rows(plan.trajectory) == _pose_rows(Trajectory.concat(sweeps))


def spliced_overheads_reference(tours, mst, grids):
    """The spliced tour's overheads replayed on a dict of successors keyed by
    (grid, pose): each sweep's closing hop, then per edge the change
    |x - y| + |prev(y) - next(x)| - |x - next(x)| - |prev(y) - y|, every
    distance a 1-d ``np.linalg.norm`` of its own step. Also returns the
    positions of the walk along the successors from grid 0's first pose."""
    pos = {(g, i): p for g, t in enumerate(tours) for i, p in enumerate(t.positions)}
    nxt = {(g, i): (g, (i + 1) % len(t)) for g, t in enumerate(tours) for i in range(len(t))}
    prv = {b: a for a, b in nxt.items()}
    dist = lambda a, b: float(np.linalg.norm(pos[a] - pos[b]))
    overheads = [dist((g, len(t) - 1), (g, 0)) for g, t in enumerate(tours)]
    for e in mst:
        x = next(key for key in pos if key[0] == e.i and (pos[key] == grids[e.i].points[e.point_i]).all())
        y = next(key for key in pos if key[0] == e.j and (pos[key] == grids[e.j].points[e.point_j]).all())
        nx, py = nxt[x], prv[y]
        overheads.append(dist(x, y) + dist(py, nx) - dist(x, nx) - dist(py, y))
        nxt[x], prv[y], nxt[py], prv[nx] = y, x, nx, py
    walk = [(0, 0)]
    while nxt[walk[-1]] != (0, 0):
        walk.append(nxt[walk[-1]])
    return overheads, np.array([pos[key] for key in walk])


@settings(max_examples=100)
@given(tilted_rects(count=st.integers(1, 8)), st.sampled_from([0.7, 1.0, 2.5]))
def test_spliced_overheads_bit_equal_to_per_step_norms(rects, r):
    """Every recorded overhead equals the replayed one byte for byte, the
    tour is the replayed walk pose for pose, and the certified length is the
    tour's own."""
    plan = plan_rectangles(rects, r=r, d=5.0)
    got = plan.certificate.splice_overheads
    sweeps = [boustrophedon_tour(g) for g in plan.grids]
    want, walk = spliced_overheads_reference(sweeps, plan.mst, plan.grids)
    assert struct.pack(f"<{len(got)}d", *got) == struct.pack(f"<{len(want)}d", *want)
    assert plan.trajectory.positions.tobytes() == walk.tobytes()
    assert plan.certificate.final_length == plan.trajectory.length


def _reference_sweep(rect, r):
    """Reference for impose_grid + boustrophedon_tour: the lattice and the
    serpentine written out per axis and per lane."""
    w, h = rect.width, rect.height
    nu = int(math.floor(w / r + 1e-9)) + 1
    nv = int(math.floor(h / r + 1e-9)) + 1
    us = -rect.half_w + (w - (nu - 1) * r) / 2.0 + r * np.arange(nu)
    vs = -rect.half_h + (h - (nv - 1) * r) / 2.0 + r * np.arange(nv)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    points = rect.from_plane(np.stack([uu.ravel(), vv.ravel()], axis=1))
    order = []
    if w >= h:
        for iv in range(nv):  # lanes along u
            span = range(nu) if iv % 2 == 0 else range(nu - 1, -1, -1)
            order.extend(iu * nv + iv for iu in span)
    else:
        for iu in range(nu):  # lanes along v
            span = range(nv) if iu % 2 == 0 else range(nv - 1, -1, -1)
            order.extend(iu * nv + iv for iv in span)
    return points[order]


@settings(max_examples=100)
@given(tilted_rects(half=st.one_of(st.just(0.0), st.floats(0.0, 6.0))), st.floats(0.2, 4.0))
def test_sweep_matches_the_reference_lattice_and_lanes_bit_for_bit(rects, r):
    # zero sides give single-lane and single-point grids
    for rect in rects:
        tour = boustrophedon_tour(impose_grid(rect, r))
        assert tour.positions.tobytes() == _reference_sweep(rect, r).tobytes()


def _thin_grid_beside_a_point():
    thin = ViewingRectangle(
        center=np.zeros(3), normal=np.array([1.0, 0.0, 0.0]),
        axis_u=np.array([0.0, 0.0, 1.0]), axis_v=np.array([0.0, -1.0, 0.0]),
        half_w=1.0, half_h=0.0,
    )
    point = axis_rect(cx=0.0, cy=0.0, cz=1.0, hw=0.0, hh=0.0)
    return [thin, point]


def test_certificate_holds_for_thin_grid_beside_a_point():
    # a tour of whole sweeps joined end to end is 10.03 here, over the bound
    # of 10.0: a two-lane sweep ends far from where the tree joins its grid
    plan = plan_rectangles(_thin_grid_beside_a_point(), r=0.5, d=5.0)
    cert = plan.certificate
    assert cert.final_length <= cert.bound_value
    assert len(cert.splice_overheads) == 2 * len(plan.grids) - 1  # the spliced tour
    assert plan.trajectory.closed
    assert cert.final_length == plan.trajectory.length
    assert cert.final_length == pytest.approx(sum(cert.tour_lengths) + sum(cert.splice_overheads))
    sweeps = [boustrophedon_tour(g) for g in plan.grids]
    assert _pose_rows(plan.trajectory) == _pose_rows(Trajectory.concat(sweeps))


def test_certificate_written_numbers_satisfy_the_bound():
    # a tour of whole sweeps joined end to end is one ulp over the bound here
    # (10.400000000000002 against 10.4)
    rects = [
        ViewingRectangle(
            center=np.array([0.0, 0.0, z]), normal=np.array([sign, 0.0, 0.0]),
            axis_u=np.array([0.0, 0.0, sign]), axis_v=np.array([0.0, -1.0, 0.0]),
            half_w=0.0, half_h=0.0,
        )
        for z, sign in ((-4.0, 1.0), (0.0, -1.0))
    ]
    cert = plan_rectangles(rects, r=0.3, d=5.0).certificate
    assert cert.final_length <= cert.bound_value


@settings(max_examples=100)
@given(
    tilted_rects(half=st.one_of(st.just(0.0), st.floats(0.0, 3.0))),
    st.floats(0.3, 3.0),
)
@example(_thin_grid_beside_a_point(), 0.5)
def test_spliced_tour_within_its_bound(rects, r):
    """The spliced tour visits every sweep pose once, its overheads add up to
    its length, and it is at most the sum of the closed sweeps plus twice the
    tree weight, so within the bound."""
    plan = plan_rectangles(rects, r=r, d=5.0)
    traj, cert = plan.trajectory, plan.certificate
    overheads = cert.splice_overheads
    assert traj.closed
    sweeps = [boustrophedon_tour(g) for g in plan.grids]
    assert _pose_rows(traj) == _pose_rows(Trajectory.concat(sweeps))
    assert traj.length == pytest.approx(sum(cert.tour_lengths) + sum(overheads))
    closed_sweeps = sum(cert.tour_lengths) + sum(overheads[: len(plan.grids)])
    assert traj.length <= closed_sweeps + 2.0 * cert.mst_weight + 1e-9 * max(1.0, traj.length)
    assert traj.length <= cert.bound_value


@settings(max_examples=100)
@given(
    tilted_rects(half=st.one_of(st.just(0.0), st.floats(0.0, 3.0))),
    st.floats(0.3, 3.0),
    st.one_of(st.none(), st.integers(1, 200)),
)
def test_certificate_brackets_final_length(rects, r, budget):
    # zero-width and zero-height rectangles are widened to one grid step; a
    # draw whose coarsest grids exceed the budget has no plan to bracket
    try:
        plan = plan_rectangles(rects, r=r, d=5.0, budget=budget)
    except BudgetExhaustedError:
        return
    cert = plan.certificate
    assert cert.final_length <= cert.bound_value
    assert cert.lower_bound <= cert.final_length


class TestLowerBound:
    def test_single_rectangle_area_term(self):
        rect = axis_rect(hw=5.0, hh=5.0)
        assert lower_bound([rect], [], d=5.0) == pytest.approx(100.0 / 20.0)

    def test_max_of_terms(self):
        rect = axis_rect(hw=7.5, hh=1.0)  # area 30 -> area/(4*2.5) = 3
        edges = [GridEdge(0, 1, 4.0, 0, 0), GridEdge(1, 2, 3.0, 0, 0)]
        assert lower_bound([rect], edges, d=2.5) == pytest.approx(7.0)


class TestPlanRectangles:
    def test_budget_coarsening(self):
        rects = [axis_rect(hw=10.0, hh=10.0)]
        full = plan_rectangles(rects, r=1.0, d=5.0)
        assert len(full.trajectory) == 21 * 21
        capped = plan_rectangles(rects, r=1.0, d=5.0, budget=100)
        assert len(capped.trajectory) <= 100
        assert capped.r_effective > 1.0
        assert capped.certificate.final_length <= capped.certificate.bound_value + 1e-9

    def test_budget_impossible_raises_before_building_grids(self):
        # 2 x 2 views per rectangle is 16 > 10: refused as soon as it is sized
        rects = [axis_rect(cx=30.0 * i, hw=3.0, hh=3.0) for i in range(4)]
        with mock.patch.object(tours, "impose_grid", wraps=tours.impose_grid) as grids:
            with pytest.raises(BudgetExhaustedError, match="16 views exceed remaining budget 10"):
                plan_rectangles(rects, r=1.0, d=5.0, budget=10)
        assert grids.call_count == 0

    def test_deterministic(self):
        rects = [axis_rect(cx=0.0), axis_rect(cx=7.0, hw=2.0)]
        a = plan_rectangles(rects, r=1.0, d=5.0)
        b = plan_rectangles(rects, r=1.0, d=5.0)
        assert np.array_equal(a.trajectory.positions, b.trajectory.positions)
        assert a.certificate.final_length == b.certificate.final_length
