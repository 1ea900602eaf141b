import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewplan import baselines, cli, quality
from viewplan.baselines import (
    LATTICE_STEP_PER_D,
    ZIGZAG_ALTITUDE_PER_D,
    _farthest_point_subset,
    _nearest_walk,
    _two_opt,
    _uniform_axes,
    plan_gvs,
    plan_uniform_grid,
    plan_zigzag,
    uniform_view_count,
    zigzag_length,
    zigzag_view_count,
)
from viewplan.mesh import SceneSpec, TriangleMesh, degrade_proxy, generate_scene, row_norms
from viewplan.planner import NOISE_SIGMA_PER_D, preprocess_mesh
from viewplan.quality import QualityParams, unit_directions, visibility_matrix
from viewplan.rectangles import ViewingRectangle
from viewplan.tours import Trajectory, ViewingGrid, impose_grid

from conftest import axis_rect, flat_patch, pair_quality_reference

D = 5.0  # the default viewing distance: 1 m lattice step, 20 m zigzag altitude


class TestZigZag:
    def test_lane_and_view_counts(self):
        bounds = (np.zeros(3), np.array([10.0, 10.0, 0.0]))
        traj = plan_zigzag(bounds, D)
        xs = {round(float(x), 9) for x in traj.positions[:, 0]}
        assert len(xs) == 11  # 11 lanes
        assert len(traj) == 11 * 11

    def test_degenerate_strip_single_lane(self):
        bounds = (np.zeros(3), np.array([0.0, 10.0, 0.0]))
        traj = plan_zigzag(bounds, D)
        xs = {round(float(x), 9) for x in traj.positions[:, 0]}
        assert len(xs) == 1
        assert len(traj) == 11

    def test_nadir_orientation_and_altitude(self):
        bounds = (np.zeros(3), np.array([6.0, 4.0, 2.0]))
        traj = plan_zigzag(bounds, D)
        assert np.allclose(traj.directions, [0, 0, -1])
        assert (traj.positions[:, 2] == 20.0).all()

    def test_closed_form_length(self):
        bounds = (np.zeros(3), np.array([8.0, 6.0, 0.0]))
        traj = plan_zigzag(bounds, D)
        assert traj.length == pytest.approx(zigzag_length(bounds, D))

    def test_altitude_must_clear_scene(self):
        bounds = (np.zeros(3), np.array([5.0, 5.0, 25.0]))
        with pytest.raises(ValueError):
            plan_zigzag(bounds, D)

    def test_altitude_is_above_the_lowest_point(self):
        # a scene far above z = 0 gets the same lanes, lifted with it
        lifted = (np.array([0.0, 0.0, 100.0]), np.array([6.0, 4.0, 102.0]))
        traj = plan_zigzag(lifted, D)
        base = plan_zigzag((np.zeros(3), np.array([6.0, 4.0, 2.0])), D)
        assert (traj.positions[:, 2] == 100.0 + ZIGZAG_ALTITUDE_PER_D * D).all()
        assert np.array_equal(traj.positions[:, :2], base.positions[:, :2])
        with pytest.raises(ValueError):
            plan_zigzag((lifted[0], lifted[1] + [0.0, 0.0, ZIGZAG_ALTITUDE_PER_D * D]), D)


def _reference_zigzag_xy(lo, hi, spacing=1.0):
    """Reference for plan_zigzag's footprint: lane coordinates per axis and
    the lanes listed one by one, every other one reversed."""

    def lane_coords(a, b):
        width = b - a
        n = int(np.floor(width / spacing + 1e-9)) + 1
        return a + (width - (n - 1) * spacing) / 2.0 + spacing * np.arange(n)

    xs, ys = lane_coords(lo[0], hi[0]), lane_coords(lo[1], hi[1])
    lanes = [ys if i % 2 == 0 else ys[::-1] for i in range(len(xs))]
    return np.array([[x, y] for x, lane in zip(xs, lanes) for y in lane])


_corner = st.floats(-60.0, 60.0)
_side = st.one_of(st.just(0.0), st.floats(0.0, 25.0))


@settings(max_examples=100)
@given(st.tuples(_corner, _corner, _corner), st.tuples(_side, _side, st.floats(0.0, 19.0)))
def test_zigzag_matches_the_reference_lanes_bit_for_bit(corner, sides):
    lo = np.array(corner)
    hi = lo + np.array(sides)
    traj = plan_zigzag((lo, hi), D)
    ref = _reference_zigzag_xy(lo, hi)
    assert traj.positions[:, :2].tobytes() == ref.tobytes()
    assert (traj.positions[:, 2] == lo[2] + ZIGZAG_ALTITUDE_PER_D * D).all()
    assert zigzag_length((lo, hi), D) == len(ref) - 1
    assert zigzag_view_count((lo, hi), D) == len(traj)


@settings(max_examples=100)
@given(st.tuples(_corner, _corner, _corner), st.tuples(_side, _side, _side), st.floats(0.05, 20.0))
def test_uniform_view_count_is_the_lattice_size(corner, sides, d):
    lo = np.array(corner)
    spans, step = _uniform_axes((lo, lo + np.array(sides)), d)
    lengths = [len(np.arange(start, stop, step)) for start, stop in spans]
    assert uniform_view_count((lo, lo + np.array(sides)), d) == math.prod(lengths)


class TestUniformGrid:
    def test_full_lattice_selected(self):
        # steps of 0.2 d, from d outside the footprint and from the floor up to
        # d above the top: 11 x 11 x 6 points around a point scene
        pos = plan_uniform_grid((np.zeros(3), np.zeros(3)), 1000, D, proxy=flat_patch(4.0)).positions
        assert len(pos) == 11 * 11 * 6 == uniform_view_count((np.zeros(3), np.zeros(3)), D)
        assert LATTICE_STEP_PER_D * D == 1.0
        assert np.array_equal(np.unique(pos[:, 0]), np.arange(-5.0, 6.0))
        assert np.array_equal(np.unique(pos[:, 2]), np.arange(0.0, 6.0))

    def test_views_are_lattice_points(self):
        bounds = (np.zeros(3), np.array([4.0, 4.0, 0.0]))
        traj = plan_uniform_grid(bounds, view_count=9, d=D, proxy=flat_patch(4.0))
        pos = traj.positions
        assert np.allclose(pos, np.round(pos))  # 1 m lattice anchored at -d

    def test_farthest_point_spread_beats_random_subsets(self):
        bounds = (np.zeros(3), np.array([9.0, 9.0, 0.0]))
        traj = plan_uniform_grid(bounds, view_count=10, d=D, proxy=flat_patch(9.0))
        pos = traj.positions

        def min_pairwise(p):
            d = np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)
            return d[np.triu_indices(len(p), 1)].min()

        ours = min_pairwise(pos)
        xs = np.arange(-5.0, 14.0 + 1e-9, 1.0)
        zs = np.arange(0.0, 5.0 + 1e-9, 1.0)
        lattice = np.array([[x, y, z] for x in xs for y in xs for z in zs])
        rng = np.random.default_rng(0)
        for _ in range(100):
            subset = lattice[rng.choice(len(lattice), 10, replace=False)]
            assert ours >= min_pairwise(subset) - 1e-9

    def test_orientation_toward_nearest_proxy_point(self):
        proxy = flat_patch(4.0)
        bounds = proxy.bounds()
        traj = plan_uniform_grid(bounds, view_count=5, d=10.0, proxy=proxy)
        for position, direction in zip(traj.positions, traj.directions):
            d = np.linalg.norm(proxy.centroids - position, axis=1)
            nearest = proxy.centroids[int(d.argmin())]
            aim = nearest - position
            aim = aim / np.linalg.norm(aim)
            assert np.allclose(aim, direction, atol=1e-9)
        # a view equidistant from two centroids aims at the lower face index:
        # mirrored faces put centroids (3, 0, -3) and (-3, 0, -3) exactly as
        # far from the only view, the first lattice point (-d, -d, 0)
        right = np.array([[2.0, -1.0, -3.0], [2.0, 1.0, -3.0], [5.0, 0.0, -3.0]])
        left = right * [-1.0, 1.0, 1.0]
        first_point = np.array([-1.0, -1.0, 0.0])
        for first, second in ((right, left), (left, right)):
            tie = TriangleMesh(np.vstack([first, second]) + first_point, [[0, 1, 2], [3, 4, 5]])
            traj = plan_uniform_grid((np.zeros(3), np.zeros(3)), 1, 1.0, proxy=tie)
            assert np.array_equal(traj.positions, first_point[None, :])
            aim = tie.centroids[0] - first_point
            assert np.allclose(traj.directions[0], aim / np.linalg.norm(aim), atol=1e-12)

    def test_deterministic(self):
        bounds = (np.zeros(3), np.array([6.0, 6.0, 1.0]))
        a = plan_uniform_grid(bounds, 12, D, proxy=flat_patch(6.0))
        b = plan_uniform_grid(bounds, 12, D, proxy=flat_patch(6.0))
        assert np.array_equal(a.positions, b.positions)

    def test_a_proxy_without_faces_is_refused(self):
        empty = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        with pytest.raises(ValueError, match="no faces"):
            plan_uniform_grid((np.zeros(3), np.ones(3)), 4, D, proxy=empty)


def two_opt_reference(d, order, max_passes=25):
    """The scalar double loop over (a, b) that ``_two_opt`` replaced, kept as
    its reference."""
    order = order.copy()
    n = len(order)
    for _ in range(max_passes):
        improved = False
        for a in range(n - 3):
            for b in range(a + 2, n - 1):
                i, j = order[a], order[a + 1]
                p, q = order[b], order[b + 1]
                if d[i, p] + d[j, q] + 1e-12 < d[i, j] + d[p, q]:
                    order[a + 1 : b + 1] = order[a + 1 : b + 1][::-1]
                    improved = True
        if not improved:
            break
    return order


@st.composite
def tours(draw):
    """Random points, or small integer lattices whose many equal distances
    tie the 2-opt test, in a random start order."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pts = rng.integers(0, draw(st.integers(1, 4)), size=(n, 3)).astype(np.float64)
    else:
        pts = rng.normal(scale=10.0, size=(n, 3))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    return d, rng.permutation(n), draw(st.integers(1, 25))


@settings(max_examples=300)
@given(tours())
def test_two_opt_matches_the_reference_loop(tour):
    d, order, passes = tour
    with mock.patch.object(baselines, "_TWO_OPT_PASSES", passes):
        assert np.array_equal(_two_opt(d, order), two_opt_reference(d, order, passes))


def nearest_walk_reference(d):
    """The set-based walk that ``_nearest_walk`` replaced, kept as its reference."""
    order = [0]
    todo = set(range(1, len(d)))
    while todo:
        last = order[-1]
        nxt = min(todo, key=lambda t: (d[last, t], t))
        order.append(nxt)
        todo.remove(nxt)
    return np.array(order)


@settings(max_examples=300)
@given(tours())
def test_nearest_walk_matches_the_reference_set_walk(tour):
    d = tour[0]  # lattice draws repeat points and distances, so steps tie
    walk = _nearest_walk(d)
    assert walk.dtype == np.int64
    assert np.array_equal(walk, nearest_walk_reference(d))


def farthest_point_reference(points, count):
    """The row-norm loop that ``_farthest_point_subset`` replaced, kept as its
    reference."""
    n = len(points)
    if count >= n:
        return np.arange(n)
    chosen = [0]
    dist = np.linalg.norm(points - points[0], axis=1)
    for _ in range(count - 1):
        nxt = int(dist.argmax())
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(points - points[nxt], axis=1))
    return np.array(sorted(chosen))


@settings(max_examples=200)
@given(
    st.integers(1, 300),
    st.integers(1, 320),
    st.sampled_from([0.2, 1.0, 0.37, 1e-3, 1e4]),
    st.sampled_from([0.0, -2.0, 1234.5]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_farthest_point_subset_matches_the_reference_loop(n, count, step, origin, lattice, seed):
    """Lattice points (many equal distances tie the argmax) or normal draws,
    at several scales and origins."""
    rng = np.random.default_rng(seed)
    if lattice:
        pts = origin + rng.integers(-6, 7, size=(n, 3)) * step
    else:
        pts = origin + rng.normal(scale=step, size=(n, 3))
    got = _farthest_point_subset(pts, count)
    assert got.tobytes() == farthest_point_reference(pts, count).tobytes()


def uniform_reference(scene_bounds, view_count, d, proxy):
    """``plan_uniform_grid`` with the per-view nearest-centroid loop and the
    (n, n, 3) ``np.linalg.norm`` distances it replaced, kept as its reference."""
    spans, step = _uniform_axes(scene_bounds, d)
    gx, gy, gz = np.meshgrid(*(np.arange(start, stop, step) for start, stop in spans), indexing="ij")
    lattice = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    pts = lattice[_farthest_point_subset(lattice, view_count)]
    c = proxy.centroids
    aim = c[[int(np.argmin(((c - p) ** 2).sum(axis=1))) for p in pts]] - pts
    aim[row_norms(aim) < 1e-12] = (0.0, 0.0, -1.0)
    dmat = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    order = _nearest_walk(dmat)
    order = _two_opt(dmat, order) if len(pts) >= 4 else order
    return Trajectory(pts[order], unit_directions(aim[order]))


@pytest.mark.parametrize("kind,extent,views", [
    ("boxfield", 12.0, 300),  # 448 faces: the aims run in 5 blocks of views
    ("canyon", 10.0, 40),
    ("flat", 3.0, 7),
])
def test_uniform_grid_matches_the_reference(kind, extent, views):
    params = QualityParams()
    truth = preprocess_mesh(generate_scene(SceneSpec(kind, extent, seed=3)), params)
    proxy = degrade_proxy(truth, 0.25, 3)
    got = plan_uniform_grid(truth.bounds(), views, params.d, proxy=proxy)
    want = uniform_reference(truth.bounds(), views, params.d, proxy)
    assert got.positions.tobytes() == want.positions.tobytes()
    assert got.directions.tobytes() == want.directions.tobytes()


def tiny_face(cx, cy, size=0.2):
    return [
        [cx - size, cy - size / 2, 0.0],
        [cx + size, cy - size / 2, 0.0],
        [cx, cy + size, 0.0],
    ]


def gvs_fixture():
    """One seed view plus candidates A (sees 3 faces) and B (sees 1)."""
    verts = []
    faces = []
    for i, cx in enumerate([1.3, 1.5, 1.7, 8.5]):
        verts.extend(tiny_face(cx, 0.0))
        faces.append([3 * i, 3 * i + 1, 3 * i + 2])
    mesh = TriangleMesh(np.array(verts), np.array(faces))
    params = QualityParams()
    pts = np.array(
        [
            [5.0, 0.0, 4.5],   # start view: sees all four faces
            [1.5, 0.0, 5.0],   # A: the three clustered faces
            [8.5, 0.0, 5.0],   # B: the lone face
        ]
    )
    rect = axis_rect(cx=5.0, cz=5.0, hw=4.0, hh=0.5)
    grid = ViewingGrid(rect, 1.0, pts, (3, 1))
    return mesh, params, grid


class TestGvs:
    def test_start_view_seen_by_all(self):
        mesh, params, grid = gvs_fixture()
        vis = visibility_matrix(mesh, grid.trajectory(), params)
        assert vis[:, 0].all()          # start sees every face
        assert vis[:, 1].sum() == 3     # A sees the cluster
        assert vis[:, 2].sum() == 1     # B sees the lone face

    def _force_start(self, n, want):
        for seed in range(50):
            if int(np.random.default_rng(seed).integers(n)) == want:
                return seed
        raise AssertionError("no seed found")

    def test_coverage_gain_prefers_wider_coverage(self):
        mesh, params, grid = gvs_fixture()
        seed = self._force_start(3, 0)
        traj, info = plan_gvs(
            [grid], mesh, params, view_budget=2, seed=seed,
            neighbor_radius=10.0, gain_mode="coverage",
        )
        assert info["selected"][0] == 0
        assert info["selected"][1] == 1  # A: gain ~3x0.02 beats B's ~0.02
        expected = sum(info_gain_pair(mesh, params, grid, f) for f in range(3))
        assert info["gains"][1] == pytest.approx(expected, rel=1e-9)
        assert info["gains"][1] > 2.5 * info_gain_pair(mesh, params, grid, 3, cand=2)

    def test_literal_gain_saturation_tie_breaks_lowest_index(self):
        mesh, params, grid = gvs_fixture()
        seed = self._force_start(3, 0)
        traj, info = plan_gvs(
            [grid], mesh, params, view_budget=2, seed=seed,
            neighbor_radius=10.0, gain_mode="literal",
        )
        # with one selected view every face has q = 0, so all gains tie at 0
        assert info["selected"][1] == 1
        assert info["gains"][1] == 0.0

    def test_never_selects_twice_and_respects_budget(self):
        mesh, params, grid = gvs_fixture()
        traj, info = plan_gvs([grid], mesh, params, view_budget=10, seed=3, neighbor_radius=10.0)
        assert len(info["selected"]) == len(set(info["selected"])) == 3  # pool exhausted
        assert info["stopped_early"] is True

    def test_restart_reaches_budget_parity(self):
        mesh, params, grid = gvs_fixture()
        traj, info = plan_gvs([grid], mesh, params, view_budget=3, seed=0, neighbor_radius=0.5)
        assert len(traj) == 3
        assert info["restarts"] >= 1

    def test_incremental_gains_match_scratch_recomputation(self):
        mesh = preprocess_mesh(
            generate_scene(SceneSpec("boxfield", 10.0, obstacles=1, seed=2)),
            QualityParams(),
        )
        params = QualityParams()
        rect = axis_rect(cx=5.0, cy=5.0, cz=5.0, hw=4.0, hh=4.0)
        grid = impose_grid(rect, 2.0)
        traj, info = plan_gvs([grid], mesh, params, view_budget=8, seed=1, neighbor_radius=3.0)
        views = grid.trajectory()
        vis = visibility_matrix(mesh, views, params)
        pos = views.positions

        selected = info["selected"]
        for step in range(1, len(selected)):
            chosen = selected[step]
            if info["gains"][step] == 0.0 and chosen not in _eligible(pos, selected[:step], 3.0):
                continue  # restart jump, no gain comparison applies
            q_now = _scratch_q(mesh, params, vis, pos, selected[:step])
            covered = vis[:, selected[:step]].any(axis=1)
            total = float(q_now[covered].sum())
            elig = _eligible(pos, selected[:step], 3.0)
            gains = {
                s: total - float(q_now[covered & vis[:, s]].sum())
                for s in elig
                if s not in selected[:step]
            }
            best_gain = max(gains.values())
            assert info["gains"][step] == pytest.approx(best_gain, abs=1e-9)
            assert gains[chosen] == pytest.approx(best_gain, abs=1e-9)

    def test_deterministic(self):
        mesh, params, grid = gvs_fixture()
        a = plan_gvs([grid], mesh, params, 3, seed=5, neighbor_radius=10.0)
        b = plan_gvs([grid], mesh, params, 3, seed=5, neighbor_radius=10.0)
        assert a[1]["selected"] == b[1]["selected"]


def info_gain_pair(mesh, params, grid, face, cand=1):
    """Quality of one face under the (start, candidate) view pair."""
    pos = grid.trajectory().positions[[0, cand]]
    return pair_quality_reference(mesh.centroids[face], pos, params)[1]


def _eligible(pos, selected, radius):
    sel = np.array(selected)
    near = np.zeros(len(pos), dtype=bool)
    for s in sel:
        near |= np.linalg.norm(pos - pos[s], axis=1) <= radius
    return set(np.nonzero(near)[0].tolist())


def _scratch_q(mesh, params, vis, pos, selected):
    q = np.zeros(mesh.num_faces)
    for f in range(mesh.num_faces):
        members = [s for s in selected if vis[f, s]]
        q[f] = pair_quality_reference(mesh.centroids[f], pos[members], params)[1]
    return q


def gvs_reference(avr_grids, proxy, params, view_budget, seed, neighbor_radius, gain_mode):
    """``plan_gvs`` as it was before the batched kernel: each face's quality
    is ``pair_quality_reference`` over its members in selection order,
    re-scored for each face a new view sees and, for coverage gains, scored
    per (candidate, face) pair and added in face order. A literal gain is the
    covered faces' summed quality less the sum over every face, in face
    order, of the quality of those the candidate sees: numpy's pairwise sum
    of one contiguous column, as ``plan_gvs`` sums its visibility columns.
    Returns the selected views and the gain log."""
    candidates = Trajectory.concat([g.trajectory() for g in avr_grids])
    n = len(candidates)
    pos = candidates.positions
    vis = visibility_matrix(proxy, candidates, params)
    centroids = proxy.centroids
    rng = np.random.default_rng(seed)
    selected, gains_log = [], []
    selected_mask = np.zeros(n, dtype=bool)
    eligible = np.zeros(n, dtype=bool)
    kappa = [[] for _ in range(centroids.shape[0])]
    q_now = np.zeros(centroids.shape[0])

    def quality(f, members):
        return pair_quality_reference(centroids[f], pos[members], params)[1]

    def add(s):
        selected.append(s)
        selected_mask[s] = True
        eligible[np.linalg.norm(pos - pos[s], axis=1) <= neighbor_radius] = True
        for f in np.nonzero(vis[:, s])[0]:
            kappa[f].append(s)
            q_now[f] = quality(f, kappa[f])

    def candidate_gains(cands):
        covered = np.array([len(k) > 0 for k in kappa])
        total = float(q_now[covered].sum())
        out = np.empty(len(cands))
        for idx, s in enumerate(cands):
            if gain_mode == "literal":
                out[idx] = total - float(np.where(vis[:, s] & covered, q_now, 0.0).sum())
                continue
            acc = 0.0
            for f in np.nonzero(vis[:, s])[0]:
                acc += quality(f, kappa[f] + [s]) if kappa[f] else 0.0
            out[idx] = acc
        return out

    add(int(rng.integers(n)))
    gains_log.append(0.0)
    while len(selected) < min(view_budget, n):
        cands = np.nonzero(eligible & ~selected_mask)[0]
        if len(cands) == 0:
            pool = np.nonzero(~selected_mask)[0]
            add(int(pool[rng.integers(len(pool))]))
            gains_log.append(0.0)
            continue
        gains = candidate_gains(cands)
        gains_log.append(float(gains.max()))
        add(int(cands[int(np.argmax(gains))]))
    return selected, gains_log


def gvs_inputs(seed, clamps, gain_mode):
    """The GVS inputs of ``viewplan plan --planner gvs`` on a boxfield scene."""
    config = cli.RunConfig(
        planner="gvs", scene="boxfield", extent=10.0, obstacles=2, seed=seed,
        gvs_gain=gain_mode, min_pair_angle_deg=clamps[0], max_pair_angle_deg=clamps[1],
    )
    params = config.quality_params()
    truth = preprocess_mesh(generate_scene(config.scene_spec()), params)
    proxy = degrade_proxy(truth, NOISE_SIGMA_PER_D * params.d, seed)
    return cli._gvs_pool(proxy, params, config), proxy, params, config.gvs_radius


@pytest.mark.parametrize("seed,clamps", [(0, (None, None)), (1, (12.0, 95.0))])
def test_gvs_coverage_gain_bit_equal_to_the_per_pair_loop(seed, clamps):
    """The coverage gain, with and without pair-angle clamps."""
    grids, proxy, params, radius = gvs_inputs(seed, clamps, "coverage")
    _, info = plan_gvs(
        grids, proxy, params, 25, seed=seed, neighbor_radius=radius, gain_mode="coverage"
    )
    selected, gains = gvs_reference(grids, proxy, params, 25, seed, radius, "coverage")
    assert info["selected"] == selected
    assert np.array(info["gains"]).tobytes() == np.array(gains).tobytes()
    assert max(gains) > 0.0


@pytest.mark.parametrize("seed,clamps", [(0, (None, None)), (1, (12.0, 95.0)), (2, (None, None))])
def test_gvs_literal_gain_bit_equal_to_the_per_face_loop(seed, clamps):
    """The literal gain, the one ``viewplan compare`` runs, with and without
    pair-angle clamps."""
    grids, proxy, params, radius = gvs_inputs(seed, clamps, "literal")
    _, info = plan_gvs(
        grids, proxy, params, 25, seed=seed, neighbor_radius=radius, gain_mode="literal"
    )
    selected, gains = gvs_reference(grids, proxy, params, 25, seed, radius, "literal")
    assert info["selected"] == selected
    assert np.array(info["gains"]).tobytes() == np.array(gains).tobytes()
    assert max(gains) > 0.0


@pytest.mark.parametrize("gain_mode", ["literal", "coverage"])
def test_every_gvs_pick_scores_through_the_module_kernel(monkeypatch, gain_mode):
    """Each pick makes one call of ``pair_quality`` and scores only the new
    view's pairs, one new column per face: the coverage gain makes one more
    call per scored step. Every binding of the kernel is wrapped, so no call
    goes unseen."""
    grids, proxy, params, radius = gvs_inputs(0, (None, None), gain_mode)
    calls, original = [], quality.pair_quality

    def counting(centroids, positions, mask, params, *, k=0, previous=None):
        calls.append((np.asarray(mask).copy(), k))
        return original(centroids, positions, mask, params, k=k, previous=previous)

    for module in (quality, baselines):
        monkeypatch.setattr(module, "pair_quality", counting)
    _, info = plan_gvs(grids, proxy, params, 25, seed=0, neighbor_radius=radius, gain_mode=gain_mode)
    picks = len(info["selected"])
    gain_steps = picks - 1 - info["restarts"] if gain_mode == "coverage" else 0
    assert picks == 25 and len(calls) == picks + gain_steps
    assert calls[0][1] == 0  # the first pick has nothing before it
    for mask, k in calls[1:]:
        assert k > 0 and np.all(np.count_nonzero(mask[:, k:], axis=1) <= 1)  # one new view per face


def test_gvs_literal_gain_bytes_do_not_depend_on_the_visibility_layout(monkeypatch):
    """Each candidate's literal gain sums its column as one contiguous run
    whether the visibility matrix ``plan_gvs`` indexes is C- or F-ordered; a
    C-ordered product summed over axis 0 adds row by row and rounds
    differently."""
    grids, proxy, params, radius = gvs_inputs(0, (None, None), "literal")
    selected, gains = gvs_reference(grids, proxy, params, 25, 0, radius, "literal")
    for layout in (np.ascontiguousarray, np.asfortranarray):
        monkeypatch.setattr(
            baselines, "visibility_matrix", lambda *a, **k: layout(visibility_matrix(*a, **k))
        )
        _, info = plan_gvs(
            grids, proxy, params, 25, seed=0, neighbor_radius=radius, gain_mode="literal"
        )
        assert info["selected"] == selected
        assert np.array(info["gains"]).tobytes() == np.array(gains).tobytes()


@functools.cache
def _scaled_baselines(s):
    """Uniform and GVS plans for the inputs ``viewplan compare`` gives them on
    boxfield-12, seed 0, with the scene, d and the GVS radius scaled by s and
    q* by 1/s^2; returns the uniform and GVS positions and the GVS selection."""
    config = cli.RunConfig(scene="boxfield", extent=12.0, seed=0, d=5.0 * s, qstar=0.014 / s**2)
    params = config.quality_params()
    scene = generate_scene(config.scene_spec())
    truth = preprocess_mesh(TriangleMesh(scene.vertices * s, scene.faces), params)
    proxy = degrade_proxy(truth, NOISE_SIGMA_PER_D * params.d, config.seed)
    uniform = plan_uniform_grid(truth.bounds(), 30, params.d, proxy=proxy)
    gvs, info = plan_gvs(
        cli._gvs_pool(proxy, params, config), proxy, params, 30, seed=config.seed,
        neighbor_radius=config.gvs_radius * s,
    )
    return uniform.positions, gvs.positions, info["selected"]


@pytest.mark.parametrize("s", [2.0**-30, 2.0**-29, 2.0**-24, 2.0**-22, 2.0**-21, 2.0**-20,
                               2.0**-17, 2.0**-10, 2.0**-6, 2.0**-2, 2.0**10, 2.0**20],
                         ids=lambda s: f"s=2^{math.log2(s):.0f}")
def test_uniform_and_gvs_are_scale_equivariant(s):
    # s is a power of two, so the scaled plans must match bit for bit
    uniform, gvs, selected = _scaled_baselines(1.0)
    uniform_s, gvs_s, selected_s = _scaled_baselines(s)
    assert uniform_s.tobytes() == (s * uniform).tobytes()
    assert selected_s == selected
    assert gvs_s.tobytes() == (s * gvs).tobytes()
