import functools
import math
import re

import numpy as np
import pytest

from viewplan import planner
from viewplan.baselines import plan_zigzag
from viewplan.mesh import SceneSpec, TriangleMesh, generate_scene
from viewplan.planner import (
    identify_low_quality,
    infeasible_faces,
    plan_visit,
    preprocess_mesh,
    run_pipeline,
)
from viewplan.quality import (
    STATUS_FAIL_COUNT,
    STATUS_FAIL_QUALITY,
    STATUS_INFEASIBLE,
    STATUS_PASS,
    CoverageReport,
    QualityParams,
)
from viewplan.rectangles import build_avr, orthonormal_frames
from viewplan.tours import plan_rectangles

from conftest import flat_patch, segments_hit_any


def report_with_statuses(statuses):
    n = len(statuses)
    return CoverageReport(
        counts=np.zeros(n, dtype=np.int64),
        theta=np.zeros(n),
        q=np.zeros(n),
        pair=np.full((n, 2), -1),
        status=np.array(statuses, dtype="<U12"),
        visible=np.zeros((n, 0), dtype=bool),
    )


class TestIdentifyLowQuality:
    def test_all_pass_empty(self):
        rep = report_with_statuses([STATUS_PASS] * 6)
        assert identify_low_quality(rep).size == 0

    def test_set_arithmetic(self):
        statuses = (
            [STATUS_FAIL_COUNT] * 10 + [STATUS_FAIL_QUALITY] * 5 + [STATUS_INFEASIBLE] * 2
        )
        rep = report_with_statuses(statuses)
        assert len(identify_low_quality(rep)) == 15

    def test_infeasible_excluded(self):
        rep = report_with_statuses([STATUS_INFEASIBLE, STATUS_FAIL_COUNT, STATUS_PASS])
        assert identify_low_quality(rep).tolist() == [1]


class TestInfeasibleProbe:
    def test_open_terrain_all_feasible(self, params):
        m = flat_patch(8.0)
        assert infeasible_faces(m, params) == set()

    def test_faces_under_box_infeasible(self, params):
        truth = preprocess_mesh(
            generate_scene(SceneSpec("boxfield", 12.0, obstacles=2, seed=1)), params
        )
        inf = infeasible_faces(truth, params)
        assert len(inf) == 48  # recorded for this scene/seed
        under = [
            f
            for f in inf
            if truth.normals[f][2] > 0.9 and truth.centroids[f][2] < 0.01
        ]
        assert len(under) > 0  # occluded terrain strips under the boxes

    @pytest.mark.parametrize(
        "kind,obstacles,seed,count",
        [("boxfield", 3, 0, 61), ("canyon", 3, 0, 0), ("boxfield", 2, 1, 48)],
    )
    def test_rounds_equal_a_brute_force_probe(self, params, kind, obstacles, seed, count):
        # every face's 64 positions cast at once through the brute-force
        # oracle: a face is infeasible iff all of them are blocked, whatever
        # rounds the probe casts them in
        extent = 12.0 if kind == "boxfield" else 14.0
        truth = preprocess_mesh(generate_scene(SceneSpec(kind, extent, obstacles, seed)), params)
        dirs = planner._hemisphere_directions(planner.PROBE_DIRECTIONS)
        u, v = orthonormal_frames(truth.normals)
        world = (
            dirs[None, :, 0, None] * u[:, None, :]
            + dirs[None, :, 1, None] * v[:, None, :]
            + dirs[None, :, 2, None] * truth.normals[:, None, :]
        )
        origins = (truth.centroids[:, None, :] + params.d * world).reshape(-1, 3)
        targets = np.repeat(truth.centroids, len(dirs), axis=0)
        blocked = segments_hit_any(truth.triangles(), origins, targets).reshape(-1, len(dirs))
        brute = set(np.flatnonzero(blocked.all(axis=1)).tolist())
        assert infeasible_faces(truth, params) == brute
        assert len(brute) == count

    def test_cached_per_distance_and_copied_per_call(self, params):
        # one mesh probed at two distances gives each the answer of a fresh
        # mesh, and a caller that edits its set does not edit the next one's
        spec = SceneSpec("boxfield", 12.0, obstacles=2, seed=1)
        truth = preprocess_mesh(generate_scene(spec), params)
        for d in (params.d, 2.0 * params.d, params.d):
            at_d = QualityParams(d=d)
            want = infeasible_faces(TriangleMesh(truth.vertices, truth.faces), at_d)
            got = infeasible_faces(truth, at_d)
            assert got == want
            got.clear()
            assert infeasible_faces(truth, at_d) == want
        assert infeasible_faces(truth, params) != infeasible_faces(truth, QualityParams(d=10.0))


class TestPlanVisit:
    def test_full_face_set_equals_direct_plan(self, params):
        proxy = flat_patch(12.0)
        vp = plan_visit(np.arange(proxy.num_faces), proxy, params, k=2, seed=5, budget=300)
        pairs = build_avr(proxy, params, k=2, seed=5)
        direct = plan_rectangles([rc for rc, _ in pairs], params.r, params.d, budget=300)
        assert np.array_equal(vp.trajectory.positions, direct.trajectory.positions)

    def test_two_far_apart_patches_get_own_rectangles(self, params):
        proxy = flat_patch(40.0, cell=2.0)
        cx = proxy.centroids[:, 0]
        patch = np.nonzero((cx < 6.0) | (cx > 34.0))[0]
        vp = plan_visit(patch, proxy, params, seed=1, budget=300)
        rects = [g.rectangle for g in vp.plan.grids]
        assert len(rects) >= 2
        # grids hover near the patches only
        lows = proxy.centroids[patch]
        for position in vp.trajectory.positions:
            lateral = np.linalg.norm((lows - position)[:, :2], axis=1)
            assert lateral.min() <= 2.0 * params.d

    def test_small_patch_uses_fewer_views_than_full_plan(self, params):
        proxy = flat_patch(20.0)
        cx = proxy.centroids
        patch = np.nonzero(
            (np.abs(cx[:, 0] - 10.0) < 2.0) & (np.abs(cx[:, 1] - 10.0) < 2.0)
        )[0]
        assert 0 < len(patch) < 80
        small = plan_visit(patch, proxy, params, seed=0, budget=300)
        full = plan_visit(np.arange(proxy.num_faces), proxy, params, seed=0, budget=300)
        assert len(small.trajectory) < len(full.trajectory)

    def test_cluster_count_above_face_count_is_capped(self, params):
        vp = plan_visit([0, 1, 2], flat_patch(8.0), params, k=5, seed=0, budget=300)
        assert 1 <= len(vp.plan.grids) <= 3
        assert vp.plan.certificate.final_length <= vp.plan.certificate.bound_value

    def test_empty_face_set_rejected(self, params):
        with pytest.raises(ValueError):
            plan_visit(np.array([], dtype=int), flat_patch(4.0), params, seed=0)


class TestRunPipeline:
    def test_flat_scene_converges_by_second_visit(self, params):
        scene = generate_scene(SceneSpec("flat", 12.0, seed=0))
        states = run_pipeline(scene, params, max_visits=4, seed=0)
        assert states[-1].pass_fraction == 1.0
        assert states[-1].visit == 2  # nothing left for a third visit
        assert sum(s.views_added for s in states if s.visit >= 3) == 0

    def test_visit1_is_zigzag(self, params):
        scene = generate_scene(SceneSpec("flat", 10.0, seed=3))
        states = run_pipeline(scene, params, max_visits=3, seed=3)
        truth = preprocess_mesh(scene, params)
        expected = plan_zigzag(truth.bounds(), params.d)
        assert np.array_equal(states[0].trajectory.positions, expected.positions)
        assert states[0].planned_views == 0

    def test_canyon_refinement_shrinks_low_quality_set(self, params):
        scene = generate_scene(SceneSpec("canyon", 14.0, seed=2))
        states = run_pipeline(scene, params, max_visits=4, seed=2)
        lows = [len(identify_low_quality(s.report)) for s in states]
        assert lows[1] < lows[0]
        assert lows[2] < lows[1]
        fracs = [s.pass_fraction for s in states]
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))

    def test_budget_invariant_and_cumulative_bookkeeping(self, params):
        scene = generate_scene(SceneSpec("canyon", 14.0, seed=2))
        states = run_pipeline(scene, params, max_visits=4, seed=2)
        for st in states:
            assert st.planned_views <= params.budget
        total = sum(s.views_added for s in states)
        assert states[-1].cumulative_views == total

    def test_bitwise_deterministic(self, params):
        scene = generate_scene(SceneSpec("boxfield", 10.0, obstacles=1, seed=4))
        a = run_pipeline(scene, params, max_visits=3, seed=4)
        b = run_pipeline(scene, params, max_visits=3, seed=4)
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.trajectory.positions, sb.trajectory.positions)
            assert sa.pass_fraction == sb.pass_fraction
            assert np.array_equal(sa.report.counts, sb.report.counts)
            assert np.array_equal(sa.report.q, sb.report.q)

    def test_refinement_views_hover_near_low_quality_faces(self, params):
        scene = generate_scene(SceneSpec("canyon", 14.0, seed=2))
        states = run_pipeline(scene, params, max_visits=3, seed=2)
        refine = [s for s in states if s.visit == 3 and s.views_added > 0]
        assert refine, "canyon scene is expected to need a refinement visit"
        st = refine[0]
        prev = [s for s in states if s.visit == 2][0]
        truth = preprocess_mesh(scene, params)
        low = identify_low_quality(prev.report)
        low = np.setdiff1d(low, np.nonzero(prev.report.pass_mask)[0])
        targets = truth.centroids[low]
        slack = params.d + params.epsilon_d + 2.0 * params.r
        for position in st.trajectory.positions:
            dist = np.linalg.norm(targets - position, axis=1).min()
            assert dist <= slack + 2.0

    def test_budget_exhausted_visit_repeats_the_last_record(self):
        scene = generate_scene(SceneSpec("flat", 8.0, seed=0))
        states = run_pipeline(scene, QualityParams(budget=1), max_visits=3, seed=0)
        assert [s.visit for s in states] == [1, 2]
        first, spent = states
        assert spent.budget_exhausted and not first.budget_exhausted
        assert spent.views_added == 0 and len(spent.trajectory) == 0
        assert spent.planned_views == 0
        assert spent.certificate is None
        assert spent.cumulative_views == first.cumulative_views
        assert spent.pass_fraction == first.pass_fraction
        assert spent.report is first.report

    def test_scene_lifted_off_the_ground_plans_like_the_original(self, params):
        scene = generate_scene(SceneSpec("flat", 8.0, seed=0))
        lifted = scene.with_vertices(scene.vertices + [0.0, 0.0, 100.0])
        ground = run_pipeline(scene, params, max_visits=3, seed=0)
        high = run_pipeline(lifted, params, max_visits=3, seed=0)
        assert [s.pass_fraction for s in high] == [s.pass_fraction for s in ground]

    def test_max_visits_must_allow_a_planned_pass(self, params):
        with pytest.raises(ValueError):
            run_pipeline(flat_patch(4.0), params, max_visits=1, seed=0)

    @pytest.mark.parametrize(
        "r, message",
        [
            # planned a "certified" visit at r = 1e300 with overflow warnings
            (1e300, "got 1e+300"),
            # planned silently, coarser than the viewing distance
            (50.0, "got 50"),
            # numpy's "cannot convert float NaN to integer" leaked out
            (math.nan, "got nan"),
        ],
    )
    def test_resolution_out_of_range_is_refused_before_planning(self, r, message):
        scene = generate_scene(SceneSpec("flat", 8.0, seed=0))
        expected = f"r must be positive and at most d = 5, {message}"
        with pytest.raises(ValueError, match=re.escape(expected)):
            run_pipeline(scene, QualityParams(r=r), seed=0)


# ---------------------------------------------------------------------------
# scale equivariance: d is the planner's one length scale
# ---------------------------------------------------------------------------

SCALED_SCENES = {
    "flat-10": SceneSpec("flat", 10.0, seed=0),
    "canyon-14": SceneSpec("canyon", 14.0, seed=3),
    "boxfield-16": SceneSpec("boxfield", 16.0, obstacles=3, seed=2),
}
# powers of two, so that scaling is exact in binary floating point
SCALES = [2.0**-30, 2.0**-29, 2.0**-24, 2.0**-22, 2.0**-21, 2.0**-20, 2.0**-17, 2.0**-10, 2.0**-6,
          2.0**-2, 2.0**10, 2.0**20]


def _scaled_run(name, s):
    """``run_pipeline`` seed 2 on s x the scene, with d = 5 s and q* scaled by
    1/s^2 so that every length and quality threshold scales together; returns
    the views added and pass fraction of each visit, and its positions."""
    scene = generate_scene(SCALED_SCENES[name])
    mesh = TriangleMesh(scene.vertices * s, scene.faces)
    states = run_pipeline(mesh, QualityParams(d=5.0 * s, q_star=0.014 / s**2), seed=2)
    counts = [(st.views_added, st.pass_fraction) for st in states]
    return counts, [st.trajectory.positions for st in states]


@functools.cache
def _unscaled_run(name):
    return _scaled_run(name, 1.0)


@pytest.mark.parametrize("s", SCALES, ids=lambda s: f"s=2^{math.log2(s):.0f}")
@pytest.mark.parametrize("name", sorted(SCALED_SCENES))
def test_run_pipeline_is_scale_equivariant(name, s):
    (counts, positions), (counts_s, positions_s) = _unscaled_run(name), _scaled_run(name, s)
    assert counts_s == counts
    for pos, pos_s in zip(positions, positions_s):
        assert pos_s.tobytes() == (s * pos).tobytes()
