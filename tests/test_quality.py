import functools
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from viewplan import quality
from viewplan.mesh import SceneSpec, TriangleMesh, generate_scene
from viewplan.planner import preprocess_mesh, run_pipeline
from viewplan.quality import (
    STATUS_FAIL_COUNT,
    STATUS_INFEASIBLE,
    STATUS_PASS,
    CoverageReport,
    QualityParams,
    evaluate_coverage,
    face_quality,
    is_visible,
    pair_quality,
    unit_directions,
    visibility_matrix,
    visible_set,
)
from viewplan.tours import Trajectory

from conftest import (
    flat_patch,
    grid_views,
    pair_quality_reference,
    poses,
    visibility_matrix_reference,
)


def face_at_origin():
    """Flat patch face whose centroid we move to the origin for convenience."""
    m = flat_patch(2.0)
    f = 0
    return m, f, m.centroids[f]


class TestParams:
    def test_epsilon_default_is_admissible_max(self):
        p = QualityParams(d=5.0)
        assert p.epsilon_d == pytest.approx((math.sqrt(2) - 1) * 5.0 / 2.0)

    def test_epsilon_above_limit_rejected(self):
        with pytest.raises(ValueError):
            QualityParams(d=5.0, epsilon_d=1.2)

    def test_t_minimum(self):
        with pytest.raises(ValueError):
            QualityParams(t=1)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"r": 0.0}, "got 0"),
            ({"r": -1.0}, "got -1"),
            ({"r": math.nan}, "got nan"),
            ({"r": 5.5}, "got 5.5"),
            ({"epsilon_d": 0.0}, "got 0, the default at eps_d = 0"),
        ],
    )
    def test_resolution_out_of_range_rejected(self, kwargs, message):
        expected = f"r must be positive and at most d = 5, {message}"
        with pytest.raises(ValueError, match=re.escape(expected)):
            QualityParams(d=5.0, **kwargs)

    def test_resolution_defaults_to_three_in_band_lattice_views(self):
        p = QualityParams(d=5.0)
        lateral = math.sqrt((p.d + p.epsilon_d) ** 2 - p.d**2)
        assert p.r == min(p.d, 0.6 * lateral)
        assert p.r == pytest.approx(2.03, abs=0.005)
        assert QualityParams(d=5.0, r=5.0).r == 5.0  # d itself is allowed

    def test_band(self):
        p = QualityParams(d=5.0, epsilon_d=1.0)
        assert p.band == (4.0, 6.0)

    def test_pair_angle_clamps_accept_closed_range(self):
        # out-of-range and crossed clamps are rejected in test_cli
        p = QualityParams(min_pair_angle=0.0, max_pair_angle=math.pi)
        assert (p.min_pair_angle, p.max_pair_angle) == (0.0, math.pi)
        p = QualityParams(min_pair_angle=1.0, max_pair_angle=1.0)
        assert (p.min_pair_angle, p.max_pair_angle) == (1.0, 1.0)


_component = st.floats(-1e6, 1e6)


class TestUnitDirections:
    @settings(max_examples=200)
    @given(arrays(np.float64, st.tuples(st.integers(1, 20), st.just(3)), elements=_component))
    def test_matches_per_row_norm_bit_for_bit(self, d):
        d = d[np.linalg.norm(d, axis=1) > 1e-9]
        expect = np.array([v / np.linalg.norm(v) for v in d]).reshape(-1, 3)
        got = unit_directions(d)
        assert got.tobytes() == expect.tobytes()
        # rows that are already unit take the same path
        again = np.array([v / np.linalg.norm(v) for v in got]).reshape(-1, 3)
        assert unit_directions(got).tobytes() == again.tobytes()

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            unit_directions([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="non-zero"):
            poses([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])


class TestIsVisible:
    def test_straight_above_visible(self, params):
        m, f, c = face_at_origin()
        v = poses(c + [0, 0, params.d], [0, 0, -1])
        assert is_visible(f, v, m, params) is True

    def test_distance_band_violation(self, params):
        m, f, c = face_at_origin()
        v = poses(c + [0, 0, params.d + 2 * params.epsilon_d], [0, 0, -1])
        assert is_visible(f, v, m, params) is False

    def test_behind_face_invisible(self, params):
        m, f, c = face_at_origin()
        v = poses(c - [0, 0, params.d], [0, 0, 1.0])
        assert is_visible(f, v, m, params) is False

    def test_outside_frustum_invisible(self, params):
        m, f, c = face_at_origin()
        # in band, in front, but looking away sideways
        v = poses(c + [0, 0, params.d], [1, 0, 0])
        assert is_visible(f, v, m, params) is False

    @pytest.mark.parametrize("n", [0, 2])
    def test_other_than_one_pose_rejected(self, params, n):
        # a longer trajectory would otherwise answer for its first pose alone
        m, f, c = face_at_origin()
        views = poses([c + [0, 0, params.d]] * n, [0, 0, -1])
        with pytest.raises(ValueError, match=f"one-pose trajectory, got {n} poses"):
            is_visible(f, views, m, params)


@st.composite
def posed_faces(draw):
    """A face of a small scene and views around it: random poses, and poses
    straight above a terrain face at exactly d - eps_d and d + eps_d, or one
    ulp inside or outside them."""
    params = QualityParams(d=draw(st.sampled_from([5.0, 3.0, 0.75])))
    kind = draw(st.sampled_from(["flat", "boxfield"]))
    mesh = generate_scene(SceneSpec(kind, 8.0, obstacles=2, seed=draw(st.integers(0, 3))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = draw(st.integers(0, mesh.num_faces - 1))
    c = mesh.centroids[f]
    lo, hi = params.band
    pos, dirs = [], []
    for edge in (lo, hi):
        for toward in (-np.inf, None, np.inf):
            h = edge if toward is None else np.nextafter(edge, toward)
            pos.append(c + [0.0, 0.0, h])
            dirs.append([0.0, 0.0, -1.0])
    for _ in range(draw(st.integers(0, 8))):
        out = rng.normal(size=3)
        pos.append(c + out / np.linalg.norm(out) * rng.uniform(0.8 * lo, 1.2 * hi))
        dirs.append(c - pos[-1] + rng.normal(scale=draw(st.sampled_from([0.0, 2.0])), size=3))
    return mesh, f, poses(pos, dirs), params


@settings(max_examples=60)
@given(posed_faces())
def test_is_visible_is_the_visibility_matrix_entry(case):
    mesh, f, views, params = case
    row = visibility_matrix(mesh, views, params, faces=[f])[0]
    one_by_one = [is_visible(f, views[i : i + 1], mesh, params) for i in range(len(views))]
    assert one_by_one == row.tolist()
    if not mesh.vertices[:, 2].any():  # flat, nothing occludes: the band is closed
        assert row[[1, 2, 3, 4]].all() and not row[[0, 5]].any()


@st.composite
def culled_views(draw):
    """Some faces of a small scene (all of them, a subset, or none) and views
    around them: poses exactly at a face centroid; poses straight above a
    centroid at d - eps_d and d + eps_d or one ulp either side of them; poses
    in front of the face, looking straight at its centroid from within three
    ulps of those distances, where the band test alone decides; and random
    poses looking near a face."""
    params = QualityParams(d=draw(st.sampled_from([5.0, 3.0, 0.75])))
    kind = draw(st.sampled_from(["flat", "boxfield"]))
    mesh = generate_scene(SceneSpec(kind, 8.0, obstacles=2, seed=draw(st.integers(0, 3))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([None, 0, 1, 17]))
    faces = None if n is None else rng.choice(mesh.num_faces, size=n, replace=False)
    pool = np.arange(mesh.num_faces) if faces is None or n == 0 else faces
    lo, hi = params.band
    pos, dirs = [], []
    for f in rng.choice(pool, size=draw(st.integers(1, 3))):
        c = mesh.centroids[f]
        pos.append(c)  # zero offset to this face
        dirs.append(rng.normal(size=3))
        u = mesh.normals[f] + 0.5 * rng.normal(size=3)
        u /= np.linalg.norm(u)
        for edge in (lo, hi):
            for toward in (-np.inf, None, np.inf):
                pos.append(c + [0.0, 0.0, edge if toward is None else np.nextafter(edge, toward)])
                dirs.append([0.0, 0.0, -1.0])
            for k in range(-3, 4):
                pos.append(c + u * (edge + k * np.spacing(edge)))
                dirs.append(-u)
    for f in rng.choice(pool, size=draw(st.integers(0, 8))):
        out = rng.normal(size=3)
        pos.append(mesh.centroids[f] + out / np.linalg.norm(out) * rng.uniform(0.8 * lo, 1.2 * hi))
        dirs.append(mesh.centroids[f] - pos[-1] + rng.normal(scale=2.0, size=3))
    return mesh, faces, poses(pos, dirs), params


@settings(max_examples=80)
@given(culled_views(), st.sampled_from([1, 7, 64, quality._CULL_ENTRIES]))
def test_blocked_cull_equals_the_reference(case, entries):
    """Blocks of at most ``entries`` (faces x views) entries, down to one
    face a block: the same booleans as the whole-offset reference, in one
    C-ordered matrix, from at most one ray-cast call."""
    mesh, faces, views, params = case
    expect = visibility_matrix_reference(mesh, views, params, faces=faces)
    cast = mock.patch.object(
        TriangleMesh, "occluded_many", autospec=True, side_effect=TriangleMesh.occluded_many
    )
    with mock.patch.object(quality, "_CULL_ENTRIES", entries), cast as occluded_many:
        got = visibility_matrix(mesh, views, params, faces=faces)
    assert got.dtype == bool and got.flags.c_contiguous
    assert np.array_equal(got, expect)
    assert occluded_many.call_count <= 1
    # the cull's distances, a component at a time, are the reference's bits
    c = mesh.centroids if faces is None else mesh.centroids[faces]
    offset = views.positions[None, :, :] - c[:, None, :]
    ox, oy, oz = np.moveaxis(offset, -1, 0)
    dist = np.sqrt((ox * ox + oy * oy) + oz * oz)
    assert dist.tobytes() == np.linalg.norm(offset, axis=-1).tobytes()


class TestVisibleSet:
    def test_empty_trajectory(self, params):
        m, f, _ = face_at_origin()
        assert visible_set(f, Trajectory([], []), m, params) == set()

    def test_three_views_above(self, params):
        m, f, c = face_at_origin()
        views = poses([c + [dx, 0, params.d] for dx in (-0.5, 0.0, 0.5)], [0, 0, -1])
        assert visible_set(f, views, m, params) == {0, 1, 2}

    def test_matrix_matches_per_pair_predicate(self, params):
        mesh = generate_scene(SceneSpec("boxfield", 10.0, obstacles=2, seed=5))
        rng = np.random.default_rng(8)
        lo, hi = mesh.bounds()
        pos, dirs = [], []
        for _ in range(20):
            pos.append(lo + rng.random(3) * (hi - lo) + [0, 0, 3.0])
            dirs.append(rng.normal(size=3))
        views = poses(pos, dirs)
        mat = visibility_matrix(mesh, views, params)
        for f in range(0, mesh.num_faces, 17):
            expect = {i for i in range(len(views)) if is_visible(f, views[i : i + 1], mesh, params)}
            assert set(np.nonzero(mat[f])[0]) == expect


class TestPairQuality:
    def test_right_angle_pair(self, params):
        c = np.zeros((1, 3))
        pos = np.array([[5.0, 0, 0], [0, 5.0, 0]])
        theta, q, pair = pair_quality(c, pos, [[True, True]], params)
        assert theta[0] == pytest.approx(math.pi / 2)
        assert q[0] == pytest.approx(1 / 25)
        assert pair.tolist() == [[0, 1]]

    def test_worked_threshold_value(self, params):
        # two views 45 degrees apart, both at distance sqrt(2) * 5
        ell = math.sqrt(2) * 5.0
        a = math.radians(22.5)
        pos = np.array(
            [
                [ell * math.sin(a), 0.0, ell * math.cos(a)],
                [-ell * math.sin(a), 0.0, ell * math.cos(a)],
            ]
        )
        theta, q, _ = pair_quality(np.zeros((1, 3)), pos, [[True, True]], params)
        assert theta[0] == pytest.approx(math.radians(45.0))
        assert q[0] == pytest.approx(0.01414, abs=1e-4)

    def test_fewer_than_two_views(self, params):
        theta, q, pair = pair_quality(np.zeros((1, 3)), np.array([[1.0, 0, 0]]), [[True]], params)
        assert (theta.tolist(), q.tolist(), pair.tolist()) == ([0.0], [0.0], [[-1, -1]])

    def test_equidistant_sweep_maximised_at_right_angle(self, params):
        ell = 4.0
        qs = []
        for theta in np.linspace(0.05, math.pi - 0.05, 181):
            pos = np.array(
                [
                    [ell * math.sin(theta / 2), 0, ell * math.cos(theta / 2)],
                    [-ell * math.sin(theta / 2), 0, ell * math.cos(theta / 2)],
                ]
            )
            _, q, _ = pair_quality(np.zeros((1, 3)), pos, [[True, True]], params)
            qs.append(q[0])
            assert q[0] == pytest.approx(math.sin(theta) / ell**2)
        assert np.argmax(qs) == 90  # theta = pi/2

    def test_angle_clamps_filter_pairs(self):
        p = QualityParams(min_pair_angle=math.radians(5), max_pair_angle=math.radians(20))
        c = np.zeros((1, 3))
        wide = np.array([[5.0, 0, 0.1], [-5.0, 0, 0.1]])  # ~180 degrees, ineligible
        theta, q, pair = pair_quality(c, wide, [[True, True]], p)
        assert pair.tolist() == [[-1, -1]] and q[0] == 0.0

    def test_view_at_its_point_is_never_paired(self, params):
        # its offset has no direction: its angles are NaN, never eligible,
        # extended or from scratch; the 0 / 0 stays inside pair_quality, so a
        # library caller sees no RuntimeWarning
        pos = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 4.0], [-3.0, 0.0, 4.0]])
        with np.errstate(invalid="ignore"):
            ref = pair_quality_reference(np.zeros(3), pos, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scratch = pair_quality(np.zeros((1, 3)), pos, [[True] * 3], params)
            first = pair_quality(np.zeros((1, 3)), pos[:2], [[True] * 2], params)
            extended = pair_quality(np.zeros((1, 3)), pos, [[True] * 3], params, k=2, previous=first)
        assert first[2].tolist() == [[-1, -1]]
        for theta, q, pair in (scratch, extended):
            assert pair.tolist() == [[1, 2]]
            assert (theta.tobytes(), q.tobytes()) == (np.float64(ref[0]).tobytes(), np.float64(ref[1]).tobytes())
        assert ref[2] == (1, 2)


@st.composite
def view_stacks(draw):
    """g points with m views each: normal draws or small integer lattices
    (exact angle ties), some views repeated so that equal pairs compete for
    the argmax, and the angle clamps off, one-sided or both."""
    g, m = draw(st.integers(1, 40)), draw(st.integers(2, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centroids = rng.normal(scale=draw(st.sampled_from([1.0, 50.0])), size=(g, 3))
    if draw(st.booleans()):
        offs = rng.integers(-3, 4, size=(g, m, 3)).astype(np.float64)
        offs[..., 2] = np.abs(offs[..., 2]) + 1.0  # never at the centroid
    else:
        offs = rng.normal(size=(g, m, 3)) * rng.uniform(2.0, 8.0, size=(g, m, 1))
    repeats = draw(st.integers(0, m - 1))
    src, dst = rng.integers(m, size=repeats), rng.integers(m, size=repeats)
    offs[:, dst] = offs[:, src]
    lo = draw(st.one_of(st.none(), st.floats(0.0, math.pi)))
    hi = draw(st.one_of(st.none(), st.floats(0.0, math.pi)))
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    params = QualityParams(min_pair_angle=lo, max_pair_angle=hi)
    return centroids, centroids[:, None, :] + offs, params


def block_diagonal(counts):
    """The (g, counts.sum()) mask of g points whose views are consecutive
    runs of ``counts[f]`` columns each, point 0's first."""
    end = np.cumsum(counts)
    col = np.arange(end[-1] if len(end) else 0)
    return (col >= (end - counts)[:, None]) & (col < end[:, None])


def rows_reference(centroids, positions, mask, params):
    """``pair_quality_reference`` of each row over its true columns in
    ascending order, local pair indices mapped to columns."""
    n = len(mask)
    theta, q, pair = np.zeros(n), np.zeros(n), np.full((n, 2), -1, dtype=np.int64)
    for f in range(n):
        cols = np.nonzero(mask[f])[0]
        theta[f], q[f], local = pair_quality_reference(centroids[f], positions[cols], params)
        if local is not None:
            pair[f] = cols[list(local)]
    return theta, q, pair


def assert_rows_match_reference(centroids, positions, mask, params, *, alone=True):
    """Each row's ``(theta, q, pair)`` carries the bits of ``rows_reference``
    and, with ``alone``, the bits of ``pair_quality`` called on that row
    alone."""
    got = pair_quality(centroids, positions, mask, params)
    ref = rows_reference(centroids, positions, mask, params)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    if not alone:
        return
    for f in range(len(mask)):
        # a point's bits do not depend on the other points of the call
        one = pair_quality(centroids[f : f + 1], positions, mask[f : f + 1], params)
        assert [x.tobytes() for x in one] == [x[f : f + 1].tobytes() for x in got]


@settings(max_examples=150)
@given(view_stacks())
def test_stacked_pair_quality_bit_equal_to_per_face_reference(stack):
    centroids, positions, params = stack
    g, m = positions.shape[:2]
    assert_rows_match_reference(centroids, positions.reshape(-1, 3), block_diagonal(np.full(g, m)), params)


@settings(max_examples=100)
@given(view_stacks(), st.data())
def test_ragged_pair_quality_bit_equal_to_per_face_reference(stack, data):
    """Points with 0 to m views each, in any order of their counts."""
    centroids, positions, params = stack
    g, m = positions.shape[:2]
    counts = np.array(data.draw(st.lists(st.integers(0, m), min_size=g, max_size=g)))
    flat = np.concatenate([positions[f, :k] for f, k in enumerate(counts.tolist())])
    assert_rows_match_reference(centroids, flat, block_diagonal(counts), params)


@st.composite
def scored_masks(draw):
    """Rows with 0, 1 or many of m views, at normal or small-lattice positions
    with some repeated (argmax ties), the angle clamps off, one-sided or both."""
    n, m = draw(st.integers(0, 40)), draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centroids = rng.normal(scale=draw(st.sampled_from([1.0, 50.0])), size=(n, 3))
    anchor = rng.normal(scale=5.0, size=3)
    if draw(st.booleans()):
        positions = anchor + rng.integers(-3, 4, size=(m, 3))
    else:
        positions = anchor + rng.normal(scale=6.0, size=(m, 3))
    if m:
        repeats = draw(st.integers(0, m))
        positions[rng.integers(m, size=repeats)] = positions[rng.integers(m, size=repeats)]
    density = rng.uniform(0.0, 1.0, size=(n, 1))
    mask = rng.random((n, m)) < density
    mask[rng.random(n) < 0.2] = False  # some rows see nothing
    if m:
        single = np.nonzero(rng.random(n) < 0.2)[0]  # and some see one view
        mask[single] = False
        mask[single, rng.integers(m, size=len(single))] = True
    lo = draw(st.one_of(st.none(), st.floats(0.0, math.pi)))
    hi = draw(st.one_of(st.none(), st.floats(0.0, math.pi)))
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return centroids, positions, mask, QualityParams(min_pair_angle=lo, max_pair_angle=hi)


@settings(max_examples=200)
@given(scored_masks())
def test_pair_quality_bit_equal_to_the_grouping_loop(case):
    assert_rows_match_reference(*case, alone=False)


@settings(max_examples=100)
@given(scored_masks())
def test_pair_quality_bit_equal_with_rows_split_across_blocks(case):
    """Chunks of about 20 new pairs: rows split across chunks, and a row with
    seven or more views (21 or more pairs) is a chunk of its own."""
    with mock.patch.object(quality, "_BLOCK_ENTRIES", 20):
        assert_rows_match_reference(*case, alone=False)


@settings(max_examples=60)
@given(scored_masks(), st.data())
def test_extending_scores_is_scoring_from_scratch(case, data):
    """Scoring the first k columns and then extending to all of them gives
    the bytes of scoring every column at once, and each row's bytes are
    ``pair_quality_reference``'s over its views: k from 0 to every column,
    the clamps on and off, repeated positions (equal angles, so the old and
    new pairs tie), rows of 0, 1, 2 or more views, and chunks small enough
    to split the rows."""
    centroids, positions, mask, params = case
    m = mask.shape[1]
    k = data.draw(st.sampled_from(sorted({0, m, m // 2})) | st.integers(0, m), label="k")
    if len(mask) and m:
        pairs = np.nonzero(data.draw(st.lists(st.booleans(), min_size=len(mask), max_size=len(mask))))[0]
        mask[pairs] = False  # some rows see exactly two views, one old and one new when k splits them
        mask[pairs, 0] = True
        mask[pairs, m - 1] = True
    entries = data.draw(st.sampled_from([quality._BLOCK_ENTRIES, 5]), label="chunk")
    with mock.patch.object(quality, "_BLOCK_ENTRIES", entries):
        first = pair_quality(centroids, positions, mask[:, :k], params)
        extended = pair_quality(centroids, positions, mask, params, k=k, previous=first)
        scratch = pair_quality(centroids, positions, mask, params)
    ref = rows_reference(centroids, positions, mask, params)
    for a, b, c in zip(extended, scratch, ref):
        assert a.dtype == b.dtype == c.dtype and a.shape == b.shape == c.shape
        assert a.tobytes() == b.tobytes() == c.tobytes()


def test_incremental_arguments_are_checked(params):
    c, pos, mask = np.zeros((1, 3)), np.eye(3), np.ones((1, 3), dtype=bool)
    before = pair_quality(c, pos[:1], mask[:, :1], params)
    with pytest.raises(ValueError, match="previous scores"):
        pair_quality(c, pos, mask, params, k=1)
    with pytest.raises(ValueError, match="outside"):
        pair_quality(c, pos, mask, params, k=4, previous=before)


class TestFaceQuality:
    def test_six_views_match_exhaustive_pairs(self, params):
        mesh = flat_patch(4.0)
        f = 7
        c = mesh.centroids[f]
        rng = np.random.default_rng(4)
        offsets = []
        for _ in range(6):
            ang = rng.uniform(0, 2 * math.pi)
            tilt = rng.uniform(0.1, 0.9)
            offset = np.array([math.cos(ang) * tilt, math.sin(ang) * tilt, 1.0])
            offsets.append(offset / np.linalg.norm(offset) * rng.uniform(*params.band))
        views = poses(c + np.array(offsets), -np.array(offsets))
        kappa = sorted(visible_set(f, views, mesh, params))
        assert len(kappa) == 6

        best = (0.0, 0.0, None)
        for i in range(6):
            for j in range(i + 1, 6):
                a = views.positions[i] - c
                b = views.positions[j] - c
                cosang = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
                ang = math.acos(max(-1.0, min(1.0, cosang)))
                if ang > best[0]:
                    q = math.sin(ang) / (np.linalg.norm(a) * np.linalg.norm(b))
                    best = (ang, q, (i, j))
        theta, q, pair = face_quality(f, views, mesh, params)
        assert theta == pytest.approx(best[0], abs=1e-12)
        assert q == pytest.approx(best[1], abs=1e-12)
        assert pair == best[2]

    def test_single_view_zero(self, params):
        mesh, f, c = face_at_origin()
        views = poses(c + [0, 0, 5.0], [0, 0, -1])
        assert face_quality(f, views, mesh, params) == (0.0, 0.0, None)


class TestEvaluateCoverage:
    def test_dense_grid_saturates_flat_scene(self):
        params = QualityParams(t=2)
        mesh = flat_patch(10.0)
        traj = grid_views(10.0, params.d)
        report = evaluate_coverage(mesh, traj, params)
        assert report.pass_fraction == 1.0
        assert (report.status == STATUS_PASS).all()

    def test_empty_trajectory_all_fail_count(self, params):
        mesh = flat_patch(6.0)
        report = evaluate_coverage(mesh, Trajectory([], []), params)
        assert (report.status == STATUS_FAIL_COUNT).all()
        assert (report.q == 0).all()
        assert (report.counts == 0).all()

    def test_single_view_all_fail_count(self, params):
        mesh = flat_patch(6.0)
        c = mesh.centroids[3]
        report = evaluate_coverage(mesh, poses(c + [0, 0, 5.0], [0, 0, -1]), params)
        assert (report.counts <= 1).all()
        assert (report.status == STATUS_FAIL_COUNT).all()

    def test_status_function_is_count_and_quality(self):
        params = QualityParams(t=2)
        mesh = flat_patch(10.0)
        traj = grid_views(10.0, params.d, spacing=2.0)
        report = evaluate_coverage(mesh, traj, params)
        expect_pass = (report.counts >= params.t) & (report.q >= params.q_star)
        assert np.array_equal(report.pass_mask, expect_pass)

    def test_infeasible_marking(self, params):
        mesh = flat_patch(6.0)
        report = evaluate_coverage(mesh, Trajectory([], []), params, infeasible={0, 4})
        assert report.status[0] == STATUS_INFEASIBLE
        assert report.status[4] == STATUS_INFEASIBLE
        assert report.status[1] == STATUS_FAIL_COUNT

    def test_csv_and_summary(self, tmp_path, params):
        mesh = flat_patch(4.0)
        traj = grid_views(4.0, params.d, spacing=2.0)
        report = evaluate_coverage(mesh, traj, params)
        out = tmp_path / "cov.csv"
        report.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == mesh.num_faces + 1
        assert lines[0].startswith("face,visible_views,theta_rad,q,")
        s = report.summary()
        assert 0.0 <= s["pass_fraction"] <= 1.0
        assert sum(s["count_histogram"].values()) == mesh.num_faces
        assert set(s["status_totals"]) == {"pass", "fail-count", "fail-quality", "infeasible"}

    @pytest.mark.parametrize("kind,seed", [("canyon", 2), ("boxfield", 1)])
    def test_translation_by_a_million_metres_keeps_coverage(self, kind, seed, params):
        mesh = generate_scene(SceneSpec(kind, 14.0, seed=seed))
        rng = np.random.default_rng(seed)
        faces = rng.integers(mesh.num_faces, size=300)
        # in-band poses in front of random faces, aimed at their centroids
        out = mesh.normals[faces] + rng.normal(scale=0.5, size=(300, 3))
        out /= np.linalg.norm(out, axis=1, keepdims=True)
        out *= np.sign((out * mesh.normals[faces]).sum(axis=1))[:, None]
        lo, hi = params.band
        pos = mesh.centroids[faces] + rng.uniform(lo, hi, size=(300, 1)) * out
        traj = Trajectory(pos, unit_directions(-out))
        shift = np.array([1e6, -1e6, 1e6])
        moved = mesh.with_vertices(mesh.vertices + shift)
        here = evaluate_coverage(mesh, traj, params)
        there = evaluate_coverage(moved, Trajectory(pos + shift, traj.directions), params)
        assert here.counts.sum() > 0
        assert np.array_equal(here.counts, there.counts)
        assert np.array_equal(here.status, there.status)


@functools.cache
def flown_scene(kind: str):
    """A preprocessed scene and the views of every visit run_pipeline flew over it."""
    params = QualityParams()
    scene = generate_scene(SceneSpec(kind, 10.0, obstacles=2, seed=1))
    states = run_pipeline(scene, params, seed=1)
    return preprocess_mesh(scene, params), Trajectory.concat([s.trajectory for s in states])


REPORT_FIELDS = ("counts", "theta", "q", "pair", "status", "visible")


@pytest.mark.parametrize("kind", ["flat", "canyon", "boxfield"])
@settings(max_examples=10)
@given(
    cuts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    clamps=st.sampled_from([(None, None), (0.35, 1.2), (None, 0.3)]),
)
def test_incremental_coverage_equals_from_scratch(kind, cuts, clamps):
    mesh, traj = flown_scene(kind)
    params = QualityParams(min_pair_angle=clamps[0], max_pair_angle=clamps[1])
    infeasible = set(range(0, mesh.num_faces, 7))
    report = None
    for end in sorted(int(round(c * len(traj))) for c in cuts) + [len(traj)]:
        report = evaluate_coverage(mesh, traj[:end], params, infeasible=infeasible, previous=report)
        scratch = evaluate_coverage(mesh, traj[:end], params, infeasible=infeasible)
        for name in REPORT_FIELDS:
            a, b = getattr(report, name), getattr(scratch, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
    assert report.counts.max() >= 2
    # and the grouped scoring gives each face what the per-face loop gave it
    pos = traj.positions
    for f in np.nonzero(report.counts >= 2)[0]:
        kappa = np.nonzero(report.visible[f])[0]
        theta, q, pair = pair_quality_reference(mesh.centroids[f], pos[kappa], params)
        assert (report.theta[f], report.q[f]) == (theta, q)
        expect = (-1, -1) if pair is None else (kappa[pair[0]], kappa[pair[1]])
        assert tuple(report.pair[f]) == expect


class TestPreviousReport:
    def test_other_face_count_raises(self, params):
        mesh = flat_patch(4.0)
        traj = grid_views(4.0, params.d, spacing=2.0)
        other = evaluate_coverage(flat_patch(6.0), traj, params)
        with pytest.raises(ValueError, match="faces"):
            evaluate_coverage(mesh, traj, params, previous=other)

    def test_more_views_than_the_trajectory_raises(self, params):
        mesh = flat_patch(4.0)
        traj = grid_views(4.0, params.d, spacing=2.0)
        report = evaluate_coverage(mesh, traj, params)
        with pytest.raises(ValueError, match="views"):
            evaluate_coverage(mesh, traj[:-1], params, previous=report)

    def test_report_without_visibility_raises(self, params):
        mesh = flat_patch(4.0)
        n = mesh.num_faces
        bare = CoverageReport(
            np.zeros(n, dtype=np.int64), np.zeros(n), np.zeros(n), np.full((n, 2), -1),
            np.full(n, STATUS_FAIL_COUNT),
        )
        with pytest.raises(ValueError, match="visibility"):
            evaluate_coverage(mesh, grid_views(4.0, params.d), params, previous=bare)


class TestMonotonicity:
    def test_kappa_and_theta_monotone_under_added_views(self, params):
        mesh = flat_patch(8.0)
        rng = np.random.default_rng(12)
        pts = []
        for _ in range(14):
            x, y = rng.uniform(1, 7, size=2)
            z = rng.uniform(*params.band) * rng.uniform(0.8, 1.0)
            pts.append([x, y, z])
        views = poses(pts, [0, 0, -1])
        small = views[:7]
        for f in range(0, mesh.num_faces, 11):
            k1 = visible_set(f, small, mesh, params)
            k2 = visible_set(f, views, mesh, params)
            assert k1 <= k2
            t1, q1, p1 = face_quality(f, small, mesh, params)
            t2, q2, p2 = face_quality(f, views, mesh, params)
            assert t2 >= t1 - 1e-12
            if p1 == p2:
                # quality is pinned to the widest pair: it moves only when
                # that pair changes (and can then move either way)
                assert q2 == pytest.approx(q1, abs=1e-12)

    def test_removing_argmax_pair_never_raises_quality(self, params):
        mesh = flat_patch(8.0)
        rng = np.random.default_rng(5)
        pts = []
        for _ in range(8):
            x, y = rng.uniform(2, 6, size=2)
            z = rng.uniform(*params.band) * rng.uniform(0.85, 1.0)
            pts.append([x, y, z])
        views = poses(pts, [0, 0, -1])
        for f in range(0, mesh.num_faces, 13):
            theta, q, pair = face_quality(f, views, mesh, params)
            if pair is None:
                continue
            reduced = views[[i for i in range(len(views)) if i not in pair]]
            t2, _, pair2 = face_quality(f, reduced, mesh, params)
            # the widest angle cannot grow, and the winning pair must change
            # (indices shift after removal, so compare via the angle)
            assert t2 <= theta + 1e-12
            if pair2 is not None:
                assert t2 < theta + 1e-12
