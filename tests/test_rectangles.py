import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from viewplan import planner, rectangles
from viewplan.errors import DegenerateClusterError, MergeNonTerminationError, ViewPlanError
from viewplan.mesh import SceneSpec, TriangleMesh, generate_scene
from viewplan.planner import plan_visit, preprocess_mesh
from viewplan.quality import QualityParams
from viewplan.rectangles import (
    FaceCluster,
    ViewingRectangle,
    build_avr,
    cluster_faces,
    fit_rectangle,
    merge_intersecting,
    rectangles_intersect,
)
from viewplan.tours import plan_rectangles

from conftest import axis_rect, flat_patch, wall_mesh


def cluster_from_points(points, normal=(0, 0, 1.0)):
    points = np.asarray(points, dtype=np.float64)
    n = np.asarray(normal, dtype=np.float64)
    return FaceCluster(
        indices=np.arange(len(points)),
        mean_normal=n / np.linalg.norm(n),
        points=points,
    )


class TestClusterFaces:
    def test_two_separated_groups(self):
        a = flat_patch(2.0)
        b = TriangleMesh(a.vertices + np.array([100.0, 0, 0]), a.faces)
        m = TriangleMesh(
            np.concatenate([a.vertices, b.vertices]),
            np.concatenate([a.faces, b.faces + a.num_vertices]),
        )
        clusters = cluster_faces(m, 2, seed=0)
        assert len(clusters) == 2
        sets = sorted([set(c.indices.tolist()) for c in clusters], key=min)
        assert sets[0] == set(range(a.num_faces))
        assert sets[1] == set(range(a.num_faces, m.num_faces))

    def test_k1_single_cluster_mean_normal(self):
        m = flat_patch(4.0)
        (c,) = cluster_faces(m, 1, seed=0)
        assert len(c.indices) == m.num_faces
        expect = m.normals.mean(axis=0)
        assert np.allclose(c.mean_normal, expect / np.linalg.norm(expect))

    def test_partition_property(self):
        m = generate_scene(SceneSpec("boxfield", 12.0, obstacles=2, seed=1))
        clusters = cluster_faces(m, 5, seed=3)
        seen = np.concatenate([c.indices for c in clusters])
        assert len(seen) == m.num_faces
        assert len(np.unique(seen)) == m.num_faces

    def test_sse_not_worse_than_random_restarts(self):
        m = generate_scene(SceneSpec("boxfield", 12.0, obstacles=3, seed=7))
        k = 4

        def sse(clusters):
            return sum(
                float(((c.points - c.points.mean(axis=0)) ** 2).sum()) for c in clusters
            )

        ours = sse(cluster_faces(m, k, seed=0))
        rng = np.random.default_rng(123)
        worst = -np.inf
        for _ in range(20):
            # random-restart oracle: random partition refined by one mean step
            labels = rng.integers(0, k, m.num_faces)
            total = 0.0
            for j in range(k):
                pts = m.centroids[labels == j]
                if len(pts):
                    total += float(((pts - pts.mean(axis=0)) ** 2).sum())
            worst = max(worst, total)
        assert ours <= worst

    def test_deterministic_per_seed(self):
        m = generate_scene(SceneSpec("boxfield", 10.0, obstacles=2, seed=2))
        a = cluster_faces(m, 4, seed=9)
        b = cluster_faces(m, 4, seed=9)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.indices, cb.indices)

    def test_k_bounds(self):
        m = flat_patch(2.0)
        with pytest.raises(ValueError):
            cluster_faces(m, 0, seed=0)
        with pytest.raises(ValueError):
            cluster_faces(m, m.num_faces + 1, seed=0)


def kmeans_reference(points, k, rng, iters=100, cascades=None):
    """Reference k-means: one boolean mask per cluster for the empty check
    and the mean, re-seeding from the farthest point not yet taken. A re-seed
    that takes the last member of a cluster of higher index is appended to
    ``cascades`` as (re-seeded cluster, emptied cluster) when a list is given."""
    n = len(points)
    centers = np.empty((k, 3))
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = points[int(rng.integers(n))]
            continue
        probs = d2 / total
        centers[j] = points[int(rng.choice(n, p=probs))]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))

    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(iters):
        dist = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
        new_labels = dist.argmin(axis=1)
        taken: set[int] = set()
        for j in range(k):
            if not (new_labels == j).any():
                order = np.argsort(-dist.min(axis=1), kind="stable")
                far = next(int(i) for i in order if int(i) not in taken)
                taken.add(far)
                source = int(new_labels[far])
                if cascades is not None and source > j and (new_labels == source).sum() == 1:
                    cascades.append((j, source))
                new_labels[far] = j
        for j in range(k):
            members = points[new_labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels, centers


@st.composite
def kmeans_inputs(draw):
    """Point sets with repeated points, and k up to the point count, so that
    clusters go empty and are re-seeded."""
    n = draw(st.integers(1, 60))
    grid = draw(st.sampled_from([0.5, 1.0, 37.25]))
    base = np.array(draw(st.lists(
        st.tuples(*[st.one_of(st.integers(-3, 3).map(float), st.floats(-100.0, 100.0))] * 3),
        min_size=n, max_size=n,
    ))) * grid
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=n))
    points = np.concatenate([base, base[repeats]])
    return points, draw(st.integers(1, len(points))), draw(st.integers(0, 2**16))


@settings(max_examples=300)
@given(kmeans_inputs())
def test_kmeans_bit_equal_to_reference(case):
    points, k, seed = case
    labels, centers = rectangles._kmeans(points, k, np.random.default_rng(seed))
    ref_labels, ref_centers = kmeans_reference(points, k, np.random.default_rng(seed))
    assert np.array_equal(labels, ref_labels)
    assert centers.tobytes() == ref_centers.tobytes()


@settings(max_examples=200)
@given(
    st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.5, 1e-300, 3e7]) | st.floats(0.0, 1e6), min_size=1, max_size=40)
    .filter(lambda w: sum(w) > 0),
    st.lists(st.integers(0, 39), max_size=20),
    st.integers(0, 2**32 - 1),
)
def test_seed_draw_picks_what_rng_choice_picks(weights, repeats, seed):
    """Zero weights, repeated weights (the squared distances of duplicate
    points) and tiny and large ones: the same index as ``rng.choice`` from
    the same generator state, which both leave in the same state."""
    d2 = np.array(weights)
    d2 = np.concatenate([d2, d2[[r % len(d2) for r in repeats]]])
    total = d2.sum()
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert rectangles._seed_draw(d2, total, ours) == int(theirs.choice(len(d2), p=d2 / total))
    assert ours.random() == theirs.random()


def test_kmeans_seeding_overflow_is_a_planner_error():
    """Points about 1e154 apart: their squared distances sum past the float
    range, which ``rng.choice`` met as NaN probabilities."""
    points = np.zeros((6, 3))
    points[3:, 0] = 1e154
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy warning on the way
        with pytest.raises(ViewPlanError, match="overflowed.*sum to inf"):
            rectangles._kmeans(points, 3, np.random.default_rng(0))


def test_kmeans_reseeds_a_cluster_that_an_earlier_reseed_emptied():
    """Six points on a line, four of them at 0.7, and k = 6. Seeding puts
    clusters 1 and 2 on 0.2 and 0.3 alone. Three copies of 0.7 average to
    0.6999999999999998, so in the second iteration all four copies join the
    cluster centred exactly on 0.7, and cluster 0 goes empty. With every
    distance 0 the re-seeds take points in index order: cluster 0 takes 0.2,
    the only member of cluster 1, whose re-seed then takes 0.3 from cluster 2.
    Without re-seeding the clusters so emptied, the labels end as
    [1, 3, 4, 5, 5, 5] instead of [2, 3, 4, 5, 5, 5]."""
    points = np.zeros((6, 3))
    points[:, 0] = [0.2, 0.3, 0.7, 0.7, 0.7, 0.7]
    cascades = []
    ref_labels, ref_centers = kmeans_reference(points, 6, np.random.default_rng(0), cascades=cascades)
    assert cascades[:2] == [(0, 1), (1, 2)]
    labels, centers = rectangles._kmeans(points, 6, np.random.default_rng(0))
    assert labels.tolist() == ref_labels.tolist() == [2, 3, 4, 5, 5, 5]
    assert centers.tobytes() == ref_centers.tobytes()


def suggest_cluster_count_reference(mesh, d, seed, max_k=math.inf, tried=None):
    """``suggest_cluster_count`` before one draw served the search: a fresh
    ``cluster_faces`` run per k, its tests read from the ``FaceCluster``s.
    Each k tested is appended to ``tried`` when a list is given."""
    cap = min(rectangles.MAX_CLUSTERS, max_k, mesh.num_faces)
    k = min(cap, max(rectangles.default_cluster_count(mesh, d), rectangles._normal_bucket_count(mesh)))
    for _ in range(6):
        if k >= cap:
            break
        clusters = cluster_faces(mesh, k, seed)
        if tried is not None:
            tried.append(k)
        spread = 0.0
        coherence = 1.0
        for c in clusters:
            ext = c.points.max(axis=0) - c.points.min(axis=0)
            spread = max(spread, float(np.linalg.norm(ext)))
            coherence = min(coherence, float(np.linalg.norm(mesh.normals[c.indices].mean(axis=0))))
        if spread <= 10.0 * d and coherence >= 0.85:
            return k, clusters
        k = min(cap, k * 2)
    return k, cluster_faces(mesh, k, seed)


def ridged(cells, tilt):
    """A terrain patch of ``cells`` x ``cells`` unit cells folded into ridges
    along y, its faces tilted by +-``tilt`` radians about the y axis, in turn."""
    mesh = flat_patch(float(cells))
    vertices = mesh.vertices.copy()
    vertices[:, 2] = (np.rint(vertices[:, 0]) % 2) * math.tan(tilt)
    return TriangleMesh(vertices, mesh.faces)


@st.composite
def search_cases(draw):
    """Ridged patches, whose clusters fail the coherence test until they are
    one ridge side wide, and generated scenes, each with a viewing distance,
    a cap on k and a seed."""
    if draw(st.booleans()):
        mesh = ridged(draw(st.integers(1, 12)), draw(st.floats(0.1, 0.7)))
    else:
        kind = draw(st.sampled_from(["flat", "boxfield", "canyon"]))
        extent, obstacles = draw(st.floats(6.0, 20.0)), draw(st.integers(1, 3))
        mesh = generate_scene(SceneSpec(kind, extent, obstacles, seed=draw(st.integers(0, 99))))
    d = draw(st.sampled_from([0.5, 1.0, 2.0, 5.0]))
    max_k = draw(st.one_of(st.just(math.inf), st.integers(1, 60)))
    return mesh, d, max_k, draw(st.integers(0, 2**16))


def _cluster_bits(clusters):
    return [(c.indices.tobytes(), c.mean_normal.tobytes(), c.points.tobytes()) for c in clusters]


@settings(max_examples=200)
@given(search_cases(), st.none())
@example((ridged(10, 0.6), 5.0, math.inf, 0), [1, 2, 4, 8, 16, 32])  # six failed tests, then 50 untested
@example((ridged(10, 0.6), 5.0, 6, 0), [1, 2, 4])  # a cap the doubling reaches
@example((generate_scene(SceneSpec("boxfield", 20.0, 3, seed=1)), 5.0, 2, 0), [])  # max_k below the first k
@example((generate_scene(SceneSpec("canyon", 14.0, seed=0)), 0.2, math.inf, 0), [])  # a first k at the cap
def test_suggest_cluster_count_bit_equal_to_a_run_per_k(case, expect_tried):
    mesh, d, max_k, seed = case
    tried = []
    want_k, want = suggest_cluster_count_reference(mesh, d, seed, max_k, tried)
    got_k, got = rectangles.suggest_cluster_count(mesh, d, seed, max_k)
    assert got_k == want_k
    assert _cluster_bits(got) == _cluster_bits(want)
    if expect_tried is not None:
        assert tried == expect_tried


class TestFitRectangle:
    def test_unit_square_corners(self):
        pts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
        rect = fit_rectangle(cluster_from_points(pts), d=5.0)
        assert np.allclose(rect.center, [0.5, 0.5, 5.0])
        assert np.allclose(rect.normal, [0, 0, 1])
        assert rect.area == pytest.approx(1.0)
        assert sorted([rect.width, rect.height]) == pytest.approx([1.0, 1.0])

    def test_two_by_one_box(self):
        pts = [[0, 0, 0], [2, 0, 0], [2, 1, 0], [0, 1, 0], [1, 0.5, 0]]
        rect = fit_rectangle(cluster_from_points(pts), d=3.0)
        assert rect.area == pytest.approx(2.0)

    def test_rotated_square_recovered(self):
        ang = 0.7
        R = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        base = np.array([[0, 0], [3, 0], [3, 2], [0, 2], [1.5, 1.0]])
        pts2 = base @ R.T
        pts = np.column_stack([pts2, np.zeros(len(pts2))])
        rect = fit_rectangle(cluster_from_points(pts), d=1.0)
        assert rect.area == pytest.approx(6.0)

    def test_sweep_oracle_random_coplanar(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            pts2 = rng.random((50, 2)) * [4.0, 2.0]
            pts = np.column_stack([pts2, np.zeros(50)])
            rect = fit_rectangle(cluster_from_points(pts), d=2.0)
            rel = pts2 - pts2.mean(axis=0)
            best = np.inf
            for step in range(360):
                a = step * math.pi / 2 / 360
                e = np.array([math.cos(a), math.sin(a)])
                p = np.array([-e[1], e[0]])
                x, y = rel @ e, rel @ p
                best = min(best, (x.max() - x.min()) * (y.max() - y.min()))
            assert rect.area <= best + 1e-9

    def test_contains_all_projections(self):
        rng = np.random.default_rng(4)
        pts2 = rng.normal(size=(30, 2))
        pts = np.column_stack([pts2, np.full(30, 2.0)])
        rect = fit_rectangle(cluster_from_points(pts), d=1.0)
        elevated = pts + np.array([0, 0, 1.0])
        assert rect.contains_projection(elevated)

    def test_normal_sign_follows_mean_normal(self):
        pts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
        rect = fit_rectangle(cluster_from_points(pts, normal=(0, 0, -1.0)), d=2.0)
        assert np.allclose(rect.normal, [0, 0, -1])
        assert np.allclose(rect.center, [0.5, 0.5, -2.0])
        # right-handed frame
        assert np.allclose(np.cross(rect.axis_u, rect.axis_v), rect.normal)

    def test_tilted_plane_fit(self):
        rng = np.random.default_rng(1)
        u = np.array([1.0, 0.0, 0.5])
        v = np.array([0.0, 1.0, -0.2])
        n = np.cross(u, v)
        n /= np.linalg.norm(n)
        coeff = rng.random((40, 2)) * [3, 2]
        pts = coeff[:, :1] * u + coeff[:, 1:] * v
        rect = fit_rectangle(cluster_from_points(pts, normal=n), d=2.0)
        assert abs(float(rect.normal @ n)) > 0.999

    def test_zero_mean_normal_raises(self):
        pts = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        cluster = cluster_from_points(pts)
        cluster.mean_normal = np.zeros(3)
        with pytest.raises(DegenerateClusterError):
            fit_rectangle(cluster, d=1.0)

    def test_fit_rectangles_raises_for_a_cluster_whose_normals_cancel(self):
        # one triangle listed facing both ways: its faces' normals cancel
        mesh = TriangleMesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]), [[0, 1, 2], [0, 2, 1]])
        cancelled = rectangles._make_cluster(mesh, np.arange(2))
        fine = cluster_from_points([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        with pytest.raises(DegenerateClusterError, match="cancels"):
            rectangles.fit_rectangles([fine, cancelled, fine], d=1.0)

    def test_collinear_points_fall_back_to_segment(self):
        pts = [[x, 0.0, 0.0] for x in np.linspace(0, 4, 9)]
        rect = fit_rectangle(cluster_from_points(pts), d=2.0)
        assert rect.area == pytest.approx(0.0)
        assert max(rect.width, rect.height) == pytest.approx(4.0)

    def test_single_point_cluster(self):
        rect = fit_rectangle(cluster_from_points([[1.0, 2.0, 0.0]]), d=5.0)
        assert np.allclose(rect.center, [1, 2, 5])
        assert rect.area == 0.0


_span = st.floats(-100.0, 100.0)


@st.composite
def plane_points(draw):
    """1-40 points in the plane: scattered, collinear or near-coincident
    (down to subnormal spreads), some repeated."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["scattered", "collinear", "near"]))
    origin = np.array(draw(st.one_of(st.just((0.0, 0.0)), st.tuples(_span, _span))))
    t = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    if kind == "collinear":
        angle = draw(st.floats(0.0, math.pi))
        pts = origin + 10.0 * t[:, None] * np.array([math.cos(angle), math.sin(angle)])
    else:
        s = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
        tiny = st.sampled_from([1e-9, 1e-11, 1e-300, 5e-324])
        scale = 10.0 if kind == "scattered" else draw(tiny)
        pts = origin + scale * np.column_stack([t, s])
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=5))
    return np.concatenate([pts, pts[repeats]])


@settings(max_examples=300)
@given(plane_points())
@example(np.array([[0.0, 0.0], [1e-10, 0.0], [0.0, 1e-10]]))  # every hull edge below _EPS
@example(np.array([[0.0, 0.0], [0.0, 1.4588e-160]]))  # two points, subnormal squared span
@example(np.array([[0.0, 0.0], [0.0, 1e-160]]))
def test_min_area_rect_encloses_points_and_beats_a_sweep(pts):
    center, e, hw, hh = rectangles._min_area_rects([pts], 5.0)[0]
    assert np.isfinite([*center, *e, hw, hh]).all()
    assert abs(float(np.hypot(*e)) - 1.0) < 1e-12
    perp = np.array([-e[1], e[0]])
    slack = 1e-9 * (1.0 + np.abs(pts).max())
    assert (np.abs((pts - center) @ e) <= hw + slack).all()
    assert (np.abs((pts - center) @ perp) <= hh + slack).all()
    a = np.arange(720) * (math.pi / 2 / 720)
    x = pts @ np.stack([np.cos(a), np.sin(a)])
    y = pts @ np.stack([-np.sin(a), np.cos(a)])
    best = float((np.ptp(x, axis=0) * np.ptp(y, axis=0)).min())
    assert 4.0 * hw * hh <= best + 1e-9 * (2.0 + best)


def convex_hull_reference(pts):
    """``_convex_hull_2d`` before it ran on Python floats: ``np.unique`` and
    the monotone chain over numpy scalars."""
    uniq = np.unique(pts, axis=0)
    if len(uniq) <= 2:
        return uniq
    order = np.lexsort((uniq[:, 1], uniq[:, 0]))
    p = uniq[order]

    def cross2(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(points):
        out = []
        for q in points:
            while len(out) >= 2 and cross2(out[-2], out[-1], q) <= 0:
                out.pop()
            out.append(q)
        return out

    lower = half(p)
    upper = half(p[::-1])
    return np.array(lower[:-1] + upper[:-1])


def min_area_rect_reference(pts, d):
    """``_min_area_rects`` of one set before its calipers were batched: one matvec per
    hull edge direction, on the reference hull."""
    hull = convex_hull_reference(pts)
    if len(hull) == 1:
        return hull[0], np.array([1.0, 0.0]), 0.0, 0.0
    unit = d / 5.0
    span = hull[1] - hull[0]
    if len(hull) == 2 and np.linalg.norm(span) > rectangles._EPS * unit:
        e = span / np.linalg.norm(span)
        mid = hull.mean(axis=0)
        return mid, e, float(np.linalg.norm(span)) / 2.0, 0.0
    edges = np.roll(hull, -1, axis=0) - hull
    lens = np.linalg.norm(edges, axis=1)
    dirs = edges[lens > rectangles._EPS * unit] / lens[lens > rectangles._EPS * unit, None]
    if len(dirs) == 0:
        dirs = np.array([[1.0, 0.0]])
    best = None
    for e in dirs:
        perp = np.array([-e[1], e[0]])
        x = hull @ e
        y = hull @ perp
        area = (x.max() - x.min()) * (y.max() - y.min())
        if best is None or area < best[0] - rectangles._EPS * unit * unit:
            best = (area, e, x.min(), x.max(), y.min(), y.max())
    _, e, x0, x1, y0, y1 = best
    perp = np.array([-e[1], e[0]])
    center = e * (x0 + x1) / 2.0 + perp * (y0 + y1) / 2.0
    return center, e, (x1 - x0) / 2.0, (y1 - y0) / 2.0


_ON_AXES = [(0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 0.0), (0.5, 0.0), (0.0, 0.5)]


@st.composite
def lattice_plane_points(draw):
    """Points on a half-unit lattice, scaled: duplicates, collinear runs and
    zeros of either sign; symmetric sets whose caliper directions tie in
    area, exactly or within the area tolerance."""
    half_unit = st.integers(-6, 6).map(lambda v: v * 0.5)
    if draw(st.booleans()):
        pts = draw(st.lists(st.tuples(half_unit, half_unit), min_size=1, max_size=25))
    else:  # crowded: hull vertices on the axes, repeated past numpy's small-sort size
        pts = draw(st.lists(st.sampled_from(_ON_AXES), min_size=10, max_size=40))
    for _ in range(draw(st.integers(0, 2))):  # a collinear run
        x, y, dx, dy = (draw(half_unit) for _ in range(4))
        pts += [(x + t * dx, y + t * dy) for t in range(draw(st.integers(2, 6)))]
    if draw(st.booleans()):  # a square, or a diamond, whose every edge gives the same area
        c, r = draw(half_unit), draw(st.integers(1, 4)) * 0.5
        square = [(c - r, c - r), (c + r, c - r), (c + r, c + r), (c - r, c + r)]
        diamond = [(c - r, c), (c, c - r), (c + r, c), (c, c + r)]
        pts += draw(st.sampled_from([square, diamond]))
    pts = np.array(pts)
    pts = pts[draw(st.permutations(range(len(pts))))]
    pts = np.concatenate([pts, pts[draw(st.lists(st.integers(0, len(pts) - 1), max_size=5))]])
    signs = np.array(draw(st.lists(st.booleans(), min_size=pts.size, max_size=pts.size)))
    pts = np.where((pts == 0.0) & signs.reshape(pts.shape), -0.0, pts)
    scale = draw(st.sampled_from([1.0, 0.1, 3.7, 1e-10, 1e4]))
    jitter = draw(st.sampled_from([0.0, 1e-13, 1e-10]))  # below the area tolerance
    noise = np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=pts.size, max_size=pts.size)))
    return pts * scale + jitter * noise.reshape(pts.shape)


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=500)
@given(lattice_plane_points())
@example(np.array([[0.0, -0.0], [-0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-0.0, -0.0]]))
# 17 rows: np.unique keeps (-1.0, 0.0) of the tied rows; the first in input order is (-1.0, -0.0)
@example(np.array([
    [0.0, 1.0], [-0.0, 1.0], [-1.0, -0.0], [0.5, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, -1.0],
    [-0.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [-1.0, -0.0], [0.5, -0.0], [0.0, 1.0], [0.0, 1.0],
    [-1.0, -0.0], [0.0, -1.0], [0.5, 0.0],
]))
def test_hull_bit_equal_to_reference(pts):
    assert _same(rectangles._convex_hull_2d(pts), convex_hull_reference(pts))


@settings(max_examples=500)
@given(lattice_plane_points(), st.sampled_from([5.0, 0.01, 1e3]))
@example(np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]]), 5.0)  # four tied directions
def test_min_area_rect_bit_equal_to_reference(pts, d):
    got = rectangles._min_area_rects([pts], d)[0]
    want = min_area_rect_reference(pts, d)
    assert all(_same(g, w) for g, w in zip(got, want))


@settings(max_examples=300)
@given(
    st.lists(lattice_plane_points() | plane_points(), min_size=1, max_size=6),
    st.sampled_from([5.0, 0.01, 1e3]),
)
@example(
    [
        np.array([[1.0, 2.0]]),  # one point
        np.array([[0.0, 0.0], [3.0, 1.0]]),  # two
        np.array([[0.0, 0.0], [1e-10, 0.0], [0.0, 1e-10]]),  # every hull edge below _EPS
        np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [0.3, 0.2]]),
        np.array([[5.0, 5.0], [9.0, 5.0], [9.0, 6.0], [5.0, 7.0], [4.0, 6.0], [4.5, 5.2], [6.0, 4.0]]),
    ],
    5.0,
)
def test_min_area_rects_bit_equal_to_reference_per_set(point_sets, d):
    """A batch of sets of every kind: each set's rectangle is the one it
    gets alone, whatever the hulls and directions padded around it."""
    got = rectangles._min_area_rects(point_sets, d)
    assert len(got) == len(point_sets)
    for pts, rect in zip(point_sets, got):
        assert all(_same(g, w) for g, w in zip(rect, min_area_rect_reference(pts, d)))


_vec3 = st.tuples(*[st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1.0, -1.0]))] * 3)


@settings(max_examples=300)
@given(_vec3, _vec3)
def test_cross_bit_equal_to_np_cross(a, b):
    a, b = np.array(a), np.array(b)
    assert _same(rectangles._cross(a, b), np.cross(a, b))


class TestMergeIntersecting:
    def test_disjoint_parallel_unchanged(self):
        a = axis_rect(cx=0.0, cz=5.0)
        b = axis_rect(cx=10.0, cz=5.0)
        out = merge_intersecting([a, b])
        assert np.allclose(out[0].center, a.center) and out[0].area == a.area
        assert np.allclose(out[1].center, b.center) and out[1].area == b.area

    def test_perpendicular_cross_halves_both(self):
        a = ViewingRectangle(
            center=np.array([0.0, 0.0, 0.0]),
            normal=np.array([0.0, 0.0, 1.0]),
            axis_u=np.array([1.0, 0.0, 0.0]),
            axis_v=np.array([0.0, 1.0, 0.0]),
            half_w=2.0,
            half_h=2.0,
        )
        b = ViewingRectangle(
            center=np.array([0.0, 0.0, 0.0]),
            normal=np.array([0.0, 1.0, 0.0]),
            axis_u=np.array([1.0, 0.0, 0.0]),
            axis_v=np.array([0.0, 0.0, 1.0]),
            half_w=2.0,
            half_h=2.0,
        )
        assert rectangles_intersect(a, b)
        out = merge_intersecting([a, b])
        assert out[0].area == pytest.approx(a.area / 2)
        assert out[1].area == pytest.approx(b.area / 2)
        assert not rectangles_intersect(out[0], out[1])

    def test_random_arrangements_resolve(self):
        rng = np.random.default_rng(11)
        for trial in range(8):
            rects = []
            for _ in range(5):
                n = rng.normal(size=3)
                n /= np.linalg.norm(n)
                axis = np.zeros(3)
                axis[int(np.argmin(np.abs(n)))] = 1.0
                u = np.cross(n, axis)
                u /= np.linalg.norm(u)
                v = np.cross(n, u)
                rects.append(
                    ViewingRectangle(
                        center=rng.normal(size=3) * 2.0,
                        normal=n,
                        axis_u=u,
                        axis_v=v,
                        half_w=float(rng.uniform(1.0, 3.0)),
                        half_h=float(rng.uniform(1.0, 3.0)),
                    )
                )
            out = merge_intersecting(rects)
            total_before = sum(r.area for r in rects)
            total_after = sum(r.area for r in out)
            assert total_after <= total_before + 1e-9
            for i in range(5):
                for j in range(i + 1, 5):
                    assert not rectangles_intersect(out[i], out[j])
                # contained in source: corners project inside the original
                assert rects[i].contains_projection(out[i].corners(), slack=1e-6)
                assert abs(float(out[i].normal @ rects[i].normal)) > 0.999


def _clip_polygon(poly, q0, m, side):
    """Sutherland-Hodgman clip of a convex polygon to one side of a line."""
    out = []
    n = len(poly)
    s = (poly - q0) @ m * side
    for i in range(n):
        j = (i + 1) % n
        if s[i] >= -1e-12:
            out.append(poly[i])
        if (s[i] > 1e-12) != (s[j] > 1e-12) and abs(s[i] - s[j]) > 1e-15:
            t = s[i] / (s[i] - s[j])
            out.append(poly[i] + t * (poly[j] - poly[i]))
    return np.array(out) if out else np.zeros((0, 2))


def _poly_area(poly):
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def assert_keeps_larger_piece(rect, q0, e, out):
    """``out`` lies in ``rect`` on the side of the cut line whose piece of
    ``rect`` has the larger area (by polygon clipping); returns that side, or
    None when the two pieces tie and either side may be kept."""
    m = np.array([-e[1], e[0]])
    hw, hh = rect.half_w, rect.half_h
    corners = np.array([[-hw, -hh], [hw, -hh], [hw, hh], [-hw, hh]])
    areas = {s: _poly_area(_clip_polygon(corners, q0, m, s)) for s in (1.0, -1.0)}
    uv = rect.to_plane(out.corners())
    assert (np.abs(uv[:, 0]) <= hw + 1e-9).all()
    assert (np.abs(uv[:, 1]) <= hh + 1e-9).all()
    if abs(areas[1.0] - areas[-1.0]) <= 1e-12:
        return None
    side = 1.0 if areas[1.0] > areas[-1.0] else -1.0
    assert ((uv - q0) @ m * side >= -1e-9).all()
    return side


# ---------------------------------------------------------------------------
# the crossing test against the four-helper predicate it fuses
# ---------------------------------------------------------------------------


def line_in_plane(rect, point, direction):
    """The 3-d line expressed in the rectangle's (u, v) frame."""
    q0 = np.array([(point - rect.center) @ rect.axis_u, (point - rect.center) @ rect.axis_v])
    e = np.array([direction @ rect.axis_u, direction @ rect.axis_v])
    return q0, e


def crossing_interval(rect, q0, e):
    """Parameter interval of the in-plane line inside the rectangle, or None."""
    t0, t1 = -np.inf, np.inf
    for axis, half in ((0, rect.half_w), (1, rect.half_h)):
        if abs(e[axis]) < 1e-12:
            if abs(q0[axis]) > half:
                return None
            continue
        a = (-half - q0[axis]) / e[axis]
        b = (half - q0[axis]) / e[axis]
        if a > b:
            a, b = b, a
        t0, t1 = max(t0, a), min(t1, b)
    if not np.isfinite(t0) or not np.isfinite(t1) or t0 >= t1:
        return None
    return t0, t1


def proper_split(rect, q0, e, eps):
    """True when the line leaves rectangle corners more than eps on both sides."""
    m = np.array([-e[1], e[0]])
    corners = np.array(
        [
            [-rect.half_w, -rect.half_h],
            [rect.half_w, -rect.half_h],
            [rect.half_w, rect.half_h],
            [-rect.half_w, rect.half_h],
        ]
    )
    s = (corners - q0) @ m
    return bool(s.min() < -eps and s.max() > eps)


def intersect_reference(a, b):
    """The crossing test as four helpers (the plane line, its projection into
    each rectangle's frame, its interval inside each rectangle, the split of
    each rectangle's corners): the in-plane lines ``((qa, ea), (qb, eb))``
    when the line properly cuts both rectangles along overlapping stretches,
    else None."""
    eps = rectangles._CROSS_EPS * max(a.half_w, a.half_h, b.half_w, b.half_h)
    line = rectangles._plane_line(a, b)
    if line is None:
        return None
    qa, ea = line_in_plane(a, *line)
    qb, eb = line_in_plane(b, *line)
    ia = crossing_interval(a, qa, ea)
    ib = crossing_interval(b, qb, eb)
    if ia is None or ib is None:
        return None
    if min(ia[1], ib[1]) - max(ia[0], ib[0]) <= eps:
        return None
    if proper_split(a, qa, ea, eps) and proper_split(b, qb, eb, eps):
        return (qa, ea), (qb, eb)
    return None


_X, _Y, _Z = np.eye(3)
_pair_half = st.one_of(st.floats(0.1, 5.0), st.sampled_from([0.0, 0.5, 1.0, 2.0]))


def _placed(draw, half):
    """A coordinate within 1.5 ``half`` of the origin, often on a multiple of
    ``half`` that puts an edge or the centre on a line."""
    return half * draw(st.one_of(
        st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-1.5, 1.5)
    ))


@st.composite
def rect_pairs(draw):
    """A horizontal rectangle about the origin and a partner that is tilted
    at random, upright on the plane x = c (crossing it, touching it along an
    edge, or beside its stretch of the cut line), or parallel to it; some of
    zero width or height. Both are turned by one random rotation, or none,
    shifted together by up to 1e7 m, and drawn in either order."""
    a_hw, a_hh, b_hw, b_hh = (draw(_pair_half) for _ in range(4))
    a = ViewingRectangle(np.zeros(3), _Z, _X, _Y, a_hw, a_hh)
    kind = draw(st.sampled_from(["tilted", "upright", "parallel"]))
    if kind == "tilted":
        normal = np.array(draw(st.tuples(_coord, _coord, _coord)))
        assume(np.linalg.norm(normal) > 0.1)
        normal = normal / np.linalg.norm(normal)
        (u,), (v,) = rectangles.orthonormal_frames(normal[None, :])
        center = np.array(draw(st.tuples(_coord, _coord, _coord)))
        b = ViewingRectangle(center, normal, u, v, b_hw, b_hh)
    elif kind == "upright":  # the planes meet on the line x = c, z = 0
        center = [_placed(draw, a_hw), _placed(draw, a_hh + b_hw), _placed(draw, b_hh)]
        b = ViewingRectangle(np.array(center), _X, _Y, _Z, b_hw, b_hh)
    else:
        center = np.array([_placed(draw, a_hw), _placed(draw, a_hh), draw(_coord)])
        b = ViewingRectangle(center, -_Z, _X, -_Y, b_hw, b_hh)
    if draw(st.booleans()):
        quat = np.array(draw(st.tuples(_coord, _coord, _coord, _coord)))
        assume(np.linalg.norm(quat) > 0.1)
        w, x, y, z = quat / np.linalg.norm(quat)
        turn = np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ])
    else:
        turn = np.eye(3)
    shift = draw(st.sampled_from([0.0, 1e3, 1e7])) * np.array(draw(st.tuples(_coord, _coord, _coord)))
    pair = [
        ViewingRectangle(turn @ r.center + shift, turn @ r.normal, turn @ r.axis_u,
                         turn @ r.axis_v, r.half_w, r.half_h)
        for r in (a, b)
    ]
    return pair[::-1] if draw(st.booleans()) else pair


@settings(max_examples=1000)
@given(rect_pairs())
def test_intersect_returns_the_four_helper_cut(pair):
    cut, reference = rectangles_intersect(*pair), intersect_reference(*pair)
    assert (cut is None) == (reference is None)
    if cut is not None:
        assert [x.tobytes() for line in cut for x in line] == [
            x.tobytes() for line in reference for x in line
        ]


def rescan_merge(rects):
    """Reference merge: after every shrink, rescan all pairs from (0, 1)."""
    out = list(rects)
    for _ in range(max(1, len(out) * (len(out) - 1)) + 1):
        pairs = [(i, j) for i in range(len(out)) for j in range(i + 1, len(out))]
        hit = next(((i, j) for i, j in pairs if rectangles_intersect(out[i], out[j])), None)
        if hit is None:
            return out
        i, j = hit
        point, direction = rectangles._plane_line(out[i], out[j])
        for k in (i, j):
            q0, e = line_in_plane(out[k], point, direction)
            shrunk = rectangles._largest_piece_rect(out[k], q0, e)
            assert_keeps_larger_piece(out[k], q0, e, shrunk)
            out[k] = shrunk
    raise MergeNonTerminationError("rectangle merge failed to terminate")


def _rect_bits(rect):
    return (
        rect.center.tobytes(), rect.normal.tobytes(), rect.axis_u.tobytes(),
        rect.axis_v.tobytes(), rect.half_w, rect.half_h,
    )


_coord = st.floats(-1.0, 1.0)
_half = st.one_of(st.floats(0.5, 3.0), st.just(0.0))


def _diagonal_partner(rect, overlap, tilt, half_w, half_h):
    """A rectangle whose diagonal continues ``rect``'s diagonal past its
    (+, +) corner, starting ``overlap`` inside it: the pair crosses along that
    diagonal, and their circumscribed discs overlap by exactly ``overlap``."""
    radius = math.hypot(rect.half_w, rect.half_h)
    g = (rect.half_w * rect.axis_u + rect.half_h * rect.axis_v) / radius
    h = (rect.half_w * rect.axis_v - rect.half_h * rect.axis_u) / radius
    normal = math.cos(tilt) * rect.normal + math.sin(tilt) * h
    k = np.cross(normal, g)
    r = math.hypot(half_w, half_h)
    u = (half_w * g - half_h * k) / r
    center = rect.center + (radius + r - overlap) * g
    return ViewingRectangle(center, normal, u, np.cross(normal, u), half_w, half_h)


@st.composite
def crossing_rects(draw):
    """Two to eight drawn rectangles of random orientation, some of zero
    width or height, with centres within 1 m of the origin, so that many
    pairs cross, or within 10 m, so that most pairs are far apart. Some of
    them get a partner that crosses them corner to corner with bounding
    discs that barely overlap."""
    spread = draw(st.sampled_from([1.0, 10.0]))
    rects = []
    for _ in range(draw(st.integers(2, 8))):
        normal = np.array(draw(st.tuples(_coord, _coord, _coord)))
        assume(np.linalg.norm(normal) > 0.1)
        normal = normal / np.linalg.norm(normal)
        (u,), (v,) = rectangles.orthonormal_frames(normal[None, :])
        center = spread * np.array(draw(st.tuples(_coord, _coord, _coord)))
        rects.append(ViewingRectangle(center, normal, u, v, draw(_half), draw(_half)))
        if rects[-1].area > 0 and draw(st.booleans()):
            rects.append(_diagonal_partner(
                rects[-1], draw(st.sampled_from([2e-9, 1e-8, 1e-6, 1e-3])),
                draw(st.floats(0.3, math.pi - 0.3)), draw(st.floats(0.5, 3.0)),
                draw(st.floats(0.5, 3.0)),
            ))
    return rects


@settings(max_examples=200)
@given(crossing_rects())
def test_merge_matches_rescan_and_leaves_no_crossing(rects):
    out = merge_intersecting(rects)
    assert [_rect_bits(r) for r in out] == [_rect_bits(r) for r in rescan_merge(rects)]
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            assert not rectangles_intersect(out[i], out[j])
        assert np.array_equal(out[i].normal, rects[i].normal)
        assert abs(float((out[i].center - rects[i].center) @ rects[i].normal)) <= 1e-9
        assert rects[i].contains_projection(out[i].corners(), slack=1e-9)
    assert sum(r.area for r in out) <= sum(r.area for r in rects) + 1e-9


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _rect(center, normal, half_w, half_h):
    (u,), (v,) = rectangles.orthonormal_frames(normal[None, :])
    return ViewingRectangle(np.asarray(center, dtype=np.float64), normal, u, v, half_w, half_h)


@st.composite
def partnered_rects(draw):
    """A rectangle and one to four partners, each through a point of it:
    crossing it at a tilt down to near-parallel, coplanar with it, or with a
    corner on it, so touching its plane or crossing it there; all moved
    together by up to 1e7 m."""
    normal = np.array(draw(st.tuples(_coord, _coord, _coord)))
    assume(np.linalg.norm(normal) > 0.1)
    base = _rect(np.zeros(3), _unit(normal), draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 3.0)))
    rects = [base]
    for _ in range(draw(st.integers(1, 4))):
        s, t = draw(_coord), draw(_coord)
        point = base.center + s * base.half_w * base.axis_u + t * base.half_h * base.axis_v
        kind = draw(st.sampled_from(["cross", "coplanar", "corner"]))
        tilt = {"cross": draw(st.sampled_from([1e-8, 1e-6, 1e-3]) | st.floats(0.0, math.pi)),
                "coplanar": draw(st.sampled_from([0.0, math.pi])),
                "corner": draw(st.floats(0.0, math.pi))}[kind]
        phi = draw(st.floats(0.0, math.pi))
        along = math.cos(phi) * base.axis_u + math.sin(phi) * base.axis_v
        normal = _unit(math.cos(tilt) * base.normal + math.sin(tilt) * np.cross(base.normal, along))
        partner = _rect(point, normal, draw(_half), draw(_half))
        if kind == "corner":
            shift = partner.half_w * partner.axis_u + partner.half_h * partner.axis_v
        else:
            a, b = draw(_coord), draw(_coord)
            shift = a * partner.half_w * partner.axis_u + b * partner.half_h * partner.axis_v
        partner.center = point + shift
        rects.append(partner)
    offset = draw(st.sampled_from([0.0, 1e3, 1e7])) * np.array(draw(st.tuples(_coord, _coord, _coord)))
    for rect in rects:
        rect.center = rect.center + offset
    return rects


@settings(max_examples=300)
@given(st.one_of(partnered_rects(), crossing_rects()))
def test_candidate_pairs_keep_every_crossing_pair(rects):
    kept = set(rectangles._candidate_pairs(rects))
    crossing = {
        (i, j)
        for i in range(len(rects))
        for j in range(i + 1, len(rects))
        if rectangles_intersect(rects[i], rects[j])
    }
    assert crossing <= kept


class TestLargestPieceRect:
    """The closed-form largest inscribed axis-aligned rectangle after a cut."""

    @staticmethod
    def brute_force_area(hw, hh, q0, e, side, steps=48):
        # the kept region is convex, so a lattice rectangle lies inside it
        # iff its four corners do; and for a fixed u-pair the feasible v set
        # is an interval, so only its extremes matter
        m = np.array([-e[1], e[0]])
        us = np.linspace(-hw, hw, steps)
        vs = np.linspace(-hh, hh, steps)
        uu, vv = np.meshgrid(us, vs, indexing="ij")
        feasible = side * ((uu - q0[0]) * m[0] + (vv - q0[1]) * m[1]) >= -1e-9
        best = 0.0
        for i0 in range(steps):
            for i1 in range(i0 + 1, steps):
                cols = np.nonzero(feasible[i0] & feasible[i1])[0]
                if len(cols) >= 2:
                    span = vs[cols[-1]] - vs[cols[0]]
                    best = max(best, (us[i1] - us[i0]) * span)
        return best

    def test_matches_grid_search(self):
        rng = np.random.default_rng(21)
        for trial in range(12):
            hw, hh = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
            rect = axis_rect(hw=hw, hh=hh)
            ang = float(rng.uniform(0, math.pi))
            e = np.array([math.cos(ang), math.sin(ang)])
            q0 = rng.uniform(-0.5, 0.5, size=2) * [hw, hh]
            out = rectangles._largest_piece_rect(rect, q0, e)
            # inside the source rectangle and the half-plane of the larger piece
            side = assert_keeps_larger_piece(rect, q0, e, out)
            assert side is not None
            brute = self.brute_force_area(hw, hh, q0, e, side)
            # closed form must beat the discretised search (up to grid slack)
            assert out.area >= brute - 0.02 * max(1.0, brute)


def _avr_bits(pairs):
    """Every byte of ``build_avr``'s rectangles and their clusters' faces."""
    fields = ("center", "normal", "axis_u", "axis_v", "half_w", "half_h")
    return [
        (cluster.indices.tobytes(), *(np.asarray(getattr(rect, f)).tobytes() for f in fields))
        for rect, cluster in pairs
    ]


class TestBuildAvr:
    def test_flat_scene_single_rectangle_covers_footprint(self):
        m = flat_patch(10.0)
        params = QualityParams()
        pairs = build_avr(m, params, k=1, seed=0)
        assert len(pairs) == 1
        rect, cluster = pairs[0]
        assert len(cluster.indices) == m.num_faces
        assert rect.center[2] == pytest.approx(5.0)
        assert rect.contains_projection(m.centroids + np.array([0, 0, 5.0]), slack=1e-6)

    def test_two_perpendicular_walls(self):
        a = wall_mesh(x0=0, x1=4, y=0.0, normal_sign=1.0).subdivided(0.8)
        b_raw = wall_mesh(x0=0, x1=4, y=0.0, normal_sign=1.0).subdivided(0.8)
        # rotate the second wall into the x=8 plane (normal +x)
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        b_verts = b_raw.vertices @ rot.T + np.array([8.0, 6.0, 0.0])
        b = TriangleMesh(b_verts, b_raw.faces)
        m = TriangleMesh(
            np.concatenate([a.vertices, b.vertices]),
            np.concatenate([a.faces, b.faces + a.num_vertices]),
        )
        params = QualityParams()
        pairs = build_avr(m, params, k=2, seed=0)
        assert len(pairs) == 2
        normals = sorted(
            [tuple(np.round(rect.normal, 3)) for rect, _ in pairs], key=lambda t: t[0]
        )
        wall_normals = [np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0])]
        for rect, _ in pairs:
            best = max(abs(float(rect.normal @ w)) for w in wall_normals)
            assert best > math.cos(math.radians(10.0))

    def test_every_face_in_exactly_one_rectangle(self):
        m = generate_scene(SceneSpec("boxfield", 12.0, obstacles=2, seed=6))
        params = QualityParams()
        pairs = build_avr(m, params, seed=1)
        seen = np.concatenate([c.indices for _, c in pairs])
        assert len(seen) == m.num_faces
        assert len(np.unique(seen)) == m.num_faces

    def test_rectangles_at_least_resolution_wide(self):
        # build_avr keeps the fitted extent; the plan widens it to r
        m = flat_patch(3.0)
        params = QualityParams()
        rects = [rect for rect, _ in build_avr(m, params, k=1, seed=0)]
        assert all(rect.width < 4.0 and rect.height < 4.0 for rect in rects)
        plan = plan_rectangles(rects, r=4.0, d=params.d)
        for grid in plan.grids:
            assert grid.rectangle.width >= 4.0 - 1e-9
            assert grid.rectangle.height >= 4.0 - 1e-9

    def test_deterministic(self):
        m = generate_scene(SceneSpec("canyon", 12.0, seed=5))
        params = QualityParams()
        a = build_avr(m, params, seed=2)
        b = build_avr(m, params, seed=2)
        assert len(a) == len(b)
        for (ra, ca), (rb, cb) in zip(a, b):
            assert np.array_equal(ra.center, rb.center)
            assert np.array_equal(ca.indices, cb.indices)

    def test_merge_tests_few_of_the_fitted_pairs(self, monkeypatch):
        # a guard on the broad phase: an all-pairs scan would call the exact
        # test n(n-1)/2 times on this scene's n fitted rectangles
        calls = []
        exact = rectangles.rectangles_intersect

        def counted(a, b, **kw):
            calls.append(1)
            return exact(a, b, **kw)

        monkeypatch.setattr(rectangles, "rectangles_intersect", counted)
        params = QualityParams()
        mesh = preprocess_mesh(generate_scene(SceneSpec("canyon", 14.0, seed=3)), params)
        n = len(build_avr(mesh, params, seed=3))
        assert n >= 20
        assert len(calls) <= n * (n - 1) / 2 / 10

    def test_opposed_normals_split_not_fail(self):
        # two parallel walls facing opposite directions: one cluster's mean
        # normal cancels; build_avr must split it rather than raise
        a = wall_mesh(y=0.0, normal_sign=1.0).subdivided(0.8)
        b = wall_mesh(y=6.0, normal_sign=-1.0).subdivided(0.8)
        m = TriangleMesh(
            np.concatenate([a.vertices, b.vertices]),
            np.concatenate([a.faces, b.faces + a.num_vertices]),
        )
        pairs = build_avr(m, QualityParams(), k=1, seed=0)
        assert len(pairs) >= 2

    def test_degenerate_clusters_split_in_queue_order(self):
        """Two slabs of back-to-back walls with a flat patch between them:
        with k = 3 both slab clusters cancel and are split. The rectangles
        come in the order of a FIFO queue of clusters fitted one at a time:
        the patch's, then the parts of each slab in turn."""
        parts = [wall_mesh(x0=x, x1=x + 4.0, y=y, normal_sign=sign).subdivided(0.8)
                 for x in (0.0, 30.0) for y, sign in ((0.0, -1.0), (0.5, 1.0))]
        patch = flat_patch(4.0)
        parts.append(TriangleMesh(patch.vertices + [15.0, 0.0, 0.0], patch.faces))
        starts = np.cumsum([0] + [p.num_vertices for p in parts])
        mesh = TriangleMesh(
            np.concatenate([p.vertices for p in parts]),
            np.concatenate([p.faces + start for p, start in zip(parts, starts)]),
        )
        params = QualityParams()
        queue = [(c, 0) for c in cluster_faces(mesh, 3, seed=0)]
        fitted, splits = [], 0
        while queue:
            cluster, depth = queue.pop(0)
            try:
                fitted.append((fit_rectangle(cluster, params.d), cluster))
            except DegenerateClusterError:
                splits += 1
                halves = rectangles._split_by_normals(mesh, cluster, depth + 1)
                queue.extend((half, depth + 1) for half in halves)
        assert splits == 2
        merged = merge_intersecting([rect for rect, _ in fitted])
        want = [(rect, cluster) for rect, (_, cluster) in zip(merged, fitted)]
        assert _avr_bits(build_avr(mesh, params, k=3, seed=0)) == _avr_bits(want)

    def test_suggested_clusters_are_not_clustered_again(self, monkeypatch):
        # boxfield-30 passes the spread and coherence test at k = 1, so the
        # suggestion's one Lloyd run is the only one
        params = QualityParams()
        mesh = preprocess_mesh(generate_scene(SceneSpec("boxfield", 30.0, seed=0)), params)
        explicit = build_avr(mesh, params, k=1, seed=0)
        ks = []
        lloyd = rectangles._lloyd
        monkeypatch.setattr(
            rectangles, "_lloyd", lambda points, centers: ks.append(len(centers)) or lloyd(points, centers)
        )
        suggested = build_avr(mesh, params, seed=0)
        assert ks == [1]
        assert _avr_bits(suggested) == _avr_bits(explicit)
        ks.clear()
        plan_visit(np.arange(mesh.num_faces), mesh, params, seed=0, budget=300)
        assert ks == [1]

        # canyon-14 suggests 50 clusters; a budget of 40 views fits at most
        # 40 // 4 = 10 rectangles of 2 x 2 views, so the search stops at 10
        # and clusters no finer
        mesh = preprocess_mesh(generate_scene(SceneSpec("canyon", 14.0, seed=0)), params)
        assert rectangles.suggest_cluster_count(mesh, params.d, 0)[0] > 10
        explicit = build_avr(mesh, params, k=10, seed=0)
        ks.clear()
        built = []
        monkeypatch.setattr(
            planner, "build_avr", lambda *a, **kw: built.append(build_avr(*a, **kw)) or built[-1]
        )
        plan_visit(np.arange(mesh.num_faces), mesh, params, seed=0, budget=40)
        assert ks and max(ks) <= 10
        (planned,) = built
        assert _avr_bits(planned) == _avr_bits(explicit)


@settings(max_examples=20)
@given(
    kind=st.sampled_from(["flat", "boxfield", "canyon"]),
    extent=st.floats(6.0, 20.0),
    obstacles=st.integers(1, 4),
    scene_seed=st.integers(0, 1000),
    preprocess=st.booleans(),
    seed=st.integers(0, 100),
)
def test_built_rectangles_do_not_cross(kind, extent, obstacles, scene_seed, preprocess, seed):
    """Merging leaves no crossing pair, and build_avr returns the merged
    rectangles as they are (widening them could make pairs cross again)."""
    params = QualityParams()
    mesh = generate_scene(SceneSpec(kind, extent, obstacles, seed=scene_seed))
    if preprocess:
        mesh = preprocess_mesh(mesh, params)
    rects = [rect for rect, _ in build_avr(mesh, params, seed=seed)]
    crossing = [
        (i, j)
        for i in range(len(rects))
        for j in range(i + 1, len(rects))
        if rectangles_intersect(rects[i], rects[j])
    ]
    assert crossing == []
