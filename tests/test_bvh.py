import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from viewplan import bvh
from viewplan.bvh import Bvh
from viewplan.mesh import SceneSpec, TriangleMesh, generate_scene
from viewplan.planner import preprocess_mesh

from conftest import flat_patch, segments_hit_any, wall_mesh


def random_queries(mesh, n, seed):
    rng = np.random.default_rng(seed)
    lo, hi = mesh.bounds()
    span = hi - lo
    a = lo - 0.5 * span + rng.random((n, 3)) * span * 2.0
    b = lo - 0.5 * span + rng.random((n, 3)) * span * 2.0
    return a, b


def test_clear_line_of_sight_above_flat_terrain():
    m = flat_patch(10.0)
    c = m.centroids[12]
    assert m.occluded(c + [0, 0, 5.0], c) is False


def test_wall_between_endpoints_occludes():
    m = wall_mesh(x0=-2.0, x1=2.0, y=0.0, z0=-2.0, z1=2.0)
    assert m.occluded(np.array([0.0, -3.0, 0.0]), np.array([0.0, 3.0, 0.0])) is True


def test_endpoint_on_mesh_does_not_self_occlude():
    m = flat_patch(6.0)
    c = m.centroids[5]
    # both endpoints exactly on the surface plane: only faces crossed strictly
    # between them may occlude
    assert m.occluded(c + [0, 0, 4.0], c) is False
    assert m.occluded(c, c + [0, 0, 4.0]) is False


def test_identical_endpoints_rejected():
    m = flat_patch(4.0)
    with pytest.raises(ValueError):
        m.occluded([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])


@pytest.mark.parametrize("kind,seed", [("boxfield", 0), ("canyon", 1)])
def test_bvh_matches_brute_force(kind, seed):
    mesh = generate_scene(SceneSpec(kind, 14.0, obstacles=3, seed=seed))
    a, b = random_queries(mesh, 300, seed)
    assert np.array_equal(mesh.occluded_many(a, b), segments_hit_any(mesh.triangles(), a, b))


def test_batches_walked_in_turn_give_the_brute_force_answers(monkeypatch):
    mesh = generate_scene(SceneSpec("boxfield", 14.0, obstacles=3, seed=2))
    a, b = random_queries(mesh, 300, 2)
    tree = Bvh(mesh.triangles())
    sizes = []
    crosses = bvh._crosses

    def counted_crosses(lo, hi, item, *args):
        sizes.append(item.size)
        return crosses(lo, hi, item, *args)

    monkeypatch.setattr(bvh, "_crosses", counted_crosses)
    monkeypatch.setattr(bvh, "_BATCH", 64)  # four full batches and a partial one
    monkeypatch.setattr(bvh, "_PAIRS", 20)  # a leaf's 8 triangles fit; two leaves may not
    blocked = tree.occluded(a, b)
    assert blocked.any() and not blocked.all()
    assert np.array_equal(blocked, segments_hit_any(mesh.triangles(), a, b))
    assert max(sizes) == 20


def test_large_mesh_traverses_bvh_with_brute_force_answers():
    mesh = generate_scene(SceneSpec("boxfield", 46.0, obstacles=4, seed=5))
    a, b = random_queries(mesh, 60, 5)
    assert np.array_equal(mesh.occluded_many(a, b), segments_hit_any(mesh.triangles(), a, b))


def test_empty_mesh_and_empty_batch():
    empty = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    a, b = random_queries(flat_patch(4.0), 5, 0)
    assert empty.occluded_many(a, b).tolist() == [False] * 5
    assert empty.occluded(a[0], b[0]) is False
    for mesh in (empty, flat_patch(4.0)):
        out = mesh.occluded_many(np.zeros((0, 3)), np.zeros((0, 3)))
        assert out.dtype == bool and out.shape == (0,)


def hits_reference(tris, origins, deltas):
    """The kernel before the component layout: triangles (..., 3, 3), numpy's
    cross product, sums over the last axis and ``np.linalg.norm`` lengths.
    ``bvh._hits`` must return the same booleans bit for bit."""
    v0 = tris[..., 0, :]
    e1 = tris[..., 1, :] - v0
    e2 = tris[..., 2, :] - v0
    p = np.cross(deltas, e2)
    det = (e1 * p).sum(axis=-1)
    lengths = [np.linalg.norm(x, axis=-1) for x in (e1, e2, deltas)]
    ok = np.abs(det) > bvh._DET_EPS * (lengths[0] * lengths[1] * lengths[2])
    inv = np.where(ok, det, 1.0)
    tvec = origins - v0
    u = (tvec * p).sum(axis=-1) / inv
    q = np.cross(tvec, e1)
    v = (deltas * q).sum(axis=-1) / inv
    t = (e2 * q).sum(axis=-1) / inv
    hit = ok & (u >= 0.0) & (u <= 1.0) & (v >= 0.0) & (u + v <= 1.0)
    hit &= (t > bvh.T_EPS) & (t < 1.0 - bvh.T_EPS)
    return hit


def pair_hits(tris, sources, targets):
    """Every (segment, triangle) pair: the segment and triangle indices, then
    the answers of ``hits_reference`` and of ``bvh._hits``."""
    seg, tri = (x.ravel() for x in np.indices((len(sources), len(tris))))
    deltas = targets - sources
    ref = hits_reference(tris[tri], sources[seg], deltas[seg])
    new = bvh._hits(*(x[:, tri] for x in bvh._edges(tris)), sources[seg].T, deltas[seg].T)
    return seg, tri, ref, new


def assert_cull_keeps_every_hit(tris, sources, targets):
    """Every pair the reference kernel counts as a hit passes the slab test
    against the triangle's padded box, the boxes ``Bvh`` culls with."""
    seg, tri, ref, _ = pair_hits(tris, sources, targets)
    pad = bvh._BOX_PAD * np.abs(tris).max(initial=0.0)
    lo, hi = tris.min(axis=1) - pad, tris.max(axis=1) + pad
    tree = Bvh(tris)

    def rows(x):  # the boxes up to the tree's triangle order
        return x[np.lexsort(x.T)]

    assert np.array_equal(rows(np.hstack([lo, hi])), rows(np.vstack([tree.lo, tree.hi])[:, tree.nodes :].T))
    with np.errstate(divide="ignore"):
        inv = 1.0 / (targets - sources)
    assert bvh._crosses(lo.T, hi.T, tri[ref], sources.T, inv.T, seg[ref]).all()


def grazing_segments():
    """One triangle and segments that each pass through a vertex or an edge
    point of it, most nearly parallel to a face of its box, so rounding
    decides the hit."""
    rng = np.random.default_rng(0)
    tri = rng.normal(size=(1, 3, 3))
    n = 20_000
    k = rng.integers(3, size=n)
    s = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))[:, None]
    p = tri[0, k] + s * (tri[0, (k + 1) % 3] - tri[0, k])
    w = rng.normal(size=(n, 3))
    w[np.arange(n), rng.integers(3, size=n)] *= rng.choice([1.0, 1e-4, 1e-9], size=n)
    return tri, p - rng.random((n, 1)) * w, p + rng.random((n, 1)) * w


def box_face_segments(tris, n, seed):
    """Segments with no extent along one axis, lying in the plane of an
    axis-aligned triangle or of a face of that triangle's padded box, where
    the slab tests meet 0 * inf."""
    rng = np.random.default_rng(seed)
    flat = tris.min(axis=1) == tris.max(axis=1)  # (triangle, axis)
    i, k = np.nonzero(flat)
    pick = rng.integers(len(i), size=n)
    i, k = i[pick], k[pick]
    pad = bvh._BOX_PAD * np.abs(tris).max()
    plane = tris[i, 0, k] + rng.choice([-pad, 0.0, pad], size=n)
    lo, hi = tris.min(axis=(0, 1)), tris.max(axis=(0, 1))
    a, b = (lo + rng.random((n, 3)) * (hi - lo) for _ in range(2))
    a[np.arange(n), k] = b[np.arange(n), k] = plane
    return a, b


def test_segments_grazing_a_triangle_match_brute_force():
    tri, a, b = grazing_segments()
    brute = segments_hit_any(tri, a, b)
    assert brute.sum() > len(a) // 4
    assert np.array_equal(Bvh(tri).occluded(a, b), brute)


def test_kernel_bit_equal_to_reference_on_grazing_segments():
    _, _, ref, new = pair_hits(*grazing_segments())
    assert ref.sum() > len(ref) // 4
    assert np.array_equal(new, ref)


def test_triangle_box_cull_keeps_every_grazing_hit():
    assert_cull_keeps_every_hit(*grazing_segments())


def test_kernel_and_cull_on_segments_in_box_face_planes():
    # the axis-aligned walls and ground of a boxfield
    tris = generate_scene(SceneSpec("boxfield", 12.0, obstacles=3, seed=0)).triangles()
    a, b = box_face_segments(tris, 400, 0)
    seg, _, ref, new = pair_hits(tris, a, b)
    assert np.array_equal(new, ref)
    blocked = np.bincount(seg[ref], minlength=len(a)) > 0
    assert blocked.any() and not blocked.all()
    assert np.array_equal(Bvh(tris).occluded(a, b), blocked)
    assert_cull_keeps_every_hit(tris, a, b)


def test_triangle_box_cull_removes_most_leaf_pairs(monkeypatch, params):
    # views above the preprocessed compare scene looking at face centroids
    mesh = preprocess_mesh(generate_scene(SceneSpec("boxfield", 12.0, obstacles=3, seed=0)), params)
    rng = np.random.default_rng(0)
    lo, hi = mesh.bounds()
    views = lo + rng.random((20, 3)) * (hi - lo) + [0.0, 0.0, 5.0]
    a, b = np.repeat(views, mesh.num_faces, axis=0), np.tile(mesh.centroids, (20, 1))
    brute = segments_hit_any(mesh.triangles(), a, b)
    tree = Bvh(mesh.triangles())
    pairs = {"triangle": 0, "kernel": 0, "largest": 0}
    crosses, hits = bvh._crosses, bvh._hits

    def counted_crosses(lo, hi, item, *args):
        pairs["triangle"] += int(np.count_nonzero(item >= tree.nodes))
        pairs["largest"] = max(pairs["largest"], item.size)
        return crosses(lo, hi, item, *args)

    def counted_hits(*args):
        hit = hits(*args)
        pairs["kernel"] += hit.size
        return hit

    monkeypatch.setattr(bvh, "_crosses", counted_crosses)
    monkeypatch.setattr(bvh, "_hits", counted_hits)
    assert np.array_equal(tree.occluded(a, b), brute)
    # the binary walk reached 122,785 triangle boxes, 22.6% of them passing;
    # the 4-wide walk retires an occluded segment only after a whole level,
    # two binary levels, so blocked segments reach more triangles
    assert pairs["triangle"] == 147_942
    assert pairs["kernel"] == 32_561
    assert pairs["kernel"] < 0.25 * pairs["triangle"]
    # no slab test holds more pairs than the binary walk's largest, 25,881
    assert pairs["largest"] <= 25_881


def clustered_soup(kind):
    """Triangles whose box centres defeat a midpoint split: ``coincident``,
    every box centred on one point; ``outlier``, a terrain patch and one
    triangle a million metres away; ``geometric``, a run of triangles at x =
    2^k. Each asks for the count-median fallback."""
    rng = np.random.default_rng(0)
    if kind == "coincident":  # corners +-h and a third corner inside the box
        h = rng.integers(1, 16, size=(60, 3)) / 8.0
        inner = h * rng.integers(-4, 5, size=(60, 3)) / 4.0
        return np.stack([-h, h, inner], axis=1) + [1.0, 2.0, 3.0]
    if kind == "outlier":
        tris = flat_patch(6.0).triangles()
        return np.concatenate([tris, tris[:1] + [1e6, 0.0, 0.0]])
    x = 2.0 ** np.arange(40)
    one = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    return one + np.stack([x, np.zeros(40), np.zeros(40)], axis=1)[:, None, :]


def through_triangles(tris, n, seed):
    """Segments along lines through a random point of a random triangle, in
    a random direction, about a third of them spanning the point."""
    rng = np.random.default_rng(seed)
    pick = tris[rng.integers(len(tris), size=n)]
    p = (rng.dirichlet(np.ones(3), size=n)[:, :, None] * pick).sum(axis=1)
    u = rng.normal(size=(n, 3)) * np.ptp(pick, axis=1).max(axis=1, keepdims=True)
    s = rng.uniform(-1.0, 0.5, size=(n, 1))
    return p + s * u, p + (s + rng.uniform(0.1, 1.0, size=(n, 1))) * u


def binary_split(tris):
    """The binary halving ``Bvh`` takes its nodes from, redone by calling
    ``bvh._split`` on every half, breadth-first: each half's first child
    (``child[k]`` and ``child[k] + 1``, or -1 for a leaf) and triangle count.
    Every half must hold a triangle, which also ends the loop."""
    tris = np.asarray(tris, dtype=np.float64)
    lo, hi = tris.min(axis=1), tris.max(axis=1)
    boxes = np.hstack([lo, hi, 0.5 * (lo + hi)])
    perm, spans, child = np.arange(len(tris)), [(0, len(tris))], []
    for a, b in spans:
        halves = bvh._split(perm, boxes, a, b)[2]
        assert all(h0 < h1 for h0, h1 in halves)
        child.append(len(spans) if halves else -1)
        spans += halves
    return np.array(child), np.diff(spans, axis=1)[:, 0]


def depths(child):
    """Depth of every node of a binary tree, the root at 0."""
    depth = np.zeros(len(child), dtype=np.int64)
    for k in np.flatnonzero(child >= 0):
        depth[child[k] : child[k] + 2] = depth[k] + 1
    return depth


@pytest.mark.parametrize("kind", ["coincident", "outlier", "geometric"])
def test_fallback_splits_match_brute_force(kind):
    tris = clustered_soup(kind)
    a, b = through_triangles(tris, 400, 1)
    blocked = Bvh(tris).occluded(a, b)
    assert blocked.any() and not blocked.all()
    assert np.array_equal(blocked, segments_hit_any(tris, a, b))


@pytest.mark.parametrize("kind", ["coincident", "outlier", "geometric", "boxfield"])
def test_no_child_holds_more_than_seven_eighths(kind):
    if kind == "boxfield":
        tris = generate_scene(SceneSpec("boxfield", 46.0, obstacles=4, seed=5)).triangles()
    else:
        tris = clustered_soup(kind)
    child, count = binary_split(tris)
    inner = np.flatnonzero(child >= 0)
    for side in (0, 1):
        assert (8 * count[child[inner] + side] <= 7 * count[inner]).all()
    # a node at depth k holds at most n (7/8)^k triangles and an inner node
    # more than a leaf's 8, so leaves sit at most log_{8/7}(n / 9) + 1 deep
    assert depths(child).max() <= np.log(len(tris) / 9) / np.log(8 / 7) + 1
    assert (count[child < 0] <= bvh._LEAF_SIZE).all()


def test_occlusion_is_symmetric():
    mesh = generate_scene(SceneSpec("boxfield", 12.0, obstacles=2, seed=4))
    a, b = random_queries(mesh, 200, 9)
    fwd = mesh.occluded_many(a, b)
    rev = mesh.occluded_many(b, a)
    assert np.array_equal(fwd, rev)


def test_scalar_and_batch_agree():
    mesh = generate_scene(SceneSpec("boxfield", 10.0, obstacles=2, seed=2))
    a, b = random_queries(mesh, 50, 3)
    batch = mesh.occluded_many(a, b)
    scalar = np.array([mesh.occluded(x, y) for x, y in zip(a, b)])
    assert np.array_equal(batch, scalar)


# half-unit lattice coordinates make shared edges, coplanar faces and segments
# through vertices or along edges common
_coord = st.integers(-8, 8).map(lambda i: i / 2.0)
_point = st.tuples(_coord, _coord, _coord)


@st.composite
def soup_and_segments(draw):
    """A triangle soup and segments between its vertices, edge midpoints and
    free points, all scaled by an exact power of two from 2^-24 to 2^20."""
    n = draw(st.integers(9, 40))  # more than one BVH leaf, so the tree branches
    tris = np.array(draw(st.lists(st.tuples(_point, _point, _point), min_size=n, max_size=n)))

    def endpoint(other=None):
        i, k = draw(st.integers(0, n - 1)), draw(st.integers(0, 2))
        kinds = ["free", "vertex", "edge midpoint"] + ["other end"] * (other is not None)
        kind = draw(st.sampled_from(kinds))
        if kind == "other end":  # a zero-length segment
            return other
        if kind == "vertex":
            return tris[i, k]
        if kind == "edge midpoint":
            return 0.5 * (tris[i, k] + tris[i, (k + 1) % 3])
        return np.array(draw(_point))

    sources = [endpoint() for _ in range(draw(st.integers(1, 16)))]
    targets = [endpoint(s) for s in sources]
    scale = 2.0 ** draw(st.integers(-24, 20))
    mesh = TriangleMesh(scale * tris.reshape(-1, 3), np.arange(3 * n).reshape(-1, 3))
    return mesh, scale * np.array(sources), scale * np.array(targets)


def _steep_segment_through_a_tiny_triangle():
    """A unit right triangle and a segment through it along z, x 2^-20: its
    determinant, 2^-59, is far above the relative cut-off and below 1e-14."""
    tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    mesh = TriangleMesh(2.0**-20 * tri, [[0, 1, 2]])
    return mesh, 2.0**-20 * np.array([[0.2, 0.2, 1.0]]), 2.0**-20 * np.array([[0.2, 0.2, -1.0]])


@settings(max_examples=60)
@given(soup_and_segments())
def test_bvh_traversal_matches_brute_force_on_random_soups(case):
    mesh, sources, targets = case
    assume(mesh.num_faces > 8)
    traversal = Bvh(mesh.triangles()).occluded(sources, targets)
    assert np.array_equal(traversal, segments_hit_any(mesh.triangles(), sources, targets))


@settings(max_examples=100)
@given(soup_and_segments())
@example(_steep_segment_through_a_tiny_triangle())
def test_kernel_and_cull_match_the_reference_on_random_soups(case):
    mesh, sources, targets = case
    tris = mesh.triangles()
    _, _, ref, new = pair_hits(tris, sources, targets)
    assert np.array_equal(new, ref)
    assert_cull_keeps_every_hit(tris, sources, targets)


# triangles whose box centres coincide or repeat, with zero extents along some
# axes, as duplicates and far from the origin: the inputs that ask for the
# count-median split
_half = st.integers(0, 4).map(lambda i: i / 2.0)
_centre = st.sampled_from([(0.0, 0.0, 0.0), (1.0, 0.5, 0.0), (0.0, 0.0, 2.0)])
_offset = st.sampled_from([0.0, 3.5e2, -1e5, 1e7])


@st.composite
def centred_triangle(draw):
    """Corners ``c - h``, ``c + h`` and a third inside their box, so the box
    is centred on ``c`` exactly; a zero ``h`` gives a zero-extent axis."""
    c = np.array(draw(st.one_of(_centre, _point)))
    h = np.array(draw(st.tuples(_half, _half, _half)))
    inner = h * np.array(draw(st.tuples(*[st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])] * 3)))
    return np.stack([c - h, c + h, c + inner])


@st.composite
def tree_soups(draw):
    free = st.tuples(_point, _point, _point).map(np.array)
    tris = draw(st.lists(st.one_of(centred_triangle(), free), min_size=1, max_size=60))
    tris += [tris[i] for i in draw(st.lists(st.integers(0, len(tris) - 1), max_size=20))]
    tris = np.array(tris) + np.array(draw(st.tuples(_offset, _offset, _offset)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    ends = tris[rng.integers(len(tris), size=(2, 40))]  # triangles the segments aim through
    pick = rng.dirichlet(np.ones(3), size=(2, 40))
    a, b = ((pick[k, :, :, None] * ends[k]).sum(axis=1) for k in (0, 1))
    step = rng.choice([0.5, 2.0, 8.0], size=(40, 1)) * rng.normal(size=(40, 3))
    return tris, a - step, b + step


@settings(max_examples=150)
@given(tree_soups())
def test_one_pass_tree_invariants_and_answers_on_clustered_soups(case):
    tris, a, b = case
    n = len(tris)
    child, count = binary_split(tris)  # every halving leaves both halves non-empty
    for side in (0, 1):
        assert (8 * count[child[child >= 0] + side] <= 7 * count[child >= 0]).all()
    tree = Bvh(tris)
    first, fan, nodes = tree.first, tree.count, tree.nodes
    inner = first < nodes
    assert ((fan[inner] >= 2) & (fan[inner] <= 4)).all()
    # the inner nodes' children are items 1 .. nodes - 1 and the leaves' the
    # triangle items, each range contiguous and every item in exactly one
    kids = np.concatenate([np.arange(f, f + c) for f, c in zip(first[inner], fan[inner])] + [[]])
    assert np.array_equal(np.sort(kids), np.arange(1, nodes))
    held = np.concatenate([np.arange(f, f + c) for f, c in zip(first[~inner], fan[~inner])])
    assert np.array_equal(np.sort(held), np.arange(nodes, nodes + n))
    assert (fan[~inner] <= bvh._LEAF_SIZE).all()
    def rows(x):  # the triangles up to the tree's order
        return x[np.lexsort(x.T)]

    given_tris = np.hstack([tris[:, 0], tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]])
    assert np.array_equal(rows(np.vstack([tree.v0, tree.e1, tree.e2]).T), rows(given_tris))
    for k in range(nodes):
        items = np.arange(first[k], first[k] + fan[k])
        assert (tree.lo[:, items] >= tree.lo[:, [k]]).all()
        assert (tree.hi[:, items] <= tree.hi[:, [k]]).all()
    blocked = tree.occluded(a, b)
    assert np.array_equal(blocked, segments_hit_any(tris, a, b))
