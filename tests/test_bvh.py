import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from viewplan import bvh
from viewplan.bvh import Bvh, segments_hit_any
from viewplan.mesh import SceneSpec, TriangleMesh, generate_scene

from conftest import flat_patch, wall_mesh


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
    monkeypatch.setattr(bvh, "_BATCH", 64)  # four full batches and a partial one
    blocked = Bvh(mesh.triangles()).occluded(a, b)
    assert blocked.any() and not blocked.all()
    assert np.array_equal(blocked, segments_hit_any(mesh.triangles(), a, b))


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


def test_segments_grazing_a_triangle_match_brute_force():
    # each segment passes through a vertex or an edge point of one triangle,
    # most nearly parallel to a face of its box, so rounding decides the hit
    rng = np.random.default_rng(0)
    tri = rng.normal(size=(1, 3, 3))
    n = 20_000
    k = rng.integers(3, size=n)
    s = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))[:, None]
    p = tri[0, k] + s * (tri[0, (k + 1) % 3] - tri[0, k])
    w = rng.normal(size=(n, 3))
    w[np.arange(n), rng.integers(3, size=n)] *= rng.choice([1.0, 1e-4, 1e-9], size=n)
    a, b = p - rng.random((n, 1)) * w, p + rng.random((n, 1)) * w
    brute = segments_hit_any(tri, a, b)
    assert brute.sum() > n // 4
    assert np.array_equal(Bvh(tri).occluded(a, b), brute)

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
    mesh = TriangleMesh(tris.reshape(-1, 3), np.arange(3 * n).reshape(-1, 3))
    sources, targets = np.array(sources), np.array(targets)
    return mesh, sources, targets


@settings(max_examples=60, deadline=None)
@given(soup_and_segments())
def test_bvh_traversal_matches_brute_force_on_random_soups(case):
    mesh, sources, targets = case
    assume(mesh.num_faces > 8)
    traversal = Bvh(mesh.triangles()).occluded(sources, targets)
    assert np.array_equal(traversal, segments_hit_any(mesh.triangles(), sources, targets))
