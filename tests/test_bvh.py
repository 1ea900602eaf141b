import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from viewplan.bvh import BRUTE_FACE_LIMIT, Bvh, segments_hit_any
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
    brute = segments_hit_any(mesh.triangles(), a, b)
    bvh = np.array([mesh.bvh.segment_occluded(s, t) for s, t in zip(a, b)])
    assert np.array_equal(brute, bvh)


def test_large_mesh_traverses_bvh_with_brute_force_answers():
    mesh = generate_scene(SceneSpec("boxfield", 46.0, obstacles=4, seed=5))
    assert mesh.num_faces > BRUTE_FACE_LIMIT
    a, b = random_queries(mesh, 60, 5)
    assert np.array_equal(mesh.occluded_many(a, b), segments_hit_any(mesh.triangles(), a, b))
    assert mesh._bvh is not None  # answered by traversal, not brute force


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

    def endpoint():
        i, k = draw(st.integers(0, n - 1)), draw(st.integers(0, 2))
        kind = draw(st.sampled_from(["free", "vertex", "edge midpoint"]))
        if kind == "vertex":
            return tris[i, k]
        if kind == "edge midpoint":
            return 0.5 * (tris[i, k] + tris[i, (k + 1) % 3])
        return np.array(draw(_point))

    segments = [(endpoint(), endpoint()) for _ in range(draw(st.integers(1, 16)))]
    mesh = TriangleMesh(tris.reshape(-1, 3), np.arange(3 * n).reshape(-1, 3))
    sources, targets = (np.array(x) for x in zip(*segments))
    return mesh, sources, targets


@settings(max_examples=60, deadline=None)
@given(soup_and_segments())
def test_bvh_traversal_matches_brute_force_on_random_soups(case):
    mesh, sources, targets = case
    assume(mesh.num_faces > 8)
    bvh = Bvh(mesh)
    traversal = np.array([bvh.segment_occluded(s, t) for s, t in zip(sources, targets)])
    assert np.array_equal(traversal, segments_hit_any(mesh.triangles(), sources, targets))
