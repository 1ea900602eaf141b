import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from viewplan import mesh as mesh_module
from viewplan.cli import main
from viewplan.errors import EmptySceneError, MeshFormatError, SceneTooLargeError
from viewplan.mesh import (
    MAX_FACES,
    SceneSpec,
    TriangleMesh,
    canonical,
    degrade_proxy,
    generate_scene,
    load_mesh,
    subdivided_face_count,
    synthetic_face_count,
)
from viewplan.mesh import _terrain
from viewplan.planner import preprocess_mesh
from viewplan.quality import QualityParams

from conftest import flat_patch, renumbered

_PLY_TRI = (
    b"ply\nformat binary_little_endian 1.0\n"
    b"element vertex 3\nproperty float x\nproperty float y\nproperty float z\n"
    b"element face 1\nproperty list uchar int vertex_indices\nend_header\n"
    + b"".join(struct.pack("<3f", *v) for v in [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    + struct.pack("<B3i", 3, 0, 1, 2)
)
# file name -> (contents, what the error names besides the file)
_MALFORMED = {
    "type.ply": (_PLY_TRI.replace(b"property float x", b"property floatx x"),
                 "line 4: unknown property type 'floatx'"),
    "count.ply": (_PLY_TRI.replace(b"element vertex 3", b"element vertex x3"), "line 3"),
    "short.ply": (b"ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\n"
                  b"property float y\nproperty float z\nend_header\n0 0 0\n1 0 0\n0 1\n",
                  "does not match its header"),
    "cut.ply": (_PLY_TRI[:-4], "does not match its header"),  # a face list cut short
    "cut_ascii.ply": (b"ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\n"
                      b"property float y\nproperty float z\nelement face 1\n"
                      b"property list uchar int vertex_indices\nend_header\n"
                      b"0 0 0\n1 0 0\n0 1 0\n3 0 1\n",
                      "does not match its header"),
    "short.obj": (b"v 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n", "line 2"),
    "oob.obj": (b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n", "out of range"),
    "oob_negative.obj": (b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 -9\n", "out of range"),
    # indices past int64 overflowed numpy's conversion and escaped main
    "oob_huge.obj": (b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n", "out of range"),
    "oob_huge.ply": (b"ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\n"
                     b"property float y\nproperty float z\nelement face 1\n"
                     b"property list uchar int vertex_indices\nend_header\n"
                     b"0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n", "out of range"),
    "xy.ply": (b"ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
               b"property float y\nend_header\n0 0\n1 0\n", "needs x, y and z"),
}

_STRUCT = {"uchar": "B", "int": "i", "float": "f", "double": "d"}


def _ply_elements():
    """A quad and two triangles over five vertices, as ``_ply_bytes`` takes
    them; every coordinate is exact in float32."""
    verts = [(0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (2.0, 3.0, 0.0), (0.0, 3.0, 0.0), (1.0, 1.5, 2.5)]
    xyz = [("float", "x"), ("float", "y"), ("float", "z")]
    faces = [[(0, 1, 2, 3)], [(0, 1, 4)], [(1, 2, 4)]]
    return [("vertex", xyz, [list(v) for v in verts]),
            ("face", [("list", "uchar", "int", "vertex_indices")], faces)]


def _ply_bytes(fmt: str, elements) -> bytes:
    """A PLY file of ``elements``, each ``(name, props, rows)``: props as on a
    header line after ``property``, rows holding one value per property (a
    sequence for a list property)."""
    head, tokens, data = ["ply", f"format {fmt} 1.0"], [], b""
    for name, props, rows in elements:
        head.append(f"element {name} {len(rows)}")
        head += ["property " + " ".join(p) for p in props]
        for row in rows:
            for p, value in zip(props, row):
                if p[0] == "list":
                    items = [(p[1], len(value))] + [(p[2], v) for v in value]
                else:
                    items = [(p[0], value)]
                tokens += [str(v) for _, v in items]
                data += b"".join(struct.pack("<" + _STRUCT[t], v) for t, v in items)
    body = " ".join(tokens).encode() + b"\n" if fmt == "ascii" else data
    return "\n".join(head + ["end_header"]).encode() + b"\n" + body


def _with_face_props(elements, before, after):
    vertex, (name, props, rows) = elements
    face = (name, before + props + after,
            [[200 + i] * len(before) + row + [7] * len(after) for i, row in enumerate(rows)])
    return [vertex, face]


# extras a PLY file may declare that the loader reads past
_PLY_EXTRAS = {
    "face_red_after_the_list": lambda e: _with_face_props(e, [], [("uchar", "red")]),
    "face_flags_before_the_list": lambda e: _with_face_props(e, [("int", "flags")], []),
    "list_element_before_face": lambda e: [
        e[0], ("edge_loop", [("uchar", "kind"), ("list", "uchar", "int", "vertex_loop")],
               [[1, (0, 1, 2)], [2, (3, 4)]]), e[1]],
    "vertex_list_and_vertex_index": lambda e: [
        ("vertex", e[0][1] + [("list", "uchar", "float", "tex")],
         [row + [(0.5,) * i] for i, row in enumerate(e[0][2])]),
        ("face", [("list", "uchar", "int", "vertex_index")], e[1][2])],
}


class TestTriangleMesh:
    def test_single_triangle_cache(self, single_triangle):
        m = single_triangle
        assert m.num_faces == 1
        assert m.areas[0] == pytest.approx(0.5)
        assert np.allclose(m.normals[0], [0, 0, 1])
        assert np.allclose(m.centroids[0], [1 / 3, 1 / 3, 0])

    def test_centroid_is_vertex_mean(self):
        rng = np.random.default_rng(0)
        verts = rng.normal(size=(30, 3))
        faces = rng.integers(0, 30, size=(40, 3))
        faces = faces[np.array([len(set(f)) == 3 for f in faces])]
        m = TriangleMesh(verts, faces)
        tri = m.triangles()
        assert np.allclose(m.centroids, tri.mean(axis=1))
        assert np.allclose(np.linalg.norm(m.normals, axis=1), 1.0)
        assert np.allclose(
            m.areas, 0.5 * np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)
        )

    def test_area_sum_invariant_under_permutation(self):
        m = flat_patch(6.0)
        rng = np.random.default_rng(3)
        perm = rng.permutation(m.num_faces)
        m2 = TriangleMesh(m.vertices, m.faces[perm])
        assert m2.total_area() == pytest.approx(m.total_area())
        # vertex reordering with remapped faces
        vperm = rng.permutation(m.num_vertices)
        inv = np.empty_like(vperm)
        inv[vperm] = np.arange(m.num_vertices)
        m3 = TriangleMesh(m.vertices[vperm], inv[m.faces])
        assert m3.total_area() == pytest.approx(m.total_area())

    def test_subdivided_respects_max_area_and_total(self):
        m = flat_patch(8.0, cell=4.0)
        s = m.subdivided(0.9)
        assert s.areas.max() <= 0.9 + 1e-12
        assert s.total_area() == pytest.approx(m.total_area())

    def test_submesh(self):
        m = flat_patch(4.0)
        sub = m.submesh([0, 5, 7])
        assert sub.num_faces == 3
        assert sub.total_area() == pytest.approx(float(m.areas[[0, 5, 7]].sum()))
        with pytest.raises(EmptySceneError):
            m.submesh([])


def subdivided_reference(mesh: TriangleMesh, max_area: float) -> TriangleMesh:
    """The stack loop `TriangleMesh.subdivided` must match byte for byte once
    both sides are canonical: the input in canonical form, one face at a
    time, popped from the end, ``(m, b, c)`` pushed last, and the output
    through ``canonical``."""
    mesh = canonical(mesh.vertices, mesh.faces)
    out_verts = [v for v in mesh.vertices]
    out_faces = []
    stack = [tuple(f) for f in mesh.faces]
    while stack:
        f = stack.pop()
        p = [np.asarray(out_verts[i]) for i in f]
        area = 0.5 * np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0]))
        if area <= max_area:
            out_faces.append(f)
            continue
        edges = [
            np.linalg.norm(p[1] - p[0]),
            np.linalg.norm(p[2] - p[1]),
            np.linalg.norm(p[0] - p[2]),
        ]
        e = int(np.argmax(edges))
        a, b, c = f[e], f[(e + 1) % 3], f[(e + 2) % 3]
        mid = 0.5 * (np.asarray(out_verts[a]) + np.asarray(out_verts[b]))
        m = len(out_verts)
        out_verts.append(mid)
        stack.append((a, m, c))
        stack.append((m, b, c))
    return canonical(np.array(out_verts), np.array(out_faces, dtype=np.int64))


def assert_same_bytes(got: TriangleMesh, want: TriangleMesh) -> None:
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.faces.tobytes() == want.faces.tobytes()


def canonical_reference(vertices, faces) -> tuple[np.ndarray, np.ndarray]:
    """The ``np.unique(axis=0)`` weld that ``canonical`` replaced, kept as its
    reference: the canonical vertices and faces."""
    vertices, inverse = np.unique(np.asarray(vertices, dtype=np.float64) + 0.0, axis=0,
                                  return_inverse=True)
    faces = inverse.reshape(-1)[np.asarray(faces, dtype=np.int64)]
    turn = (np.argmin(faces, axis=1)[:, None] + np.arange(3)) % 3
    faces = np.take_along_axis(faces, turn, axis=1)
    return vertices, faces[np.lexsort(faces.T[::-1])]


@settings(max_examples=100)
@given(st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_canonical_welds_as_np_unique(n, seed):
    # coordinates on a coarse lattice repeat rows often, and half of them are
    # signed: -0.0 must weld with 0.0
    rng = np.random.default_rng(seed)
    vertices = rng.integers(-2, 3, size=(n, 3)) * rng.choice([-1.0, 1.0], size=(n, 3)) / 2.0
    faces = rng.integers(0, n, size=(max(1, n // 2), 3))
    got = canonical(vertices, faces)
    want_vertices, want_faces = canonical_reference(vertices, faces)
    assert got.vertices.tobytes() == want_vertices.tobytes()
    # both through TriangleMesh, which drops the faces on repeated corners
    assert got.faces.tobytes() == TriangleMesh(want_vertices, want_faces).faces.tobytes()


@st.composite
def soups(draw):
    """1-4 faces over a few vertices: on a half-unit lattice (tied edge
    lengths: isosceles and right triangles) or anywhere in a 20 m box, plus a
    split depth of 0-11 for the largest face."""
    n = draw(st.integers(3, 6))
    if draw(st.booleans()):
        coord = st.integers(-8, 8).map(lambda k: k / 2.0)
    else:
        coord = st.floats(-10.0, 10.0, allow_subnormal=False)
    vertices = np.array(draw(st.lists(st.tuples(coord, coord, coord), min_size=n, max_size=n)))
    corners = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
    faces = np.array(draw(st.lists(corners, min_size=1, max_size=4)))
    return vertices, faces, draw(st.integers(0, 11))


_SCENES = [SceneSpec(kind, extent, seed=seed)
           for kind in ("flat", "boxfield", "canyon") for extent in (10.0, 20.0, 30.0)
           for seed in range(4)]


class TestSubdivided:
    @pytest.mark.parametrize("spec", _SCENES, ids=lambda s: f"{s.kind}-{s.extent:g}-{s.seed}")
    def test_bit_equal_to_the_reference_on_generated_scenes(self, spec):
        scene = generate_scene(spec)
        max_area = (QualityParams().d / 4.0) ** 2
        first = preprocess_mesh(scene, QualityParams())
        assert_same_bytes(first, subdivided_reference(scene, max_area))
        assert subdivided_face_count(scene.areas, max_area) == first.num_faces
        again = preprocess_mesh(first, QualityParams())  # idempotent: the mesh itself
        assert again is first
        assert_same_bytes(again, first)

    @settings(max_examples=60)
    @given(soups())
    @example((np.array([[0, 0, 0], [2, 0, 0], [0, 2, 0], [2, 2, 0]], float),  # right, tied legs
              np.array([[0, 1, 2], [1, 3, 2]]), 12))
    @example((np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, 0, 1]], float),  # isosceles
              np.array([[0, 1, 2], [0, 1, 3], [2, 3, 0]]), 9))
    @example((np.array([[0, 0, 0], [6, 0, 0], [3, 1e-5, 0]], float),  # sliver
              np.array([[0, 1, 2]]), 11))
    def test_bit_equal_to_the_reference_on_soups(self, soup):
        vertices, faces, levels = soup
        mesh = TriangleMesh(vertices, faces)
        assume(mesh.num_faces)
        max_area = float(mesh.areas.max()) / 2.0**levels
        got = mesh.subdivided(max_area)
        assert_same_bytes(got, subdivided_reference(mesh, max_area))
        assert got.areas.max() <= max_area * (1.0 + 1e-12)  # `areas` may differ in the last bit

    @settings(max_examples=40)
    @given(soups(), st.integers(0, 2**32 - 1))
    @example((np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 0]], float),  # two longest edges tie
              np.array([[0, 1, 2]]), 3), 4)  # seed 4 turns the face to start at corner 2
    def test_output_does_not_depend_on_numbering(self, soup, seed):
        vertices, faces, levels = soup
        mesh = TriangleMesh(vertices, faces)
        assume(mesh.num_faces)
        max_area = float(mesh.areas.max()) / 2.0**levels
        again = TriangleMesh(*renumbered(mesh.vertices, mesh.faces, np.random.default_rng(seed)))
        assert_same_bytes(again.subdivided(max_area), mesh.subdivided(max_area))

    def test_no_faces(self):
        mesh = TriangleMesh(np.eye(3), np.zeros((0, 3), dtype=np.int64))
        got = mesh.subdivided(0.1)
        assert_same_bytes(got, subdivided_reference(mesh, 0.1))
        assert got.num_faces == 0 and got.num_vertices == 3

    @pytest.mark.parametrize("max_area", [float("nan"), 0.0, -1.0])
    def test_max_area_must_be_positive(self, max_area):
        with pytest.raises(ValueError, match="max_area must be positive"):
            flat_patch(2.0).subdivided(max_area)

    def test_too_many_faces_raise_before_any_split(self, monkeypatch):
        square = TriangleMesh([[0, 0, 0], [1e4, 0, 0], [1e4, 1e4, 0], [0, 1e4, 0]], [[0, 1, 2], [0, 2, 3]])
        # each 5e7 m^2 half ends as 2^ceil(log2(5e7 / 1.5625)) = 2^25 faces
        assert subdivided_face_count(square.areas, 1.5625) == 2 * 2**25
        with pytest.raises(SceneTooLargeError, match=f"about 67,108,864 faces, over the cap of {MAX_FACES:,}"):
            square.subdivided(1.5625)
        monkeypatch.setattr(mesh_module, "MAX_FACES", 64)
        assert square.subdivided(1e8 / 64).num_faces == 64  # at the cap: built
        with pytest.raises(SceneTooLargeError, match="about 128 faces, over the cap of 64"):
            square.subdivided(1e8 / 65)

    def test_count_is_exact_at_powers_of_two_and_infinite_past_floats(self):
        assert subdivided_face_count(np.array([0.5, 0.25]), 0.5) == 2
        assert subdivided_face_count(np.array([2.0, np.nextafter(2.0, 3.0)]), 0.5) == 4 + 8
        assert subdivided_face_count(np.array([np.nextafter(0.5, 1.0)]), 0.5) == 2
        for area, max_area in [(np.inf, 0.5), (np.nan, 0.5), (1e300, 1e-300)]:
            assert subdivided_face_count(np.array([1.0, area]), max_area) == np.inf


class TestLoaders:
    def test_single_triangle_obj(self, tmp_path):
        p = tmp_path / "tri.obj"
        p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        m = load_mesh(p)
        assert m.num_faces == 1
        assert m.areas[0] == pytest.approx(0.5)
        assert np.allclose(m.normals[0], [0, 0, 1])

    def test_obj_drops_degenerate_faces(self, tmp_path):
        lines = ["v 0 0 0", "v 1 0 0", "v 0 1 0", "v 2 0 0"]
        faces = ["f 1 2 3"] * 9 + ["f 1 2 4"]  # collinear -> zero area
        p = tmp_path / "deg.obj"
        p.write_text("\n".join(lines + faces) + "\n")
        m = load_mesh(p)
        assert m.num_faces == 9
        assert m.dropped_degenerate == 1

    def test_obj_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "bad.obj"
        p.write_text("v 0 0 0\nv 1 0 zz\n")
        with pytest.raises(MeshFormatError, match="line 2"):
            load_mesh(p)

    def test_obj_slash_indices_and_fans(self, tmp_path):
        p = tmp_path / "fan.obj"
        p.write_text(
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1/1 2/2 3/3 4/4\n"
        )
        m = load_mesh(p)
        assert m.num_faces == 2
        assert m.total_area() == pytest.approx(1.0)

    def test_quad_ply_ascii_splits_to_two_triangles(self, tmp_path):
        p = tmp_path / "quad.ply"
        p.write_text(
            "ply\nformat ascii 1.0\n"
            "element vertex 4\nproperty float x\nproperty float y\nproperty float z\n"
            "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
            "0 0 0\n2 0 0\n2 3 0\n0 3 0\n"
            "4 0 1 2 3\n"
        )
        m = load_mesh(p)
        assert m.num_faces == 2
        assert m.total_area() == pytest.approx(6.0)

    def test_binary_ply(self, tmp_path):
        p = tmp_path / "tri.ply"
        p.write_bytes(_PLY_TRI)
        m = load_mesh(p)
        assert m.num_faces == 1
        assert m.areas[0] == pytest.approx(0.5)

    def test_ply_with_extra_vertex_properties(self, tmp_path):
        p = tmp_path / "extra.ply"
        p.write_text(
            "ply\nformat ascii 1.0\n"
            "element vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float nx\nproperty float ny\nproperty float nz\n"
            "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
            "0 0 0 0 0 1\n1 0 0 0 0 1\n0 1 0 0 0 1\n"
            "3 0 1 2\n"
        )
        m = load_mesh(p)
        assert m.num_faces == 1
        assert m.areas[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    @pytest.mark.parametrize("extra", list(_PLY_EXTRAS))
    def test_ply_reads_every_declared_property(self, tmp_path, fmt, extra):
        # the same mesh, written with and without properties the loader skips
        plain, fancy = tmp_path / "plain.ply", tmp_path / "fancy.ply"
        plain.write_bytes(_ply_bytes(fmt, _ply_elements()))
        fancy.write_bytes(_ply_bytes(fmt, _PLY_EXTRAS[extra](_ply_elements())))
        a, b = load_mesh(plain), load_mesh(fancy)
        assert a.num_faces == 4
        assert b.vertices.tobytes() == a.vertices.tobytes()
        assert b.faces.tobytes() == a.faces.tobytes()

    def test_ply_face_without_an_index_list_raises(self, tmp_path):
        elements = _ply_elements()
        elements[1] = ("face", [("list", "uchar", "int", "corners")], elements[1][2])
        p = tmp_path / "corners.ply"
        p.write_bytes(_ply_bytes("ascii", elements))
        with pytest.raises(MeshFormatError, match="face element needs a vertex_indices list"):
            load_mesh(p)

    def test_unknown_format_is_refused(self, tmp_path):
        p = tmp_path / "tri.mesh"
        p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        with pytest.raises(MeshFormatError):
            load_mesh(p)  # extension gives no known format

    def test_non_finite_vertex_raises(self, tmp_path):
        p = tmp_path / "nan.obj"
        p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 nan\nf 1 2 3\nf 2 4 3\nf 1 4 3\n")
        with pytest.raises(MeshFormatError, match=r"nan\.obj.*vertex 4"):
            load_mesh(p)

    @pytest.mark.parametrize("name", list(_MALFORMED))
    def test_malformed_file_raises_format_error(self, tmp_path, capsys, name):
        data, where = _MALFORMED[name]
        p = tmp_path / name
        p.write_bytes(data)
        with pytest.raises(MeshFormatError, match=f"{name}.*{where}"):
            load_mesh(p)
        assert main(["plan", "--mesh", str(p), "--out", str(tmp_path / "out")]) == 1
        assert name in capsys.readouterr().err

    def test_empty_mesh_raises(self, tmp_path):
        p = tmp_path / "empty.obj"
        p.write_text("v 0 0 0\n")
        with pytest.raises(EmptySceneError):
            load_mesh(p)

    def test_save_obj_roundtrip(self, tmp_path):
        m = flat_patch(3.0)
        p = tmp_path / "patch.obj"
        m.save_obj(p)
        m2 = load_mesh(p)
        assert m2.num_faces == m.num_faces
        assert m2.total_area() == pytest.approx(m.total_area())


class TestSceneGeneration:
    def test_flat_deterministic(self):
        a = generate_scene(SceneSpec("flat", 10.0, seed=7))
        b = generate_scene(SceneSpec("flat", 10.0, seed=7))
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.faces, b.faces)

    def test_boxfield_face_count_constructive(self):
        terrain = generate_scene(SceneSpec("flat", 14.0, seed=5))
        scene = generate_scene(SceneSpec("boxfield", 14.0, obstacles=3, seed=5))
        # each open-bottom box contributes 5 quads = 10 triangles
        assert scene.num_faces == terrain.num_faces + 3 * 10

    def test_canyon_has_vertical_wall(self):
        scene = generate_scene(SceneSpec("canyon", 16.0, seed=2))
        vertical = np.abs(scene.normals[:, 2]) < 1e-12
        assert vertical.any()

    def test_boxfield_deterministic_per_seed(self):
        a = generate_scene(SceneSpec("boxfield", 12.0, obstacles=2, seed=9))
        b = generate_scene(SceneSpec("boxfield", 12.0, obstacles=2, seed=9))
        c = generate_scene(SceneSpec("boxfield", 12.0, obstacles=2, seed=10))
        assert np.array_equal(a.vertices, b.vertices)
        assert not np.array_equal(a.vertices, c.vertices)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            SceneSpec("flat", extent=-1.0)
        with pytest.raises(ValueError):
            SceneSpec("volcano")
        with pytest.raises(ValueError, match="obstacle"):
            SceneSpec("boxfield", 20.0, obstacles=-1)
        with pytest.raises(ValueError, match="extent of at least 6"):
            SceneSpec("boxfield", 5.9, obstacles=1)

    def test_smallest_boxfield_builds(self):
        assert generate_scene(SceneSpec("boxfield", 6.0, obstacles=3, seed=0)).num_faces > 0
        assert generate_scene(SceneSpec("boxfield", 4.0, obstacles=0)).num_faces > 0

    @pytest.mark.parametrize("extent,cell", [(0.5, 1.0), (1.0, 1.0), (7.5, 1.0), (12.0, 1.0), (33.3, 1.0), (9.0, 2.5)])
    def test_terrain_faces_equal_the_cell_loop(self, extent, cell):
        n = max(1, int(np.ceil(extent / cell)))
        faces = _terrain(extent, cell).faces
        assert faces.dtype == np.int64
        assert faces.tobytes() == terrain_faces_reference(n).tobytes()

    @pytest.mark.parametrize("kind", ["flat", "boxfield", "canyon"])
    @pytest.mark.parametrize("extent", [0.5, 6.0, 9.5, 14.0, 21.0])
    def test_face_count_from_the_spec(self, kind, extent):
        obstacles = 0 if kind == "boxfield" and extent < 6.0 else 4
        spec = SceneSpec(kind, extent, obstacles=obstacles, seed=3)
        assert synthetic_face_count(spec) == generate_scene(spec).num_faces

    def test_scene_over_the_cap_raises_before_it_is_built(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("the scene was built")

        monkeypatch.setattr(mesh_module, "MAX_FACES", 128 + 2 * 10 - 1)
        for builder in ("_terrain", "_box"):
            monkeypatch.setattr(mesh_module, builder, unbuilt)
        assert synthetic_face_count(SceneSpec("flat", 8.0)) == 128
        with pytest.raises(SceneTooLargeError, match="the canyon scene of extent 8 m would have 148 faces, over the cap of 147"):
            generate_scene(SceneSpec("canyon", 8.0))
        monkeypatch.undo()
        monkeypatch.setattr(mesh_module, "MAX_FACES", 148)
        assert generate_scene(SceneSpec("canyon", 8.0)).num_faces == 148  # at the cap: built


@settings(max_examples=60)
@given(
    kind=st.sampled_from(["boxfield", "canyon"]),
    extent=st.floats(6.0, 60.0),
    obstacles=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_box_scenes_equal_the_append_loop(kind, extent, obstacles, seed):
    spec = SceneSpec(kind, extent, obstacles=obstacles, seed=seed)
    verts, faces = box_scene_reference(spec)
    scene = generate_scene(spec)
    assert scene.vertices.tobytes() == verts.tobytes()
    assert scene.faces.dtype == faces.dtype and scene.faces.tobytes() == faces.tobytes()


def box_scene_reference(spec: SceneSpec) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and faces of a boxfield or canyon as the loop built them before
    box offsets were kept as a running sum: each box's faces are moved past the
    summed lengths of every vertex block before it."""

    def box(cx, cy, sx, sy, z0, z1):
        x0, x1 = cx - sx / 2, cx + sx / 2
        y0, y1 = cy - sy / 2, cy + sy / 2
        v = np.array(
            [
                [x0, y0, z0], [x1, y0, z0], [x1, y1, z0], [x0, y1, z0],
                [x0, y0, z1], [x1, y0, z1], [x1, y1, z1], [x0, y1, z1],
            ]
        )
        faces = []
        for a, b, c, d in [(4, 5, 6, 7), (0, 1, 5, 4), (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7)]:
            faces.extend([(a, b, c), (a, c, d)])
        return v, np.array(faces, dtype=np.int64)

    extent, rng = spec.extent, np.random.default_rng(spec.seed)
    terrain = _terrain(extent)
    boxes = []
    if spec.kind == "boxfield":
        for _ in range(spec.obstacles):
            sx = float(rng.uniform(2.0, min(5.0, extent / 3)))
            sy = float(rng.uniform(2.0, min(5.0, extent / 3)))
            h = float(rng.uniform(2.0, 6.0))
            cx = float(rng.uniform(sx / 2 + 1.0, extent - sx / 2 - 1.0))
            cy = float(rng.uniform(sy / 2 + 1.0, extent - sy / 2 - 1.0))
            boxes.append(box(cx, cy, sx, sy, 0.0, h))
    else:
        gap = float(rng.uniform(max(3.0, extent / 6), max(4.0, extent / 4)))
        height = float(rng.uniform(5.0, 8.0))
        thick = float(rng.uniform(1.0, 2.0))
        for side in (-1.0, 1.0):
            cy = extent / 2 + side * (gap / 2 + thick / 2)
            boxes.append(box(extent / 2, cy, extent * 0.8, thick, 0.0, height))
    verts_list, faces_list = [terrain.vertices], [terrain.faces]
    for v, f in boxes:
        faces_list.append(f + sum(len(x) for x in verts_list))
        verts_list.append(v)
    mesh = TriangleMesh(np.concatenate(verts_list), np.concatenate(faces_list))
    return mesh.vertices, mesh.faces


def terrain_faces_reference(n: int) -> np.ndarray:
    """The cell loop that built the terrain's faces before it was vectorised."""
    faces = []
    for i in range(n):
        for j in range(n):
            a = i * (n + 1) + j
            b = a + n + 1
            faces.append((a, b, a + 1))
            faces.append((a + 1, b, b + 1))
    return np.array(faces, dtype=np.int64)


class TestDegradeProxy:
    def test_identity(self):
        m = flat_patch(6.0)
        out = degrade_proxy(m, 0.0, seed=0)
        assert np.array_equal(out.vertices, m.vertices)
        assert np.array_equal(out.faces, m.faces)

    def test_faces_kept_one_to_one(self):
        m = generate_scene(SceneSpec("boxfield", 12.0, obstacles=2, seed=4))
        out = degrade_proxy(m, 0.25, seed=5)
        assert np.array_equal(out.faces, m.faces)
        assert out.num_vertices == m.num_vertices
        assert not np.array_equal(out.vertices, m.vertices)

    def test_noise_displacement_bounded(self):
        m = _terrain(22.0)
        out = degrade_proxy(m, 0.1, seed=11)
        disp = np.linalg.norm(out.vertices - m.vertices, axis=1)
        assert disp.max() == pytest.approx(0.3623567688368005)
        assert disp.max() <= 5 * 0.1

    def test_deterministic(self):
        m = flat_patch(8.0)
        a = degrade_proxy(m, 0.05, seed=3)
        b = degrade_proxy(m, 0.05, seed=3)
        assert np.array_equal(a.vertices, b.vertices)

    def test_bad_args(self):
        m = flat_patch(2.0)
        with pytest.raises(ValueError):
            degrade_proxy(m, -1.0, seed=0)
