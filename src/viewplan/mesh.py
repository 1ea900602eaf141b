"""Triangle meshes: representation, file I/O, synthetic scenes, the noisy proxy.

Meshes are stored indexed (shared vertices) with 64-bit coordinates and a
per-face cache of centroids, unit normals and areas. Instances are immutable
after construction and safe to query from multiple workers.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bvh import Bvh
from .errors import EmptySceneError, MeshFormatError, ProxyOverflowError, SceneTooLargeError

_DEGENERATE_AREA = 1e-12  # of a face's longest edge squared
MAX_FACES = 2**20  # cap on subdivided faces and on lattice views; ~700x the largest benchmark scene


def count_text(n) -> str:
    """A face or view count for a message: exact and comma-grouped up to
    10^12, in scientific notation above it (``5.14e+301``), where an exact
    count can run to hundreds of digits."""
    if n <= 10**12:
        return f"{n:,.0f}"
    if isinstance(n, float) and not math.isfinite(n):
        return str(n)
    # an int count can outrun a float: keep its leading 300 digits
    shift = max(0, len(str(n)) - 300) if isinstance(n, int) else 0
    mantissa, exponent = f"{float(n // 10**shift):.2e}".split("e")
    return f"{mantissa}e+{int(exponent) + shift}"


def row_norms(x: np.ndarray) -> np.ndarray:
    """Row norms of (n, 3) ``x``, bit-equal to the 1-d ``np.linalg.norm`` (a
    BLAS dot) of each row; ``einsum`` and ``(x * x).sum(1)`` differ from it
    in the last bit on about a tenth of rows."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(dx*dx + dy*dy) + dz*dz between the broadcast (3, ...) component rows
    ``a`` and ``b``, one component at a time: the bits of
    ``((p - q) ** 2).sum(axis=-1)`` on (..., 3) rows, with no length-3 axis."""
    sq = a[0] - b[0]
    sq *= sq
    for k in (1, 2):
        t = a[k] - b[k]
        t *= t
        sq += t
    return sq


def subdivided_face_count(areas: np.ndarray, max_area: float) -> float:
    """Faces that ``TriangleMesh.subdivided(max_area)`` makes of faces with
    these areas: each bisection halves the area, so a face of area
    A > max_area ends as 2^ceil(log2(A / max_area)) faces. Infinite when an
    area or a ratio is not finite."""
    with np.errstate(over="ignore"):
        ratio = areas[~(areas <= max_area)] / max_area
        if not np.isfinite(ratio).all():
            return math.inf
        mantissa, exponent = np.frexp(ratio)  # ratio = mantissa * 2^exponent, 0.5 <= mantissa < 1
        levels = np.maximum(exponent - (mantissa == 0.5), 1)  # ceil(log2(ratio)), exactly
        return float(len(areas) - len(ratio) + np.ldexp(1.0, levels).sum())


def canonical(vertices, faces) -> "TriangleMesh":
    """The mesh in the one order that does not depend on how its vertices,
    faces and corners were numbered: bit-equal vertices welded and sorted
    lexicographically, each face turned to start at its smallest vertex id
    (a cyclic turn, so its orientation is kept), and the faces lexsorted.
    Signed zeros become +0.0 first: the sort counts -0.0 equal to 0.0, so
    which of the two it kept would depend on the input order. The weld is a
    lexsort of the rows, a mask of the rows that differ from the one before,
    and its cumulative sum as the inverse: ``np.unique(axis=0)``'s vertices
    and inverse, without its structured-dtype sort. The mesh returned is
    marked canonical, so ``subdivided`` can return it as it is."""
    vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3) + 0.0
    order = np.lexsort(vertices.T[::-1])
    rows = vertices[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    faces = inverse[np.asarray(faces, dtype=np.int64).reshape(-1, 3)]
    turn = (np.argmin(faces, axis=1)[:, None] + np.arange(3)) % 3
    faces = np.take_along_axis(faces, turn, axis=1)
    mesh = TriangleMesh(rows[new], faces[np.lexsort(faces.T[::-1])])
    mesh._canonical = True
    return mesh


class TriangleMesh:
    """Indexed triangle mesh with cached per-face geometry.

    Degenerate faces, whose area is at most ``_DEGENERATE_AREA`` times their
    longest edge squared (slivers and zero-area faces, at any scale), are
    dropped at construction unless ``drop_degenerate=False``; the number
    removed is kept in ``dropped_degenerate``.
    """

    def __init__(self, vertices, faces, *, drop_degenerate: bool = True):
        vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
        try:
            faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
            in_range = not faces.size or (faces.min() >= 0 and faces.max() < len(vertices))
        except OverflowError:  # an index past int64
            in_range = False
        if not in_range:
            raise MeshFormatError("face references a vertex index out of range")

        tri = vertices[faces]  # (F, 3, 3)
        # coordinates near the float limit overflow to non-finite areas and
        # normals, which the callers check for by name
        with np.errstate(over="ignore", invalid="ignore"):
            edges = tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
            cross = np.cross(*edges)
            norms = np.linalg.norm(cross, axis=1)
        areas = 0.5 * norms

        self.dropped_degenerate = 0
        if drop_degenerate and faces.size:
            with np.errstate(over="ignore", invalid="ignore"):
                sides = [np.einsum("ij,ij->i", e, e) for e in (*edges, edges[1] - edges[0])]
                longest = np.max(sides, axis=0)  # squared
            # an infinite area is kept, for ``load_mesh`` to name
            keep = (areas > _DEGENERATE_AREA * longest) | np.isinf(areas)
            self.dropped_degenerate = int((~keep).sum())
            faces = faces[keep]
            tri = tri[keep]
            cross = cross[keep]
            norms = norms[keep]
            areas = areas[keep]

        self.vertices = vertices
        self.faces = faces
        self.centroids = tri.mean(axis=1)
        self.areas = areas
        safe = np.where(norms > 0.0, norms, 1.0)
        with np.errstate(invalid="ignore"):  # an overflowed cross product
            self.normals = cross / safe[:, None]

        for arr in (self.vertices, self.faces, self.centroids, self.areas, self.normals):
            arr.setflags(write=False)
        self._canonical = False  # set by ``canonical``
        self._derived = {}  # results computed from this mesh, by ``cached``

    # -- basic queries -------------------------------------------------

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def total_area(self) -> float:
        return float(self.areas.sum())

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box as (min_xyz, max_xyz)."""
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def triangles(self) -> np.ndarray:
        """Per-face corner coordinates, shape (F, 3, 3)."""
        return self.vertices[self.faces]

    def cached(self, key, compute):
        """``compute()``, computed on the first call with this key and kept
        with the mesh after it. The mesh is immutable, so a result derived
        from it stays valid; the key names everything else it depends on."""
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]

    @property
    def bvh(self):
        return self.cached("bvh", lambda: Bvh(self.triangles()))

    # -- occlusion -----------------------------------------------------

    def occluded(self, src, dst) -> bool:
        """True iff any face blocks the open segment between two points.

        Hits within a relative 1e-6 of either endpoint are ignored so that a
        query from a view to a centroid lying on this mesh does not
        self-intersect.
        """
        src = np.asarray(src, dtype=np.float64)
        dst = np.asarray(dst, dtype=np.float64)
        if not np.any(src != dst):
            raise ValueError("occlusion query endpoints coincide")
        return bool(self.occluded_many(src, dst)[0])

    def occluded_many(self, sources, targets) -> np.ndarray:
        """Vectorised batch of `occluded` queries; returns a bool array.

        Every batch, whatever the face count, walks the cached ``bvh``.
        """
        return self.bvh.occluded(sources, targets)

    # -- derived meshes --------------------------------------------------

    def submesh(self, face_indices) -> "TriangleMesh":
        """Mesh restricted to the given faces (vertices compacted)."""
        face_indices = np.asarray(face_indices, dtype=np.int64)
        if face_indices.size == 0:
            raise EmptySceneError("submesh with no faces")
        sub = self.faces[face_indices]
        used, inverse = np.unique(sub, return_inverse=True)
        return TriangleMesh(self.vertices[used], inverse.reshape(-1, 3))

    def with_vertices(self, vertices) -> "TriangleMesh":
        """Same topology with replaced vertex positions (faces kept 1:1)."""
        return TriangleMesh(vertices, self.faces, drop_degenerate=False)

    def subdivided(self, max_area: float) -> "TriangleMesh":
        """Split faces by longest-edge bisection until all areas <= max_area,
        and return the result in ``canonical`` form.

        An input not yet canonical is put in canonical form first, so the
        splits do not depend on how the vertices, faces or corners were
        numbered; when no face of that canonical mesh splits, it is returned
        itself, with what it has cached. A face with area above ``max_area``
        is split at the midpoint ``m`` of its longest edge ``(a, b)`` (the
        first of equal lengths, in the order 01, 12, 20) into ``(m, b, c)``
        and ``(a, m, c)``. All faces of one tree depth are split in one
        vectorised step. The output welds bit-equal vertices, so the two faces
        on an edge share its midpoint, and a second call returns the same mesh
        unless an area lies within rounding of ``max_area``.

        Each split halves the area, so a face of area A > max_area ends as
        2^ceil(log2(A / max_area)) faces; SceneTooLargeError is raised before
        anything is built when that count, summed over the faces, exceeds
        MAX_FACES. Splits are per-face, so an edge split on one side only
        leaves a T-junction; planning only consumes the face soup, where that
        is harmless.
        """
        if not max_area > 0.0:
            raise ValueError(f"max_area must be positive, got {max_area}")
        estimate = subdivided_face_count(self.areas, max_area)
        if not estimate <= MAX_FACES:
            raise SceneTooLargeError(
                f"subdividing to faces of at most {max_area:g} m^2 would make about "
                f"{count_text(estimate)} faces, over the cap of {MAX_FACES:,}"
            )
        mesh = self if self._canonical else canonical(self.vertices, self.faces)
        ids = mesh.faces  # corner vertex ids of one depth's faces
        pts = mesh.vertices[ids]
        vertices = [mesh.vertices]  # then each depth's midpoints
        leaves = [np.zeros((0, 3), dtype=np.int64)]  # each depth's unsplit faces
        next_mid = mesh.num_vertices
        while len(ids):
            area = 0.5 * row_norms(np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]))
            split = ~(area <= max_area)
            if len(leaves) == 1 and not split.any():
                return mesh
            leaves.append(ids[~split])
            ids, pts = ids[split], pts[split]
            edges = np.roll(pts, -1, axis=1) - pts  # 01, 12, 20
            e = np.argmax(row_norms(edges.reshape(-1, 3)).reshape(-1, 3), axis=1)
            abc = (e[:, None] + np.arange(3)) % 3
            rows = np.arange(len(ids))[:, None]
            (a, b, c), (pa, pb, pc) = ids[rows, abc].T, pts[rows, abc].transpose(1, 0, 2)
            mids = 0.5 * (pa + pb)
            m = np.arange(next_mid, next_mid + len(mids))
            next_mid += len(mids)
            vertices.append(mids)
            ids = np.stack([m, b, c, a, m, c], axis=1).reshape(-1, 3)
            pts = np.stack([mids, pb, pc, pa, mids, pc], axis=1).reshape(-1, 3, 3)
        return canonical(np.concatenate(vertices), np.concatenate(leaves))

    def save_obj(self, path) -> None:
        lines = [f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}" for v in self.vertices]
        lines += [f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}" for f in self.faces]
        Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------


def load_mesh(path) -> TriangleMesh:
    """Load an OBJ or PLY file, the format given by the file's suffix.

    Raises MeshFormatError (with a line number where possible) on parse
    failure or a non-finite vertex coordinate, and EmptySceneError when no
    non-degenerate faces remain.
    """
    path = Path(path)
    fmt = path.suffix.lower().lstrip(".")
    if fmt == "obj":
        vertices, faces = _load_obj(path)
    elif fmt == "ply":
        try:
            vertices, faces = _load_ply(path)
        except (ValueError, KeyError, IndexError, struct.error) as exc:  # less data than declared
            raise MeshFormatError(f"{path}: PLY data does not match its header") from exc
    else:
        raise MeshFormatError(f"unsupported mesh format: {fmt!r}")
    try:
        mesh = TriangleMesh(vertices, faces)
    except MeshFormatError as exc:  # a face index out of range
        raise MeshFormatError(f"{path}: {exc}") from exc
    bad = np.nonzero(~np.isfinite(mesh.vertices).all(axis=1))[0]
    if bad.size:
        raise MeshFormatError(f"{path}: vertex {bad[0] + 1} has a non-finite coordinate")
    bad = np.nonzero(~np.isfinite(mesh.areas))[0]
    if bad.size:
        a, b, c = (mesh.faces[bad[0]] + 1).tolist()
        raise MeshFormatError(
            f"{path}: the face on vertices {a}, {b}, {c} has a non-finite area "
            f"({mesh.areas[bad[0]]}); its coordinates are too large to compute with"
        )
    if mesh.num_faces == 0:
        raise EmptySceneError(f"{path}: no non-degenerate faces")
    return mesh


def _fan(indices: list[int]) -> list[tuple[int, int, int]]:
    return [(indices[0], indices[i], indices[i + 1]) for i in range(1, len(indices) - 1)]


def _load_obj(path: Path) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    verts: list[list[float]] = []
    faces: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        tag = parts[0]
        try:
            if tag == "v":
                if len(parts) < 4:
                    raise ValueError("vertex with fewer than 3 coordinates")
                verts.append([float(x) for x in parts[1:4]])
            elif tag == "f":
                idx = []
                for tok in parts[1:]:
                    i = int(tok.split("/")[0])
                    idx.append(i - 1 if i > 0 else len(verts) + i)
                if len(idx) < 3:
                    raise ValueError("face with fewer than 3 vertices")
                faces.extend(_fan(idx))
        except (ValueError, IndexError) as exc:
            raise MeshFormatError(f"{path}: line {lineno}: {exc}") from exc
    return np.array(verts, dtype=np.float64).reshape(-1, 3), faces


_PLY_TYPES = {
    "char": "i1", "uchar": "u1", "int8": "i1", "uint8": "u1",
    "short": "i2", "ushort": "u2", "int16": "i2", "uint16": "u2",
    "int": "i4", "uint": "u4", "int32": "i4", "uint32": "u4",
    "float": "f4", "float32": "f4", "double": "f8", "float64": "f8",
}


_PLY_STRUCT = {name: np.dtype(code).char for name, code in _PLY_TYPES.items()}


def _load_ply(path: Path) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    blob = path.read_bytes()
    try:
        header_end = blob.index(b"end_header\n") + len(b"end_header\n")
    except ValueError as exc:
        raise MeshFormatError(f"{path}: missing end_header") from exc
    header = blob[:header_end].decode("ascii", errors="replace").splitlines()

    fmt = None
    elements: list[tuple[str, int, list[tuple[str, ...]]]] = []
    for lineno, line in enumerate(header, start=1):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "format":
            fmt = parts[1]
        elif parts[0] == "element":
            if len(parts) != 3 or not parts[2].isdigit():
                raise MeshFormatError(f"{path}: line {lineno}: element needs a name and a count")
            elements.append((parts[1], int(parts[2]), []))
        elif parts[0] == "property":
            if not elements:
                raise MeshFormatError(f"{path}: line {lineno}: property before element")
            unknown = [t for t in parts[1:-1] if t != "list" and t not in _PLY_TYPES]
            if unknown:
                raise MeshFormatError(f"{path}: line {lineno}: unknown property type {unknown[0]!r}")
            elements[-1][2].append(tuple(parts[1:]))
    if fmt not in ("ascii", "binary_little_endian"):
        raise MeshFormatError(f"{path}: unsupported PLY format {fmt!r}")

    rows, values = _ply_reader(blob[header_end:], fmt)
    verts = None
    faces: list[tuple[int, int, int]] = []
    for name, count, props in elements:
        names = [p[-1] for p in props]
        lists = [i for i, p in enumerate(props)
                 if p[0] == "list" and p[-1] in ("vertex_indices", "vertex_index")]
        if name == "vertex" and not {"x", "y", "z"} <= set(names):
            raise MeshFormatError(f"{path}: vertex element needs x, y and z properties")
        if name == "face" and not lists:
            raise MeshFormatError(f"{path}: face element needs a vertex_indices list")
        # every property of every row, in file order
        if all(p[0] != "list" for p in props):
            columns = list(rows([p[0] for p in props], count).T)
        else:
            columns = [[] for _ in props]
            for _ in range(count):
                for col, p in zip(columns, props):
                    if p[0] == "list":
                        col.append(values(p[2], int(values(p[1], 1)[0])))
                    else:
                        col.extend(values(p[0], 1))
        if name == "vertex":
            verts = np.stack([np.asarray(columns[names.index(a)], np.float64) for a in "xyz"], 1)
        elif name == "face":
            for idx in columns[lists[0]]:
                faces.extend(_fan(idx))
    if verts is None:
        raise MeshFormatError(f"{path}: no vertex element")
    return verts, faces


def _ply_reader(body: bytes, fmt: str):
    """Readers of an ASCII or little-endian binary PLY body: ``rows(types, n)``
    takes n rows of scalar properties of the given types as an (n, len(types))
    array, and ``values(ptype, n)`` n values of one type as Python numbers.
    Both raise ValueError or struct.error past the end of the body."""
    tokens = body.decode("ascii").split() if fmt == "ascii" else None
    pos = 0

    def rows(types, n: int) -> np.ndarray:
        nonlocal pos
        if tokens is not None:
            out = np.array(tokens[pos : pos + n * len(types)], dtype=np.float64)
            pos += n * len(types)
            return out.reshape(n, len(types))
        dt = np.dtype([(f"p{i}", "<" + _PLY_TYPES[t]) for i, t in enumerate(types)])
        out = np.frombuffer(body, dtype=dt, count=n, offset=pos)
        pos += dt.itemsize * n
        return np.stack([out[f] for f in dt.names], axis=1)

    def values(ptype: str, n: int):
        nonlocal pos
        if tokens is None:
            code = f"<{n}{_PLY_STRUCT[ptype]}"
            out = struct.unpack_from(code, body, pos)
            pos += struct.calcsize(code)
            return out
        row = tokens[pos : pos + n]
        if len(row) != n:
            raise ValueError(f"PLY body ends before {n} more values")
        pos += n
        return list(map(float if _PLY_STRUCT[ptype] in "fd" else int, row))

    return rows, values


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for a synthetic scene; the seed fully determines the mesh."""

    kind: str = "flat"  # flat | boxfield | canyon | file
    extent: float = 20.0
    obstacles: int = 3
    seed: int = 0
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("flat", "boxfield", "canyon", "file"):
            raise ValueError(f"unknown scene kind {self.kind!r}")
        if self.kind != "file" and not 0.0 < self.extent < np.inf:
            raise ValueError(f"scene extent must be positive and finite, got {self.extent}")
        if self.kind == "file" and not self.path:
            raise ValueError("file scene requires a path")
        if self.obstacles < 0:
            raise ValueError("obstacle count must be non-negative")
        if self.kind == "boxfield" and self.obstacles > 0 and self.extent < 6.0:
            # box sides are drawn from [2, min(5, extent / 3)]
            raise ValueError("boxfield with obstacles needs an extent of at least 6")


def generate_scene(spec: SceneSpec) -> TriangleMesh:
    """The mesh a spec describes. A synthetic scene over MAX_FACES faces
    raises SceneTooLargeError before any of it is built, and one with no
    non-degenerate faces EmptySceneError, as a file without faces does."""
    if spec.kind == "file":
        return load_mesh(spec.path)
    faces = synthetic_face_count(spec)
    if faces > MAX_FACES:
        raise SceneTooLargeError(
            f"the {spec.kind} scene of extent {spec.extent:g} m would have "
            f"{count_text(faces)} faces, over the cap of {MAX_FACES:,}"
        )
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "flat":
        mesh = _terrain(spec.extent)
    elif spec.kind == "boxfield":
        mesh = _boxfield(spec.extent, spec.obstacles, rng)
    else:
        mesh = _canyon(spec.extent, rng)
    if mesh.num_faces == 0:
        raise EmptySceneError(f"the {spec.kind} scene of extent {spec.extent:g} m "
                              "has no non-degenerate faces")
    return mesh


def synthetic_face_count(spec: SceneSpec) -> int:
    """Faces of a synthetic scene, counted from its spec: two per terrain
    cell and ten per box (five quads; boxes have no bottom). A face too small
    to keep is counted too, so this is exact or over."""
    boxes = {"flat": 0, "boxfield": spec.obstacles, "canyon": 2}[spec.kind]
    return 2 * _terrain_cells(spec.extent) ** 2 + 10 * boxes


def _terrain_cells(extent: float) -> int:
    """Cells along each side of the terrain lattice, each at most 1 m."""
    return max(1, int(np.ceil(extent)))


def _terrain(extent: float) -> TriangleMesh:
    n = _terrain_cells(extent)
    xs = np.linspace(0.0, extent, n + 1)
    ys = np.linspace(0.0, extent, n + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    verts = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)
    # cell (i, j), i-major: triangles (a, b, a + 1) and (a + 1, b, b + 1)
    a = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    b = a + n + 1
    faces = np.stack([a, b, a + 1, a + 1, b, b + 1], axis=1).reshape(-1, 3)
    return TriangleMesh(verts, faces)


# five quads of a box's eight corners, fanned: top, then the y0, x1, y1 and x0
# walls; no bottom, since boxes sit on the terrain and their undersides are unreachable
_BOX_FACES = np.array(
    [tri for quad in ((4, 5, 6, 7), (0, 1, 5, 4), (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7))
     for tri in _fan(list(quad))],
    dtype=np.int64,
)
_BOX_FACES.flags.writeable = False


def _box(cx, cy, sx, sy, z0, z1) -> tuple[np.ndarray, np.ndarray]:
    x0, x1 = cx - sx / 2, cx + sx / 2
    y0, y1 = cy - sy / 2, cy + sy / 2
    v = np.array(
        [
            [x0, y0, z0], [x1, y0, z0], [x1, y1, z0], [x0, y1, z0],
            [x0, y0, z1], [x1, y0, z1], [x1, y1, z1], [x0, y1, z1],
        ]
    )
    return v, _BOX_FACES


def _with_boxes(terrain: TriangleMesh, boxes: list) -> TriangleMesh:
    """The terrain and each box's ``(vertices, faces)``, in order, as one mesh:
    a box's faces move past every vertex block before it."""
    verts = [terrain.vertices, *(v for v, _ in boxes)]
    base = np.cumsum([len(v) for v in verts])
    faces = [terrain.faces, *(f + b for (_, f), b in zip(boxes, base))]
    return TriangleMesh(np.concatenate(verts), np.concatenate(faces))


def _boxfield(extent: float, count: int, rng: np.random.Generator) -> TriangleMesh:
    terrain = _terrain(extent)
    boxes = []
    for _ in range(count):
        sx = float(rng.uniform(2.0, min(5.0, extent / 3)))
        sy = float(rng.uniform(2.0, min(5.0, extent / 3)))
        h = float(rng.uniform(2.0, 6.0))
        cx = float(rng.uniform(sx / 2 + 1.0, extent - sx / 2 - 1.0))
        cy = float(rng.uniform(sy / 2 + 1.0, extent - sy / 2 - 1.0))
        boxes.append(_box(cx, cy, sx, sy, 0.0, h))
    return _with_boxes(terrain, boxes)


def _canyon(extent: float, rng: np.random.Generator) -> TriangleMesh:
    terrain = _terrain(extent)
    gap = float(rng.uniform(max(3.0, extent / 6), max(4.0, extent / 4)))
    height = float(rng.uniform(5.0, 8.0))
    thick = float(rng.uniform(1.0, 2.0))
    mid = extent / 2
    length = extent * 0.8
    walls = [mid + side * (gap / 2 + thick / 2) for side in (-1.0, 1.0)]
    return _with_boxes(terrain, [_box(mid, cy, length, thick, 0.0, height) for cy in walls])


# ---------------------------------------------------------------------------
# noisy proxy
# ---------------------------------------------------------------------------


def degrade_proxy(mesh: TriangleMesh, sigma: float, seed: int) -> TriangleMesh:
    """Noisy stand-in for a first-pass reconstruction of ``mesh``.

    Each vertex moves along its area-weighted normal by an N(0, sigma)
    offset; faces are kept 1:1. Deterministic per seed; ``sigma == 0``
    returns an unperturbed copy. ProxyOverflowError when the moved faces'
    areas or normals overflow, as a sigma far beyond the scene's size makes them.
    """
    if sigma < 0.0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    rng = np.random.default_rng(seed)
    offsets = rng.normal(0.0, sigma, size=mesh.num_vertices)
    with np.errstate(over="ignore", invalid="ignore"):
        proxy = mesh.with_vertices(
            mesh.vertices + _vertex_normals(mesh.vertices, mesh.faces) * offsets[:, None]
        )
    if not (np.isfinite(proxy.areas).all() and np.isfinite(proxy.normals).all()):
        raise ProxyOverflowError(
            f"the proxy's vertex noise (sigma {sigma:g} m) overflows its face areas; "
            f"the noise is a multiple of d, and d is too large for this scene"
        )
    return proxy


def _vertex_normals(verts: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Area-weighted unit vertex normals; +z for a vertex in no face or whose
    face normals cancel to 1e-12 of their summed lengths, at any scale."""
    tri = verts[faces]
    cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])  # area-weighted
    vn = np.zeros_like(verts)
    for k in range(3):
        np.add.at(vn, faces[:, k], cross)
    total = np.bincount(faces.ravel(), np.repeat(row_norms(cross), 3), minlength=len(verts))
    norms = np.linalg.norm(vn, axis=1)
    keep = norms > 1e-12 * total
    return np.where(keep[:, None], vn / np.where(norms == 0, 1, norms)[:, None], [0.0, 0.0, 1.0])
