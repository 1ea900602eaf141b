"""Viewing rectangles: cluster faces, elevate, fit planes, bound, merge.

Each cluster of mesh faces is lifted along its mean normal by the viewing
distance, a total-least-squares plane is fitted to the lifted centroids, and
the minimum-area enclosing rectangle of their in-plane projections becomes
the candidate camera surface for that cluster. Rectangles whose planes cross
each other are shrunk until no pair properly intersects.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateClusterError, MergeNonTerminationError, ViewPlanError
from .bvh import cross
from .mesh import TriangleMesh, row_norms, squared_distances
from .quality import QualityParams, unit_directions

_EPS = 1e-9  # relative tolerance
_CROSS_EPS = 1e-9  # of the larger half-size tested: a crossing's cut and corner offsets exceed it
MAX_CLUSTERS = 50  # the most clusters, so rectangles, a scene is split into
_KMEANS_ITERS = 100  # Lloyd iterations at most
# an axis orientation is dominant when its faces hold this share of the area
_DOMINANT_AREA_FRACTION = 0.05


@dataclass
class FaceCluster:
    """A group of faces with their mean normal and member centroids."""

    indices: np.ndarray
    mean_normal: np.ndarray  # unit, or zero when member normals cancel
    points: np.ndarray  # member face centroids, (n, 3)

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass
class ViewingRectangle:
    """Planar rectangle: center, outward normal, in-plane orthonormal axes."""

    center: np.ndarray
    normal: np.ndarray
    axis_u: np.ndarray
    axis_v: np.ndarray
    half_w: float
    half_h: float

    @property
    def width(self) -> float:
        return 2.0 * self.half_w

    @property
    def height(self) -> float:
        return 2.0 * self.half_h

    @property
    def area(self) -> float:
        return self.width * self.height

    def corners(self) -> np.ndarray:
        c, u, v = self.center, self.axis_u, self.axis_v
        return np.array(
            [
                c - u * self.half_w - v * self.half_h,
                c + u * self.half_w - v * self.half_h,
                c + u * self.half_w + v * self.half_h,
                c - u * self.half_w + v * self.half_h,
            ]
        )

    def from_plane(self, uv: np.ndarray) -> np.ndarray:
        uv = np.atleast_2d(uv)
        return self.center + uv[:, :1] * self.axis_u + uv[:, 1:2] * self.axis_v

    def widened(self, min_extent: float) -> "ViewingRectangle":
        return ViewingRectangle(
            self.center,
            self.normal,
            self.axis_u,
            self.axis_v,
            max(self.half_w, min_extent / 2.0),
            max(self.half_h, min_extent / 2.0),
        )


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------


def _seed_draw(d2: np.ndarray, total: float, rng: np.random.Generator) -> int:
    """The index ``rng.choice(len(d2), p=d2 / total)`` draws, from the same
    one ``rng.random()`` call: the normalised cdf of the weights searched
    from the right, without ``choice``'s per-call checks."""
    cdf = (d2 / total).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeanspp(points: np.ndarray, rng: np.random.Generator):
    """k-means++ seeding as a generator of centers, rows of ``points``: the
    first uniformly, each later one by ``_seed_draw`` on the squared distances
    to the nearest earlier center. From one generator state the first k
    centers do not depend on how many are drawn after them, so one draw
    serves every k a search tries."""
    n = len(points)
    coords = np.ascontiguousarray(points.T)  # (3, n) rows
    d2 = np.full(n, np.inf)
    pick = int(rng.integers(n))
    while True:
        yield points[pick]
        # squared distances that overflow make an infinite total, raised by name
        with np.errstate(over="ignore"):
            d2 = np.minimum(d2, squared_distances(coords, points[pick]))
            total = d2.sum()
        if not math.isfinite(total):
            raise ViewPlanError(
                f"k-means++ seeding overflowed: the squared distances of {n} points to their "
                f"nearest center sum to {total}; the points lie too far apart to cluster"
            )
        pick = int(rng.integers(n)) if total <= 0 else _seed_draw(d2, total, rng)


def _lloyd(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Lloyd's algorithm from the given (k, 3) centers, which it updates in
    place; returns the labels. Empty clusters are re-seeded from the point
    farthest from every current center."""
    k, n = len(centers), len(points)
    coords = np.ascontiguousarray(points.T)  # (3, n) rows
    dist = np.empty((k, n))  # squared distance from each center to each point
    stale = np.ones(k, dtype=bool)  # centers whose row of ``dist`` is out of date
    sums = np.empty((k, 3))
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(_KMEANS_ITERS):
        # each entry depends on its center and point alone, so only the rows
        # of centers that moved are recomputed
        dist[stale] = squared_distances(coords, centers[stale].T[:, :, None])
        new_labels = dist.argmin(axis=0)
        counts = np.bincount(new_labels, minlength=k)
        if not counts.all():
            # the m-th re-seed takes the m-th farthest point; a cluster that a
            # re-seed empties is re-seeded in turn when its index comes later
            order = np.argsort(-dist.min(axis=0), kind="stable")
            reseeded = 0
            for j in range(k):
                if counts[j] == 0:
                    far = order[reseeded]
                    reseeded += 1
                    counts[new_labels[far]] -= 1
                    counts[j] += 1
                    new_labels[far] = j
        # sequential per-cluster sums, as ``members.mean(axis=0)`` adds them
        for axis, row in enumerate(coords):
            sums[:, axis] = np.bincount(new_labels, weights=row, minlength=k)
        filled = counts > 0
        means = sums[filled] / counts[filled, None]
        # a center equal to its old value, -0.0 against 0.0 included, gives equal distances
        stale[:] = False
        stale[filled] = (means != centers[filled]).any(axis=1)
        centers[filled] = means
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator):
    """Lloyd's algorithm from the first k centers of a k-means++ draw; returns
    the labels and the centers."""
    centers = np.array(list(itertools.islice(_kmeanspp(points, rng), k)))
    return _lloyd(points, centers), centers


def _check_cluster_count(mesh: TriangleMesh, k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > mesh.num_faces:
        raise ValueError(f"k={k} exceeds face count {mesh.num_faces}")


def cluster_faces(mesh: TriangleMesh, k: int, seed: int = 0) -> list[FaceCluster]:
    """Partition faces by k-means over their centroid positions."""
    _check_cluster_count(mesh, k)
    labels, _ = _kmeans(mesh.centroids, k, np.random.default_rng(seed))
    return _clusters_of(mesh, np.arange(mesh.num_faces), labels)


def _clusters_of(mesh: TriangleMesh, indices: np.ndarray, labels: np.ndarray) -> list[FaceCluster]:
    """One cluster per label that has members, in label order; ``labels[i]``
    is face ``indices[i]``'s label. Each cluster keeps its members in the
    order of ``indices``, ascending when ``indices`` is."""
    order = np.argsort(labels, kind="stable")
    groups = np.split(indices[order], np.flatnonzero(np.diff(labels[order])) + 1)
    return [_make_cluster(mesh, idx) for idx in groups]


def _make_cluster(mesh: TriangleMesh, idx: np.ndarray) -> FaceCluster:
    mean = mesh.normals[idx].mean(axis=0)
    norm = np.linalg.norm(mean)
    unit = mean / norm if norm > 1e-9 else np.zeros(3)
    return FaceCluster(idx, unit, mesh.centroids[idx])


# ---------------------------------------------------------------------------
# plane fit + minimum rectangle
# ---------------------------------------------------------------------------


_XY = np.dtype([("x", np.float64), ("y", np.float64)])


def _convex_hull_2d(pts: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain; returns CCW hull vertices (>= 1 point).

    Duplicates go as ``np.unique(pts, axis=0)`` drops them, by the same sort
    of (x, y) records, so that of rows equal up to the sign of a zero the
    same one is kept. The chain runs on Python floats, whose arithmetic is
    the IEEE arithmetic of numpy's float64 scalars."""
    rows = np.array(pts, dtype=np.float64, order="C").view(_XY).ravel()
    rows.sort()
    keep = np.empty(len(rows), dtype=bool)
    keep[:1] = True
    keep[1:] = rows[1:] != rows[:-1]
    uniq = rows[keep].view(np.float64).reshape(-1, 2)
    if len(uniq) <= 2:
        return uniq
    p = uniq.tolist()  # sorted by x, then y

    def cross2(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(points):
        out: list[list[float]] = []
        for q in points:
            while len(out) >= 2 and cross2(out[-2], out[-1], q) <= 0:
                out.pop()
            out.append(q)
        return out

    lower = half(p)
    upper = half(p[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _min_area_rects(point_sets: list[np.ndarray], d: float) -> list[tuple]:
    """Smallest enclosing rectangle of each set of 2-d points (rotating
    calipers), as (center, edge_dir, half_w, half_h) in the input frame.
    Lengths and areas compare to within _EPS (d / 5) and _EPS (d / 5)^2, so
    they scale with d.

    Every hull's edge-direction projections come from one padded stacked
    matmul, (B, 1, H, 2) @ (B, D, 2, 1), whose entries are bit for bit each
    hull's own ``hull @ e`` (elementwise ``x * e0 + y * e1`` is not). Padded
    hull rows repeat the hull's first vertex, so they move no extreme, and
    the zero rows that pad the directions are never scanned.
    """
    unit = d / 5.0
    out: list = [None] * len(point_sets)
    hulls, dir_sets, slots = [], [], []
    for slot, pts in enumerate(point_sets):
        hull = _convex_hull_2d(pts)
        if len(hull) == 1:
            out[slot] = hull[0], np.array([1.0, 0.0]), 0.0, 0.0
            continue
        span = hull[1] - hull[0]
        # a span within _EPS * unit gives no direction (one whose squared length
        # is subnormal does not even normalise to unit length): the general path
        # boxes it axis-aligned, as it does a polygon of such edges
        if len(hull) == 2 and np.linalg.norm(span) > _EPS * unit:
            e = span / np.linalg.norm(span)
            out[slot] = hull.mean(axis=0), e, float(np.linalg.norm(span)) / 2.0, 0.0
            continue
        edges = np.roll(hull, -1, axis=0) - hull
        lens = np.linalg.norm(edges, axis=1)
        dirs = edges[lens > _EPS * unit] / lens[lens > _EPS * unit, None]
        if len(dirs) == 0:  # every edge too short to give a direction: axis-aligned box
            dirs = np.array([[1.0, 0.0]])
        hulls.append(hull)
        dir_sets.append(dirs)
        slots.append(slot)
    if not slots:
        return out

    stacked_hulls = np.empty((len(slots), max(map(len, hulls)), 2))
    stacked_dirs = np.zeros((len(slots), max(map(len, dir_sets)), 2))
    for b, (hull, dirs) in enumerate(zip(hulls, dir_sets)):
        stacked_hulls[b, : len(hull)] = hull
        stacked_hulls[b, len(hull) :] = hull[0]
        stacked_dirs[b, : len(dirs)] = dirs
    perps = np.stack([-stacked_dirs[..., 1], stacked_dirs[..., 0]], axis=-1)
    xs = (stacked_hulls[:, None] @ stacked_dirs[..., None])[..., 0]  # (B, D, H)
    ys = (stacked_hulls[:, None] @ perps[..., None])[..., 0]
    x_lo, x_hi, y_lo, y_hi = xs.min(axis=2), xs.max(axis=2), ys.min(axis=2), ys.max(axis=2)
    areas = (x_hi - x_lo) * (y_hi - y_lo)
    for b, (slot, dirs) in enumerate(zip(slots, dir_sets)):
        # the first direction of least area, up to the area tolerance
        scan = areas[b, : len(dirs)].tolist()
        pick, best_area = 0, scan[0]
        for i, area in enumerate(scan[1:], 1):
            if area < best_area - _EPS * unit * unit:
                pick, best_area = i, area
        e, x0, x1, y0, y1 = dirs[pick], x_lo[b, pick], x_hi[b, pick], y_lo[b, pick], y_hi[b, pick]
        perp = np.array([-e[1], e[0]])
        center = e * (x0 + x1) / 2.0 + perp * (y0 + y1) / 2.0
        out[slot] = center, e, (x1 - x0) / 2.0, (y1 - y0) / 2.0
    return out


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of two 3-vectors: ``bvh.cross`` on their floats, the same
    products and differences, without ``np.cross``'s per-call axis handling."""
    return np.array(cross(a.tolist(), b.tolist()))


def orthonormal_frames(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """In-plane unit axes (u, v) for each row of ``normals``, (n, 3) unit rows,
    so that (u, v, normal) is right-handed; u is crossed with the coordinate
    axis the normal leans on least."""
    axis = np.zeros_like(normals)
    axis[np.arange(len(normals)), np.argmin(np.abs(normals), axis=1)] = 1.0
    u = unit_directions(np.cross(normals, axis))
    return u, np.cross(normals, u)


def _plane_frame(cluster: FaceCluster, d: float):
    """The elevated cluster's plane: its lifted centroid, oriented normal and
    in-plane axes (u, v), with the lifted points in (u, v) coordinates about
    that centroid; DegenerateClusterError when the mean normal cancels or
    cannot orient the fitted plane."""
    mu = cluster.mean_normal
    if np.linalg.norm(mu) < 0.5:
        raise DegenerateClusterError("cluster mean normal cancels to zero")
    elevated = cluster.points + d * mu
    center0 = elevated.mean(axis=0)
    rel = elevated - center0

    svals = np.zeros(3)
    if len(rel) >= 3:  # two points about their mean have rank 1; one SVD: rank and plane
        _, svals, vt = np.linalg.svd(rel, full_matrices=False)
    rank = int((svals > 1e-9 * svals[0]).sum())
    if rank >= 2:
        normal = vt[2] / np.linalg.norm(vt[2])
        if abs(float(normal @ mu)) < 1e-9:
            raise DegenerateClusterError("fitted plane cannot be oriented by the mean normal")
        if float(normal @ mu) < 0:
            normal = -normal
        u = vt[0] / np.linalg.norm(vt[0])
        v = _cross(normal, u)
    else:
        normal = mu
        (u,), (v,) = orthonormal_frames(normal[None, :])
    return center0, normal, u, v, np.stack([rel @ u, rel @ v], axis=1)


def _bounded(frames: list, d: float) -> list[ViewingRectangle]:
    """The minimal rectangle of each ``_plane_frame``'s points, in its plane;
    all of them from one ``_min_area_rects`` call."""
    boxes = _min_area_rects([frame[4] for frame in frames], d)
    out = []
    for (center0, normal, u, v, _), (c2, e, hw, hh) in zip(frames, boxes):
        axis_u = e[0] * u + e[1] * v
        axis_u /= np.linalg.norm(axis_u)
        axis_v = _cross(normal, axis_u)
        center = center0 + c2[0] * u + c2[1] * v
        out.append(ViewingRectangle(center, normal, axis_u, axis_v, float(hw), float(hh)))
    return out


def fit_rectangles(clusters: list[FaceCluster], d: float) -> list[ViewingRectangle]:
    """Fit each elevated cluster's plane and bound it with a minimal
    rectangle; raises the DegenerateClusterError of the first cluster that
    cannot be fitted. The cluster's centroids are lifted by d along the
    cluster mean normal. The fitted plane is the principal plane of the
    lifted points; when those points are rank-deficient the plane orthogonal
    to the mean normal through the lifted centroid is used instead."""
    return _bounded([_plane_frame(cluster, d) for cluster in clusters], d)


def fit_rectangle(cluster: FaceCluster, d: float) -> ViewingRectangle:
    """``fit_rectangles`` of one cluster; raises DegenerateClusterError when
    it cannot be fitted."""
    return fit_rectangles([cluster], d)[0]


# ---------------------------------------------------------------------------
# merge of properly intersecting rectangles
# ---------------------------------------------------------------------------


def _plane_line(a: ViewingRectangle, b: ViewingRectangle):
    """Intersection line of the two rectangle planes, or None if parallel."""
    along = _cross(a.normal, b.normal)
    n = np.linalg.norm(along)
    if n < 1e-9:
        return None
    direction = along / n
    mat = np.stack([a.normal, b.normal])
    rhs = np.array([a.normal @ a.center, b.normal @ b.center])
    point, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    return point, direction


def _chord(rect: ViewingRectangle, point: np.ndarray, direction: np.ndarray, eps: float):
    """The 3-d line in the rectangle's (u, v) frame, ``(q0, e)``, with the
    parameter interval ``(t0, t1)`` of its stretch inside the rectangle;
    None unless it leaves rectangle corners more than eps on both sides."""
    q0 = np.array([(point - rect.center) @ rect.axis_u, (point - rect.center) @ rect.axis_v])
    e = np.array([direction @ rect.axis_u, direction @ rect.axis_v])
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
    m = np.array([-e[1], e[0]])
    hw, hh = rect.half_w, rect.half_h
    s = (np.array([[-hw, -hh], [hw, -hh], [hw, hh], [-hw, hh]]) - q0) @ m
    if not (s.min() < -eps and s.max() > eps):
        return None
    return (q0, e), (t0, t1)


def rectangles_intersect(a: ViewingRectangle, b: ViewingRectangle):
    """The cut when the planes' intersection line properly cuts both
    rectangles and the cut segments overlap (the merge rule's notion of
    intersecting): the line in each rectangle's (u, v) frame, ``((qa, ea),
    (qb, eb))``. None otherwise."""
    eps = _CROSS_EPS * max(a.half_w, a.half_h, b.half_w, b.half_h)
    line = _plane_line(a, b)
    chord_a = line and _chord(a, *line, eps)
    chord_b = chord_a and _chord(b, *line, eps)
    if not chord_b:
        return None
    (ta0, ta1), (tb0, tb1) = chord_a[1], chord_b[1]
    if min(ta1, tb1) - max(ta0, tb0) <= eps:
        return None
    return chord_a[0], chord_b[0]


def _largest_piece_rect(rect: ViewingRectangle, q0: np.ndarray, e: np.ndarray) -> ViewingRectangle:
    """Shrink ``rect`` to the biggest axis-aligned rectangle inside its larger
    piece after cutting along the given in-plane line.

    A rectangle is centrally symmetric, so the larger piece is the one holding
    its centre, the plane origin: side +1 when ``m @ q0 <= 0``. The
    replacement is contained in both the source rectangle and the kept
    half-plane, so a processed pair can never intersect again and total area
    never increases.
    """
    m = np.array([-e[1], e[0]])
    hw, hh = rect.half_w, rect.half_h
    offset = float(m @ q0)
    side = 1.0 if offset <= 0.0 else -1.0

    # keep-side constraint rewritten as a*u + b*v <= c
    a, b = -side * m
    c = -side * offset

    du = -1.0 if a > 0 else 1.0  # anchor corner minimises a*u + b*v
    dv = -1.0 if b > 0 else 1.0
    u0, v0 = du * hw, dv * hh
    a2, b2 = a * -du, b * -dv  # growth coefficients (>= 0)
    c2 = c - a * u0 - b * v0
    big_u, big_v = 2 * hw, 2 * hh
    if c2 < 0:
        c2 = 0.0
    if a2 * big_u + b2 * big_v <= c2:
        x, y = big_u, big_v
    elif a2 < 1e-12:
        x, y = big_u, min(big_v, c2 / b2)
    elif b2 < 1e-12:
        x, y = min(big_u, c2 / a2), big_v
    else:
        xh, yh = c2 / (2 * a2), c2 / (2 * b2)
        if xh <= big_u and yh <= big_v:
            x, y = xh, yh
        elif xh > big_u:
            x, y = big_u, min(big_v, (c2 - a2 * big_u) / b2)
        else:
            x, y = min(big_u, (c2 - b2 * big_v) / a2), big_v
    x, y = max(x, 0.0), max(y, 0.0)

    lo_u, hi_u = sorted((u0, u0 - du * x))
    lo_v, hi_v = sorted((v0, v0 - dv * y))
    center2 = np.array([(lo_u + hi_u) / 2.0, (lo_v + hi_v) / 2.0])
    center = rect.from_plane(center2[None, :])[0]
    return ViewingRectangle(
        center, rect.normal, rect.axis_u, rect.axis_v, (hi_u - lo_u) / 2.0, (hi_v - lo_v) / 2.0
    )


def _candidate_pairs(rects: list[ViewingRectangle]) -> list[tuple[int, int]]:
    """The pairs ``i < j`` of ``rects`` that can cross, in lexicographic order.

    Bounding-circle broad phase: only pairs whose centres lie within ``R_i +
    R_j + slack`` of each other are kept, where ``R = hypot(half_w, half_h)``
    is a rectangle's circumradius and ``slack`` is ``1e-9 * max(1, largest
    |centre coordinate| + largest R)``. Plane-side cull: of those, a pair is
    dropped when all four corners of one rectangle lie more than ``slack``
    on one side of the other's plane.

    Neither drops a crossing pair: ``rectangles_intersect`` needs a stretch
    of the plane line inside both rectangles that leaves corners of each on
    both sides. A point inside both lies within both circumscribed discs, so
    the discs overlap; and the line lies in both planes, so corners on both
    sides of it in one rectangle lie on both sides of the other's plane. The
    slack covers the rounding of both tests: of order 1e-12 of the scene
    scale for the discs (the ``1e-12`` parallel-axis cut-off in ``_chord``),
    and a few ulps of it for the corner offsets here. Near-parallel planes
    magnify the rounding of the line that ``rectangles_intersect`` places
    as 1 / sin of their angle, but they stretch a corner's distance from
    that line by the same factor.
    """
    centers = np.array([rect.center for rect in rects])
    radii = np.array([math.hypot(rect.half_w, rect.half_h) for rect in rects])
    slack = 1e-9 * max(1.0, float(np.abs(centers).max() + radii.max()))
    first, second = np.triu_indices(len(rects), 1)
    gap = np.linalg.norm(centers[first] - centers[second], axis=1)
    near = gap <= radii[first] + radii[second] + slack
    first, second = first[near], second[near]
    corners = np.array([rect.corners() for rect in rects])  # (n, 4, 3)
    normals = np.array([rect.normal for rect in rects])

    def beyond(a, b):
        """Whether all of a's corners lie more than slack on one side of b's plane."""
        side = ((corners[a] - centers[b, None]) @ normals[b, :, None])[:, :, 0]
        return (side > slack).all(axis=1) | (side < -slack).all(axis=1)

    keep = ~(beyond(first, second) | beyond(second, first))
    return list(zip(first[keep].tolist(), second[keep].tolist()))


def merge_intersecting(rects: list[ViewingRectangle]) -> list[ViewingRectangle]:
    """Resolve every properly-intersecting pair by shrinking both rectangles
    to their largest piece on one side of the cut ``rectangles_intersect``
    returns, the mutual plane line.

    Pairs are visited once each, in lexicographic order. That gives the same
    result as rescanning from the first pair after every shrink: a shrink
    replaces a rectangle by a sub-rectangle of itself in the same plane, so a
    pair that did not cross cannot start crossing, and a rescan would only
    find the next crossing pair of this pass. Raises MergeNonTerminationError
    when a final scan still finds a crossing pair; it rechecks only pairs
    with a shrunk member, since the pass saw every other pair as it is.

    Only ``_candidate_pairs`` are tested. A shrink returns a sub-rectangle
    of its input in the same plane, so what that selection drops of the input
    pairs it would drop of every later state of them too, and the final
    recheck is drawn from the same pairs.
    """
    out = list(rects)
    if len(out) < 2:
        return out
    pairs = _candidate_pairs(out)
    shrunk: set[int] = set()
    for i, j in pairs:
        cut = rectangles_intersect(out[i], out[j])
        if cut:
            for k, (q0, e) in zip((i, j), cut):
                out[k] = _largest_piece_rect(out[k], q0, e)
            shrunk.update((i, j))
    recheck = [(i, j) for i, j in pairs if i in shrunk or j in shrunk]
    if any(rectangles_intersect(out[i], out[j]) for i, j in recheck):
        raise MergeNonTerminationError("rectangle merge left a crossing pair")
    return out


# ---------------------------------------------------------------------------
# end-to-end construction
# ---------------------------------------------------------------------------


def default_cluster_count(mesh: TriangleMesh, d: float) -> int:
    """Heuristic: target rectangles on the scale of 8 viewing distances."""
    k = math.ceil(mesh.total_area() / (8.0 * d) ** 2)
    return int(min(MAX_CLUSTERS, max(1, k)))


def _split_by_normals(mesh: TriangleMesh, cluster: FaceCluster, seed: int) -> list[FaceCluster]:
    labels, _ = _kmeans(mesh.normals[cluster.indices], 2, np.random.default_rng(seed))
    return _clusters_of(mesh, cluster.indices, labels)


def build_avr(
    mesh: TriangleMesh,
    params: QualityParams,
    k: int | None = None,
    seed: int = 0,
    *,
    max_k: float = math.inf,
) -> list[tuple[ViewingRectangle, FaceCluster]]:
    """Cluster the mesh, fit one viewing rectangle per cluster, and merge
    crossing rectangles; no pair of the returned rectangles crosses.

    Without ``k`` the clusters are ``suggest_cluster_count(mesh, params.d,
    seed, max_k)``'s, at most ``MAX_CLUSTERS`` and ``max_k`` of them; an
    explicit ``k`` above the face count is capped at it.
    Clusters whose plane cannot be fitted are split by normal direction, and
    their parts, in order, make the next round (up to three rounds, then the
    DegenerateClusterError is raised); the planes of every round are bounded
    at once. The rectangles keep their fitted extent: a caller that lays a
    grid on them widens them to its resolution.
    """
    if mesh.num_faces == 0:
        raise ValueError("cannot build viewing rectangles for an empty mesh")
    if k is None:
        _, clusters = suggest_cluster_count(mesh, params.d, seed, max_k)
    else:
        clusters = cluster_faces(mesh, min(k, mesh.num_faces), seed)

    fitted: list[tuple] = []  # (plane frame, cluster)
    depth = 0
    while clusters:
        parts = []
        for cluster in clusters:
            try:
                fitted.append((_plane_frame(cluster, params.d), cluster))
            except DegenerateClusterError:
                if depth >= 3 or cluster.size < 2:
                    raise
                parts += _split_by_normals(mesh, cluster, seed + depth + 1)
        clusters, depth = parts, depth + 1

    merged = merge_intersecting(_bounded([frame for frame, _ in fitted], params.d))
    return [(rect, cluster) for rect, (_, cluster) in zip(merged, fitted)]


def _normal_bucket_count(mesh: TriangleMesh) -> int:
    """Number of dominant face orientations, by area, over the six axis
    directions. A scene mixing roofs and walls needs at least one rectangle
    per orientation family to keep depths inside the distance band."""
    dominant = np.argmax(np.abs(mesh.normals), axis=1)
    signs = np.take_along_axis(mesh.normals, dominant[:, None], axis=1)[:, 0] >= 0
    bucket = dominant * 2 + signs.astype(int)
    area = np.bincount(bucket, weights=mesh.areas, minlength=6)
    return int(max(1, (area >= _DOMINANT_AREA_FRACTION * mesh.total_area()).sum()))


def _compact(mesh: TriangleMesh, labels: np.ndarray, d: float) -> bool:
    """The search's test of k-means labels: every cluster's centroids span a
    box whose diagonal is at most 10 d, and its faces' mean normal is at least
    0.85 long. The mean normals are per-cluster sums in face order divided by
    the counts: ``normals[members].mean(axis=0)`` up to the sign of a zero."""
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels)
    filled = counts > 0
    starts = (np.cumsum(counts) - counts)[filled]
    points = mesh.centroids[order]
    extent = np.maximum.reduceat(points, starts) - np.minimum.reduceat(points, starts)
    sums = np.stack([np.bincount(labels, weights=row) for row in mesh.normals.T], axis=1)
    means = sums[filled] / counts[filled, None]
    return bool(row_norms(extent).max() <= 10.0 * d and row_norms(means).min() >= 0.85)


def suggest_cluster_count(
    mesh: TriangleMesh, d: float, seed: int, max_k: float = math.inf
) -> tuple[int, list[FaceCluster]]:
    """Pick k from scene area and orientation diversity, then grow it while
    clusters stay spatially stretched (far-apart patches need their own
    rectangles) or orientation-incoherent (mixed normals tilt the plane fit
    out of the distance band). k stays within min(MAX_CLUSTERS, max_k, face
    count). The test runs at most six times: after six failures the doubled
    k is taken untested, as is a k that reaches the cap.

    Every k tried runs Lloyd from the first k centers of one k-means++ draw
    seeded by ``seed``, which are the centers ``cluster_faces(mesh, k, seed)``
    draws. Returns k with ``cluster_faces(mesh, k, seed)``."""
    cap = min(MAX_CLUSTERS, max_k, mesh.num_faces)
    k = min(cap, max(default_cluster_count(mesh, d), _normal_bucket_count(mesh)))
    draw = _kmeanspp(mesh.centroids, np.random.default_rng(seed))
    centers: list[np.ndarray] = []

    def labels_at(k: int) -> np.ndarray:
        centers.extend(itertools.islice(draw, k - len(centers)))  # k only grows
        return _lloyd(mesh.centroids, np.array(centers))

    for _ in range(6):
        if k >= cap:
            break
        labels = labels_at(k)
        if _compact(mesh, labels, d):
            return k, _clusters_of(mesh, np.arange(mesh.num_faces), labels)
        k = min(cap, k * 2)
    _check_cluster_count(mesh, k)
    return k, _clusters_of(mesh, np.arange(mesh.num_faces), labels_at(k))
