"""Visibility predicate, per-face triangulation quality, and scene coverage.

A view sees a face when the segment to the face centroid is unoccluded, its
length lies inside the distance band [d - eps_d, d + eps_d], the centroid
falls inside the view's cone of half-angle ``HALF_FOV`` (45 degrees), and the
face fronts the view. Face quality is sin(theta) / (d1 * d2) for the pair of
visible views subtending the widest angle at the centroid.

All operations are pure functions over an immutable mesh and trajectory
(``tours.Trajectory``: position and unit direction arrays).
``visibility_matrix`` is the one visibility test; ``is_visible`` and
``visible_set`` read entries of it. ``pair_quality`` is the one scorer: it
scores the rows of a boolean (faces x views) matrix over the views each row
marks and names each widest pair by its two columns. Each cosine is
``(x0*y0 + x1*y1) + x2*y2`` of its two unit vectors, so a pair's angle
depends on its own two views alone, never on the other views or rows of the
call. Handed the scores of the first ``k`` columns, the kernel therefore
scores only the pairs that end at a later column and merges their widest
with the old best under the row-major tie rule, which gives the bits of
scoring every pair; scoring from scratch is the case ``k = 0``. A GVS pick
scores only its new view's pairs this way.

``evaluate_coverage(..., previous=report)`` extends a report to a longer
trajectory whose first ``k`` views are exactly the ``k`` views ``report``
scored. It casts rays only for the new views, and for the faces whose
visible set grew scores only the pairs that end at a new view, so it returns
the report a from-scratch evaluation would; a from-scratch evaluation is the
extension of the report of no views.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .mesh import TriangleMesh, row_norms

HALF_FOV = math.pi / 4  # full field of view is pi/2

STATUS_PASS = "pass"
STATUS_FAIL_COUNT = "fail-count"
STATUS_FAIL_QUALITY = "fail-quality"
STATUS_INFEASIBLE = "infeasible"


def unit_directions(d) -> np.ndarray:
    """Rows of ``d`` at unit length, the same bits as ``v / np.linalg.norm(v)``
    row by row (see ``row_norms``); the one place a pose direction is
    normalised. Raises ValueError on a zero row."""
    d = np.asarray(d, dtype=np.float64).reshape(-1, 3)
    n = row_norms(d)[:, None]
    if (n < 1e-12).any():
        raise ValueError("view direction must be non-zero")
    return d / n


@dataclass(frozen=True)
class QualityParams:
    """Coverage requirements: distance band, view count, quality threshold.

    ``d`` is the planner's one length scale: every other planner length (the
    footprint, grid resolution, lattice steps, explore altitude and proxy
    noise) is a multiple of it. ``epsilon_d`` defaults to its admissible
    maximum (sqrt(2) - 1) * d / 2, which keeps the farthest in-frame feature
    within a factor sqrt(2) of the nominal viewing distance. ``r`` is the
    grid resolution the planned visits start from, in (0, d]; it defaults to
    ``default_quality_resolution`` of the other fields.
    ``min_pair_angle``/``max_pair_angle`` optionally restrict which view pairs
    are eligible for the quality score; both default to off, and each lies in
    [0, pi] with min <= max.
    """

    d: float = 5.0
    epsilon_d: float | None = None
    t: int = 3
    q_star: float = 0.014
    budget: int = 300
    min_pair_angle: float | None = None
    max_pair_angle: float | None = None
    r: float | None = None

    def __post_init__(self):
        for name in ("d", "epsilon_d", "q_star", "min_pair_angle", "max_pair_angle"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.d <= 0:
            raise ValueError("viewing distance d must be positive")
        # the largest area the planner derives from d is a cluster's (8 d)^2
        # (rectangles.default_cluster_count); the footprint (d / 4)^2 is smaller
        if not math.isfinite(8.0 * self.d * 8.0 * self.d):
            raise ValueError(f"d must be small enough that (8 d)^2 is finite, got {self.d}")
        limit = (math.sqrt(2.0) - 1.0) * self.d / 2.0
        if self.epsilon_d is None:
            object.__setattr__(self, "epsilon_d", limit)
        if not 0.0 <= self.epsilon_d <= limit * (1.0 + 1e-12):
            raise ValueError(f"epsilon_d must lie in [0, {limit:.6g}]")
        if self.t < 2:
            raise ValueError("visible-view requirement t must be >= 2")
        if self.q_star <= 0:
            raise ValueError("q_star must be positive")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        lo, hi = self.min_pair_angle, self.max_pair_angle
        for name, value in (("min_pair_angle", lo), ("max_pair_angle", hi)):
            if value is not None and not 0.0 <= value <= math.pi:
                raise ValueError(f"{name} must lie in [0, pi], got {value}")
        if lo is not None and hi is not None and lo > hi:
            raise ValueError(f"min_pair_angle {lo} exceeds max_pair_angle {hi}")
        # the default lattice is below 0.42 d; one coarser than d has no use,
        # and one near the float limit overflows the tour lengths
        note = ""
        if self.r is None:
            object.__setattr__(self, "r", default_quality_resolution(self))
            note = f", the default at eps_d = {self.epsilon_d:g}"
        if not 0.0 < self.r <= self.d:
            raise ValueError(f"r must be positive and at most d = {self.d:g}, got {self.r:g}{note}")

    @property
    def band(self) -> tuple[float, float]:
        return self.d - self.epsilon_d, self.d + self.epsilon_d


def default_quality_resolution(params: QualityParams) -> float:
    """Grid spacing fine enough that any face at nominal depth keeps at least
    three lattice views inside the distance band.

    The in-band lateral radius at depth d is sqrt((d + eps)^2 - d^2); the
    factor 0.6 leaves room for faces near the rectangle boundary, whose third
    nearest lattice point sits up to ~1.6 grid steps away."""
    hi = params.d + params.epsilon_d
    lateral = math.sqrt(max(hi * hi - params.d * params.d, 0.0))
    return min(params.d, 0.6 * lateral)


# ---------------------------------------------------------------------------
# visibility
# ---------------------------------------------------------------------------


def is_visible(face: int, pose, mesh: TriangleMesh, params: QualityParams) -> bool:
    """Whether the one-pose trajectory ``pose`` sees ``face``: its
    ``visibility_matrix`` entry. ValueError for any other trajectory length."""
    if len(pose) != 1:
        raise ValueError(f"is_visible takes a one-pose trajectory, got {len(pose)} poses")
    return bool(visibility_matrix(mesh, pose, params, faces=[face])[0, 0])


def visible_set(face: int, trajectory, mesh: TriangleMesh, params: QualityParams) -> set[int]:
    row = visibility_matrix(mesh, trajectory, params, faces=[face])[0]
    return set(np.nonzero(row)[0].tolist())


# (faces x views) entries one block of the cull makes: bounds its float
# temporaries at a few hundred KB whatever the call's size; a face with more
# views than that is a block of its own
_CULL_ENTRIES = 1 << 15


def visibility_matrix(
    mesh: TriangleMesh,
    trajectory,
    params: QualityParams,
    *,
    faces: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean (faces x views) visibility, C-ordered, ray casting only the
    pairs that pass the band, front-facing and cone tests.

    The tests run over blocks of faces of at most ``_CULL_ENTRIES`` entries
    (or one face), on (faces, views) planes one coordinate at a time, so no
    (faces, views, 3) temporary is made. The distance is
    ``sqrt((x*x + y*y) + z*z)`` and each dot product ``(a0*b0 + a1*b1) +
    a2*b2``: the bits of ``np.linalg.norm(axis=-1)`` and ``.sum(axis=-1)``
    over a last axis of three, but for the sign of a zero dot product, which
    no comparison sees. The surviving pairs of every block go to one
    ``occluded_many`` call.
    """
    pos, dirs = trajectory.positions, trajectory.directions
    if faces is None:
        faces = np.arange(mesh.num_faces)
    faces = np.asarray(faces, dtype=np.int64)
    n_f, n_v = len(faces), len(pos)
    vis = np.zeros((n_f, n_v), dtype=bool)
    if n_f == 0 or n_v == 0:
        return vis

    c = mesh.centroids[faces]
    nrm = mesh.normals[faces]
    lo, hi = params.band
    cos_fov = math.cos(HALF_FOV)
    rows = max(1, _CULL_ENTRIES // n_v)
    for f0 in range(0, n_f, rows):
        cb, nb = c[f0 : f0 + rows, :, None], nrm[f0 : f0 + rows, :, None]
        ox, oy, oz = (pos[:, k] - cb[:, k] for k in range(3))  # face -> view
        dist = np.sqrt((ox * ox + oy * oy) + oz * oz)
        cand = (dist >= lo) & (dist <= hi)
        cand &= (nb[:, 0] * ox + nb[:, 1] * oy) + nb[:, 2] * oz > 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            cos_view = (dirs[:, 0] * -ox + dirs[:, 1] * -oy) + dirs[:, 2] * -oz
            cos_view /= np.where(dist > 0, dist, 1.0)
        vis[f0 : f0 + rows] = cand & (cos_view >= cos_fov)

    fi, vi = np.nonzero(vis)
    if len(fi):
        blocked = mesh.occluded_many(pos[vi], c[fi])
        vis[fi[blocked], vi[blocked]] = False
    return vis


# ---------------------------------------------------------------------------
# quality
# ---------------------------------------------------------------------------


# new pairs one chunk of points makes: bounds the kernel's temporaries (a
# chunk's unit vectors and flat pair arrays) at a few hundred KB whatever the
# call's size; a point with more new pairs than that is a chunk of its own
_BLOCK_ENTRIES = 1 << 14


def pair_quality(
    centroids: np.ndarray,
    positions: np.ndarray,
    mask: np.ndarray,
    params: QualityParams,
    *,
    k: int = 0,
    previous=None,
):
    """Widest-angle pair statistics of each row of ``mask`` over the views it
    marks.

    ``centroids`` (F, 3), ``positions`` (m, 3) and ``mask`` (F, m) boolean:
    row f is scored over ``positions[cols]`` for its true columns ``cols``.
    Returns ``(theta, q, pair)`` of shapes (F,), (F,) and (F, 2), ``pair``
    holding columns. theta and q are 0 and the pair is -1 when fewer than two
    views, or no pair inside the angle clamps, exist. Of equally wide pairs
    the first in row-major (i, j) order wins. Each cosine is ``(x0*y0 +
    x1*y1) + x2*y2`` of the pair's two unit vectors, so a pair's angle
    depends on its own two views alone. A view at its point has no
    direction, and its pairs are never eligible.

    ``previous``, the ``(theta, q, pair)`` this function returns for the rows
    over the first ``k`` columns of ``mask``, limits the work to the pairs
    (i, j), i < j, whose later view lies in column ``k`` or after; the widest
    of them is merged with the previous best. At equal angle an old pair
    (a, b) beats a new pair (i, j) exactly when a <= i, the row-major rule,
    so the result is the bits of scoring every pair. With ``k = 0`` every
    pair is new and ``previous`` is not read; this is the one kernel either
    way.

    The rows with new pairs are taken in chunks of about ``_BLOCK_ENTRIES``
    of them. A chunk makes the offsets, norms and unit vectors of its views
    in one pass and lists its new pairs as flat arrays, each row's in
    row-major order, so a row's widest pair is the first maximum of its run.
    """
    centroids = np.asarray(centroids, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    n = len(mask)
    if not 0 <= k <= mask.shape[1]:
        raise ValueError(f"k = {k} lies outside the mask's {mask.shape[1]} columns")
    if k == 0:
        theta, q, pair = np.zeros(n), np.zeros(n), np.full((n, 2), -1, dtype=np.int64)
    elif previous is None:
        raise ValueError(f"scores over the first {k} columns need their previous scores")
    else:
        theta = np.array(previous[0], dtype=np.float64)
        q = np.array(previous[1], dtype=np.float64)
        pair = np.array(previous[2], dtype=np.int64)
    cols = mask.nonzero()[1]  # each row's true columns, ascending, row after row
    counts = np.count_nonzero(mask, axis=1)
    scored = np.count_nonzero(mask[:, :k], axis=1)
    new = (counts - scored) * (counts + scored - 1) // 2  # pairs ending at a new view
    rows = new.nonzero()[0]
    if len(rows) == 0:
        return theta, q, pair
    end = counts.cumsum()  # past each row's last view in ``cols``
    start, p_row = end - counts, new[rows]
    th, dd = np.empty(len(rows)), np.empty(len(rows))  # widest new angle, its distance product
    ab = np.empty((len(rows), 2), dtype=np.int64)  # and its pair
    # a chunk starts at each row whose preceding new pairs pass a multiple
    # of _BLOCK_ENTRIES
    cuts = []
    if p_row.sum() > _BLOCK_ENTRIES:
        cuts = (np.diff((p_row.cumsum() - p_row) // _BLOCK_ENTRIES).nonzero()[0] + 1).tolist()
    for c0, c1 in zip([0, *cuts], [*cuts, len(rows)]):
        # the chunk's run of rows, those between them without new pairs
        # included, and their views, numbered from the run's first
        f0, f1 = rows[c0], rows[c1 - 1] + 1
        v0, m = start[f0], counts[f0:f1]
        run = cols[v0 : end[f1 - 1]]
        # offsets from the point; sqrt((x*x + y*y) + z*z) is the bits of
        # np.linalg.norm over their rows
        unit = positions.take(run, axis=0) - centroids[f0:f1].repeat(m, axis=0)
        sq = unit * unit
        dist = np.sqrt((sq[:, 0] + sq[:, 1]) + sq[:, 2])
        with np.errstate(invalid="ignore"):  # a view at its point: 0 / 0
            unit /= dist[:, None]
        # row-major: view v pairs with its row's views from max(v + 1, the
        # row's first new view) to its last
        v = np.arange(len(unit))
        lo = np.maximum(v + 1, (start[f0:f1] + scored[f0:f1] - v0).repeat(m))
        width = (end[f0:f1] - v0).repeat(m) - lo
        w0 = width.cumsum() - width
        vi = v.repeat(width)
        vj = np.arange(w0[-1] + width[-1]) + (lo - w0).repeat(width)
        # each cosine (x0*y0 + x1*y1) + x2*y2
        prod = unit.take(vi, axis=0)
        prod *= unit.take(vj, axis=0)
        ang = prod[:, 0] + prod[:, 1]
        ang += prod[:, 2]
        # clipped to [-1, 1] in place by the two ufuncs np.clip is made of
        np.arccos(np.maximum(np.minimum(ang, 1.0, out=ang), -1.0, out=ang), out=ang)
        # a view at its point has no direction: its NaN pairs become -1,
        # never eligible (fmax takes the number over a NaN)
        np.fmax(ang, -1.0, out=ang)
        if params.min_pair_angle is not None:
            ang[~(ang >= params.min_pair_angle)] = -1.0
        if params.max_pair_angle is not None:
            ang[~(ang <= params.max_pair_angle)] = -1.0
        p0 = w0[start[rows[c0:c1]] - v0]  # each row's first new pair
        top = np.maximum.reduceat(ang, p0)
        at = (ang == top.repeat(p_row[c0:c1])).nonzero()[0]
        best = at[at.searchsorted(p0)]  # each row's first widest pair
        bi, bj = vi[best], vj[best]
        th[c0:c1] = top
        ab[c0:c1, 0], ab[c0:c1, 1] = run[bi], run[bj]
        dd[c0:c1] = dist[bi] * dist[bj]
    old_a = pair[rows, 0]
    old = np.where(old_a >= 0, theta[rows], -1.0)  # an angle is never -1: no eligible pair
    # the new pair wins when it is wider, or as wide and first: a row's
    # columns ascend, so columns order its pairs as its views do
    win = (th > old) | ((th == old) & (ab[:, 0] < old_a))
    w = rows[win]
    th = th[win]
    # math.sin, as the per-face kernel took it, then the same two IEEE operations
    sin = np.fromiter(map(math.sin, th.tolist()), dtype=np.float64, count=len(th))
    theta[w], q[w], pair[w] = th, sin / dd[win], ab[win]
    return theta, q, pair


def face_quality(
    face: int, trajectory, mesh: TriangleMesh, params: QualityParams
) -> tuple[float, float, tuple[int, int] | None]:
    """(theta, Q, argmax view-index pair) for one face under a trajectory."""
    seen = visibility_matrix(mesh, trajectory, params, faces=[face])
    theta, q, pair = pair_quality(mesh.centroids[[face]], trajectory.positions, seen, params)
    a, b = pair[0].tolist()
    return float(theta[0]), float(q[0]), None if a < 0 else (a, b)


# ---------------------------------------------------------------------------
# coverage report
# ---------------------------------------------------------------------------


@dataclass
class CoverageReport:
    """Per-face coverage outcome for one mesh + trajectory evaluation.

    ``visible`` is the boolean (faces x views) visibility matrix behind the
    counts; ``evaluate_coverage(..., previous=report)`` extends it."""

    counts: np.ndarray
    theta: np.ndarray
    q: np.ndarray
    pair: np.ndarray  # (faces, 2) columns of the widest pair, -1 without one
    status: np.ndarray
    visible: np.ndarray

    @property
    def num_faces(self) -> int:
        return len(self.counts)

    @property
    def pass_mask(self) -> np.ndarray:
        return self.status == STATUS_PASS

    @property
    def pass_fraction(self) -> float:
        if self.num_faces == 0:
            return 0.0
        return float(self.pass_mask.mean())

    def summary(self) -> dict:
        return {
            "faces": int(self.num_faces),
            "pass_fraction": self.pass_fraction,
            "min_q": float(self.q.min()) if self.num_faces else 0.0,
            "mean_q": float(self.q.mean()) if self.num_faces else 0.0,
            "count_histogram": {str(k): int(v) for k, v in enumerate(np.bincount(self.counts)) if v},
            "status_totals": {
                s: int((self.status == s).sum())
                for s in (STATUS_PASS, STATUS_FAIL_COUNT, STATUS_FAIL_QUALITY, STATUS_INFEASIBLE)
            },
        }

    def to_csv(self, path) -> None:
        columns = (self.counts, self.theta, self.q, *self.pair.T, self.status)
        write_csv(
            path,
            ["face", "visible_views", "theta_rad", "q", "view_i", "view_j", "status"],
            zip(range(self.num_faces), *(c.tolist() for c in columns)),
        )


def write_csv(path, header, rows) -> None:
    """Write a table artifact: numbers as ``repr``, so floats read back
    exactly, ``None`` as an empty cell, strings unchanged."""
    cell = lambda v: "" if v is None else v if isinstance(v, str) else repr(v)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([cell(v) for v in row] for row in rows)


def evaluate_coverage(
    mesh: TriangleMesh,
    trajectory,
    params: QualityParams,
    *,
    infeasible: set[int] | None = None,
    previous: CoverageReport | None = None,
) -> CoverageReport:
    """Evaluate every face of ``mesh`` against the constraint set.

    ``infeasible`` marks faces no free-space view could ever satisfy (as
    established by the planner's probe); they are labelled infeasible instead
    of fail unless the trajectory happens to satisfy them anyway.

    ``previous``, a report of this mesh whose ``k`` views are the first ``k``
    views of ``trajectory``, limits the work to the views after them: only
    those are ray cast, and of the faces that see one of them only the pairs
    ending at a new view are scored, merged with the report's ``theta``,
    ``q`` and ``pair`` (``pair_quality`` with ``k`` views scored). The result
    equals a from-scratch evaluation byte for byte. Raises ValueError when
    ``previous`` covers another face count or has more views than
    ``trajectory``.
    """
    n_f = mesh.num_faces
    if previous is None:  # from scratch: extend the report of no views
        zero, unseen = np.zeros(n_f), np.full(n_f, STATUS_FAIL_COUNT)
        none = np.full((n_f, 2), -1, dtype=np.int64)
        previous = CoverageReport(zero.astype(np.int64), zero, zero, none, unseen, np.zeros((n_f, 0), bool))
    k = previous.visible.shape[1]
    if previous.num_faces != n_f:
        raise ValueError(f"previous report covers {previous.num_faces} faces, mesh has {n_f}")
    if k > len(trajectory):
        raise ValueError(f"previous report scored {k} views, trajectory has {len(trajectory)}")
    new = visibility_matrix(mesh, trajectory[k:], params)
    vis = np.concatenate([previous.visible, new], axis=1)
    counts = vis.sum(axis=1).astype(np.int64)
    # faces that see no new view keep their scores
    theta, q, pair = previous.theta.copy(), previous.q.copy(), previous.pair.copy()
    f = np.nonzero(new.any(axis=1))[0]
    theta[f], q[f], pair[f] = pair_quality(
        mesh.centroids[f], trajectory.positions, vis[f], params, k=k, previous=(theta[f], q[f], pair[f])
    )

    infeasible_mask = np.zeros(n_f, dtype=bool)
    infeasible_mask[np.fromiter(infeasible or (), dtype=np.int64)] = True

    status = np.empty(n_f, dtype="<U12")
    ok = (counts >= params.t) & (q >= params.q_star)
    status[ok] = STATUS_PASS
    fail_count = ~ok & (counts < params.t)
    status[fail_count] = STATUS_FAIL_COUNT
    status[~ok & ~fail_count] = STATUS_FAIL_QUALITY
    status[infeasible_mask & ~ok] = STATUS_INFEASIBLE
    return CoverageReport(counts, theta, q, pair, status, vis)
