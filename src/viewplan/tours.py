"""Viewing grids, per-rectangle sweep tours, grid stitching, length certificate.

Each rectangle carries a lattice of candidate views with spacing ``r`` and
orientation along the rectangle's inward normal; the lattice layout and the
serpentine lane order are also the explore pass's. Each per-rectangle
serpentine is closed into a cycle and spliced into its neighbours' along a
minimum spanning tree over grid-to-grid distances; the stitched tour's length
is certified against the constructive bound 3 * total_area / r +
2 * mst_weight plus a stitching allowance of 2r per grid, which the splicing
meets by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import BudgetExhaustedError, CertificateViolationError, DisconnectedTreeError
from .mesh import squared_distances
from .quality import unit_directions
from .rectangles import ViewingRectangle

_SLACK = 1e-9
_MST_BLOCK = 1 << 16  # distance entries per grid_mst block


def dump_json(obj: dict, path) -> None:
    """Write one artifact: keys sorted, one-space indent, so reruns are
    byte-identical; NaN and Infinity, which are not JSON, raise ValueError
    before the file is opened, so a refused artifact leaves no file."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1, allow_nan=False))


@dataclass
class Trajectory:
    """Ordered camera poses: ``positions`` and unit ``directions``, both (N, 3).
    Length is the sum of consecutive hop distances (plus the closing hop when
    the trajectory is a closed tour). Directions are normalised once, where a
    pose is made; indexing and ``concat`` only copy rows. Raises ValueError on
    unequal row counts or a direction that is not unit length."""

    positions: np.ndarray
    directions: np.ndarray
    closed: bool = False

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        self.directions = np.asarray(self.directions, dtype=np.float64).reshape(-1, 3)
        n, m = len(self.positions), len(self.directions)
        if n != m:
            raise ValueError(f"trajectory has {n} positions but {m} directions")
        if not (np.abs(np.linalg.norm(self.directions, axis=1) - 1.0) <= 1e-9).all():
            raise ValueError("trajectory directions must be unit rows (see unit_directions)")

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, rows) -> "Trajectory":
        """The open trajectory through the selected rows, in their order."""
        return Trajectory(self.positions[rows], self.directions[rows])

    @property
    def length(self) -> float:
        p = self.positions
        if len(p) < 2:
            return 0.0
        total = float(np.linalg.norm(np.diff(p, axis=0), axis=1).sum())
        if self.closed:
            total += float(np.linalg.norm(p[-1] - p[0]))
        return total

    @staticmethod
    def concat(parts: list["Trajectory"]) -> "Trajectory":
        """The open trajectory through every part's poses, part after part."""
        empty = np.zeros((0, 3))
        return Trajectory(
            np.concatenate([empty] + [p.positions for p in parts]),
            np.concatenate([empty] + [p.directions for p in parts]),
        )

    def to_json_dict(self) -> dict:
        keys = ("x", "y", "z", "dir_x", "dir_y", "dir_z")
        rows = np.hstack([self.positions, self.directions]).tolist()
        return {
            "schema": 1,
            "closed": self.closed,
            "length": float(self.length),
            "views": [dict(zip(keys, row)) for row in rows],
        }

    def save_json(self, path) -> None:
        dump_json(self.to_json_dict(), path)


@dataclass
class ViewingGrid:
    """Lattice of candidate views on a rectangle, spacing ``resolution``."""

    rectangle: ViewingRectangle
    resolution: float
    points: np.ndarray  # (nu * nv, 3), u-major order
    shape: tuple[int, int]

    @property
    def num_points(self) -> int:
        return len(self.points)

    def trajectory(self) -> Trajectory:
        """The lattice points in lattice order, looking along the inward normal."""
        direction = unit_directions(-self.rectangle.normal)
        return Trajectory(self.points, np.repeat(direction, self.num_points, axis=0))


def lattice_count(width: float, r: float) -> int:
    """Points of the spacing-r lattice across ``width``; OverflowError when
    ``width / r`` is too large to count."""
    return int(math.floor(width / r + _SLACK)) + 1


def lattice_axis(lo: float, width: float, r: float) -> np.ndarray:
    """The spacing-r lattice across [lo, lo + width], residual margin split
    evenly on both sides."""
    n = lattice_count(width, r)
    return lo + (width - (n - 1) * r) / 2.0 + r * np.arange(n)


def serpentine(nu: int, nv: int, along_u: bool) -> np.ndarray:
    """Indices into a u-major (nu, nv) lattice that walk it in lanes along u
    (else along v), every other lane reversed."""
    idx = np.arange(nu * nv).reshape(nu, nv)
    lanes = idx.T if along_u else idx
    lanes[1::2] = lanes[1::2, ::-1]
    return lanes.ravel()


def impose_grid(rect: ViewingRectangle, r: float) -> ViewingGrid:
    """Lattice with spacing r, residual margins split evenly on both sides."""
    if r <= 0:
        raise ValueError("grid resolution must be positive")
    if math.isinf(max(rect.width, rect.height) / r):
        raise ValueError(f"grid resolution r={r!r} is too fine to count the lattice points")
    us = lattice_axis(-rect.half_w, rect.width, r)
    vs = lattice_axis(-rect.half_h, rect.height, r)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    pts = rect.from_plane(np.stack([uu.ravel(), vv.ravel()], axis=1))
    return ViewingGrid(rect, r, pts, (len(us), len(vs)))


def _sweep(grid: ViewingGrid) -> np.ndarray:
    """The grid's lattice indices in sweep order: the serpentine with lanes
    parallel to the longer rectangle axis."""
    return serpentine(*grid.shape, grid.rectangle.width >= grid.rectangle.height)


def boustrophedon_tour(grid: ViewingGrid) -> Trajectory:
    """The sweep over the lattice: every lattice point visited exactly once
    with steps of length r."""
    return grid.trajectory()[_sweep(grid)]


# ---------------------------------------------------------------------------
# spanning tree over grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridEdge:
    """Tree edge between two grids realised by a closest lattice-point pair."""

    i: int
    j: int
    weight: float
    point_i: int  # lattice index within grid i
    point_j: int


def grid_mst(grids: list[ViewingGrid]) -> list[GridEdge]:
    """Minimum spanning tree over grids; distance between two grids is the
    minimum over all lattice-point pairs.

    Ties: a grid pair's edge is realised by its first closest point pair in
    (point_i, point_j) order, and Kruskal takes equal weights in (i, j) order,
    so the lower pair joins first. Grids that share a lattice point join at
    weight 0 like any other pair. Edges are returned sorted by (i, j).

    Grid i's distances to the later grids are computed in blocks of whole
    grids of at most _MST_BLOCK entries (one grid pair alone may be larger),
    as the square root of ``squared_distances``, so each entry is the same
    whatever block holds it.
    """
    k = len(grids)
    if k == 0:
        raise ValueError("grid_mst needs at least one grid")
    sizes = [g.num_points for g in grids]
    starts = np.cumsum([0] + sizes).tolist()
    coords = np.concatenate([g.points for g in grids]).T.copy()  # (3, points) rows
    dmat = np.zeros((k, k))
    closest = np.zeros((2, k, k), dtype=np.int64)  # (point_i, point_j) per grid pair
    for i in range(k - 1):
        j = i + 1
        while j < k:
            stop = j + 1
            while stop < k and sizes[i] * (starts[stop + 1] - starts[j]) <= _MST_BLOCK:
                stop += 1
            sq = squared_distances(coords[:, starts[i] : starts[i + 1], None],
                                   coords[:, starts[j] : starts[stop]])
            dist = np.sqrt(sq, out=sq)
            # per later grid, its first closest pair in row-major order, as
            # the argmin of its own block of columns finds it (a NaN first)
            offs = [start - starts[j] for start in starts[j:stop]]
            best = np.minimum.reduceat(dist.min(axis=0), offs)
            hit = (dist == np.repeat(best, sizes[j:stop])) | np.isnan(dist)
            pi = np.logical_or.reduceat(hit, offs, axis=1).argmax(axis=0)
            span = np.arange(dist.shape[1])
            first = np.where(hit[np.repeat(pi, sizes[j:stop]), span], span, len(span))
            pj = np.minimum.reduceat(first, offs) - offs
            dmat[i, j:stop] = best
            closest[:, i, j:stop] = pi, pj
            j = stop
    rows, cols = np.triu_indices(k, 1)
    order = np.argsort(dmat[rows, cols], kind="stable")
    comp = list(range(k))  # component label per grid
    edges = []
    for i, j in zip(rows[order].tolist(), cols[order].tolist()):
        if len(edges) == k - 1:
            break
        if comp[i] != comp[j]:
            old = comp[j]
            comp = [comp[i] if c == old else c for c in comp]
            edges.append(GridEdge(i, j, float(dmat[i, j]), *closest[:, i, j].tolist()))
    edges.sort(key=lambda e: (e.i, e.j))
    return edges


def mst_weight(edges: list[GridEdge]) -> float:
    return float(sum(e.weight for e in edges))


# ---------------------------------------------------------------------------
# stitching + certificate
# ---------------------------------------------------------------------------


@dataclass
class TourCertificate:
    """Constructive length-bound record for one stitched tour.

    ``final_length`` is certified against ``bound_value`` =
    3 * total_area / r + 2 * mst_weight + 2r * grid_count; the last term
    allows one closing hop of up to two grid steps per rectangle beyond its
    3 * area / r. ``final_length`` = sum(tour_lengths) + sum(splice_overheads),
    the overheads being each sweep's closing hop, then each splice's change.
    ``lower_bound`` = max(total_area / (4 d), mst_weight) bounds any
    trajectory meeting the coverage constraints from below.
    """

    r: float
    d: float
    tour_lengths: list[float]
    areas: list[float]
    total_area: float
    mst_edges: list[tuple[int, int, float]]
    mst_weight: float
    splice_overheads: list[float]
    splice_allowance: float
    final_length: float
    bound_base: float
    bound_value: float
    lower_bound: float
    ratio_vs_lower_bound: float | None

    def to_json_dict(self) -> dict:
        return {"schema": 1, **asdict(self)}

    def save_json(self, path) -> None:
        dump_json(self.to_json_dict(), path)


def lower_bound(rects: list[ViewingRectangle], mst_edges: list[GridEdge], d: float) -> float:
    """max(total rectangle area / (4 d), spanning-tree weight)."""
    total = float(sum(r.area for r in rects))
    return max(total / (4.0 * d), mst_weight(mst_edges))


def _spliced_tour(
    grids: list[ViewingGrid], mst: list[GridEdge]
) -> tuple[Trajectory, list[float], list[float]]:
    """The closed tour that splices each grid's sweep, closed into a cycle,
    into its tree neighbour's at the edge's lattice points: edge (x in grid i,
    y in grid j) turns the step x -> next(x) into x -> y, around j's cycle to
    prev(y), then prev(y) -> next(x). By the triangle inequality a splice
    adds at most 2|x - y|, and a serpentine over a lattice of at least 2 x 2
    points closes within 3 * area / r + 2r, so the tour is within the
    certificate's bound.

    Points are numbered in lattice order, grid after grid, so an edge joins
    the grids' offsets plus its lattice indices; the walk starts at grid 0's
    point 0, where its serpentine starts. Returns the tour, each sweep's open
    length, and the overheads over the open sweeps: each sweep's closing hop,
    grid by grid, then each splice's change in length, edge by edge
    (negative where a splice shortens the tour)."""
    starts = np.cumsum([0] + [g.num_points for g in grids]).tolist()
    every = Trajectory.concat([g.trajectory() for g in grids])
    sweeps = [start + _sweep(g) for start, g in zip(starts, grids)]
    nxt = np.empty(starts[-1], dtype=np.int64)
    for sweep in sweeps:
        nxt[sweep] = np.roll(sweep, -1)
    prv = np.empty_like(nxt)
    prv[nxt] = np.arange(len(nxt))

    def dist(a: int, b: int) -> float:
        return float(np.linalg.norm(every.positions[a] - every.positions[b]))

    lengths = [every[sweep].length for sweep in sweeps]
    overheads = [dist(sweep[-1], sweep[0]) for sweep in sweeps]
    for e in mst:
        x, y = starts[e.i] + e.point_i, starts[e.j] + e.point_j
        nx, py = int(nxt[x]), int(prv[y])
        overheads.append(dist(x, y) + dist(py, nx) - dist(x, nx) - dist(py, y))
        nxt[x], prv[y], nxt[py], prv[nx] = y, x, nx, py
    order = [0]
    step = nxt.tolist()
    while step[order[-1]]:
        order.append(step[order[-1]])
    if len(order) < len(step):  # a missing edge leaves two cycles, an extra one splits one
        raise DisconnectedTreeError("the edges are not a spanning tree over the grids")
    trajectory = every[order]
    trajectory.closed = True
    return trajectory, lengths, overheads


def stitch_tour(
    grids: list[ViewingGrid], mst: list[GridEdge], d: float
) -> tuple[Trajectory, TourCertificate]:
    """Sweep each grid and combine the sweeps into one closed tour visiting
    every view once.

    The tour is ``_spliced_tour``'s: each sweep closed into a cycle and
    spliced into its tree neighbour's at the edge's lattice points, which
    meets the bound by construction. Edges that are not a spanning tree over
    the grids raise DisconnectedTreeError. A length over the bound, or a
    per-rectangle tour over 3 * area / r (compared relatively, plus the
    rounding of its hops between absolute positions, so the verdict depends
    neither on the scale nor on the offset), raises
    CertificateViolationError.
    """
    k = len(grids)
    if k == 0:
        raise ValueError("nothing to stitch")
    if len({g.resolution for g in grids}) != 1:
        raise ValueError("grids disagree on resolution")
    r = grids[0].resolution

    trajectory, tour_lengths, overheads = _spliced_tour(grids, mst)
    final_length = trajectory.length
    areas = [g.rectangle.area for g in grids]
    total_area = float(sum(areas))
    w = mst_weight(mst)
    bound_base = 3.0 * total_area / r + 2.0 * w
    allowance = 2.0 * r * k
    bound_value = bound_base + allowance
    lb = lower_bound([g.rectangle for g in grids], mst, d)
    cert = TourCertificate(
        r=float(r),
        d=float(d),
        tour_lengths=[float(x) for x in tour_lengths],
        areas=[float(a) for a in areas],
        total_area=total_area,
        mst_edges=[(e.i, e.j, float(e.weight)) for e in mst],
        mst_weight=w,
        splice_overheads=[float(h) for h in overheads],
        splice_allowance=float(allowance),
        final_length=final_length,
        bound_base=float(bound_base),
        bound_value=float(bound_value),
        lower_bound=float(lb),
        ratio_vs_lower_bound=float(final_length / lb) if lb > 0 else None,
    )

    for g, li, ai in zip(grids, tour_lengths, areas):
        # a 2 x 2 sweep meets its bound exactly, so the slack must cover the
        # rounding of its hops: 8 ulps of the largest coordinate per view
        slack = 8 * g.num_points * np.spacing(np.abs(g.points).max(initial=0.0))
        if li > (3.0 * ai / r) * (1.0 + 1e-12) + slack:
            raise CertificateViolationError(
                f"per-rectangle bound violated: {li} > {3.0 * ai / r}"
            )
    if final_length > bound_value:
        raise CertificateViolationError(
            f"tour length {final_length} exceeds certified bound {bound_value}"
        )
    return trajectory, cert


# ---------------------------------------------------------------------------
# rectangle set -> tour, with view-budget coarsening
# ---------------------------------------------------------------------------


@dataclass
class PlanResult:
    """Grids at resolution ``r_effective``, their tree, the tour and its certificate."""

    grids: list[ViewingGrid]
    mst: list[GridEdge]
    trajectory: Trajectory
    certificate: TourCertificate
    r_effective: float


def plan_rectangles(
    rects: list[ViewingRectangle],
    r: float,
    d: float,
    *,
    budget: int | None = None,
) -> PlanResult:
    """Grid + sweep + stitch over a rectangle set.

    Every rectangle is widened to at least the resolution before its grid is
    laid, so rectangles that did not cross may cross afterwards: at the
    planner's default ``r`` (2.03 m for d = 5 m) 1-29 pairs of ``build_avr``'s
    rectangles crossed after widening in each of 8 canyon and boxfield scenes
    (90 of 10,153 pairs).

    When a view budget is given and the lattice exceeds it, the resolution is
    multiplied by 1.25 until the count fits; BudgetExhaustedError is raised,
    before any grid is built, when even the coarsest grids (2 x 2 per
    rectangle) do not fit. Lattices are sized before any is built, and every
    rectangle, widened to at least r_eff, reaches 2 x 2 once r_eff exceeds
    its sides, so the loop ends.
    """
    if not rects:
        raise ValueError("no rectangles to plan over")
    r_eff = float(r)
    while True:
        wide = [rect.widened(r_eff) for rect in rects]
        try:
            count = sum(lattice_count(w.width, r_eff) * lattice_count(w.height, r_eff) for w in wide)
        except OverflowError:  # r_eff too fine to count the views: over any budget
            count = math.inf
        if budget is None or count <= budget:
            break
        if count <= 4 * len(rects):
            raise BudgetExhaustedError(f"{count} views exceed remaining budget {budget}")
        r_eff *= 1.25
    grids = [impose_grid(w, r_eff) for w in wide]
    mst = grid_mst(grids)
    trajectory, cert = stitch_tour(grids, mst, d)
    return PlanResult(grids, mst, trajectory, cert, r_eff)
