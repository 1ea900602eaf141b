"""Comparison planners: serpentine coverage, uniform 3-d lattice, greedy view
selection over the rectangle grids. Their lengths are multiples of the viewing
distance d, so a scene and d scaled together plan the same views, scaled."""

from __future__ import annotations

import math

import numpy as np

from .mesh import TriangleMesh, row_norms, squared_distances
from .quality import _CULL_ENTRIES, QualityParams, pair_quality, unit_directions, visibility_matrix
from .tours import Trajectory, ViewingGrid, lattice_axis, lattice_count, serpentine

ZIGZAG_ALTITUDE_PER_D = 4.0  # serpentine height over the scene's lowest point
LATTICE_STEP_PER_D = 0.2  # serpentine lanes and views, uniform lattice, GVS pool grids
_TWO_OPT_PASSES = 25  # 2-opt sweeps over an open tour at most


def zigzag_altitude(scene_bounds, d: float) -> float:
    """Height of the serpentine lanes, ZIGZAG_ALTITUDE_PER_D * d above the
    scene's lowest point; ValueError if the scene reaches it."""
    lo, hi = (np.asarray(b, dtype=np.float64) for b in scene_bounds)
    if np.any(hi < lo):
        raise ValueError("degenerate scene bounds")
    altitude = lo[2] + ZIGZAG_ALTITUDE_PER_D * d
    if altitude <= hi[2]:
        raise ValueError(f"scene is taller than the zigzag altitude: height {hi[2] - lo[2]:g} m, "
                         f"d = {d:g} m, altitude {ZIGZAG_ALTITUDE_PER_D:g} * d = "
                         f"{ZIGZAG_ALTITUDE_PER_D * d:g} m; a larger --d raises the altitude")
    return float(altitude)


def plan_zigzag(scene_bounds, d: float) -> Trajectory:
    """Nadir serpentine lanes over the scene footprint at ``zigzag_altitude``."""
    altitude = zigzag_altitude(scene_bounds, d)
    lo, hi = (np.asarray(b, dtype=np.float64) for b in scene_bounds)
    xs, ys = (lattice_axis(lo[i], hi[i] - lo[i], LATTICE_STEP_PER_D * d) for i in (0, 1))
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pos = np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, altitude)], axis=1)
    pos = pos[serpentine(len(xs), len(ys), False)]  # lanes along y
    down = unit_directions([0.0, 0.0, -1.0])
    return Trajectory(pos, np.repeat(down, len(pos), axis=0))


def zigzag_view_count(scene_bounds, d: float) -> int:
    """Views of plan_zigzag's serpentine, counted without building it."""
    lo, hi = (np.asarray(b, dtype=np.float64) for b in scene_bounds)
    return math.prod(lattice_count(w, LATTICE_STEP_PER_D * d) for w in (hi - lo)[:2])


def zigzag_length(scene_bounds, d: float) -> float:
    """Closed-form serpentine length for the lane layout of plan_zigzag."""
    return float((zigzag_view_count(scene_bounds, d) - 1) * (LATTICE_STEP_PER_D * d))


# ---------------------------------------------------------------------------
# uniform 3-d lattice
# ---------------------------------------------------------------------------


def _farthest_point_subset(points: np.ndarray, count: int) -> np.ndarray:
    """Deterministic farthest-point selection starting from index 0.

    Distances are square roots of ``squared_distances`` on (3, n) rows: the
    bits of ``np.linalg.norm(points - p, axis=1)`` in fewer, faster steps."""
    n = len(points)
    if count >= n:
        return np.arange(n)
    comps = np.ascontiguousarray(points.T)

    def dist_to(i: int) -> np.ndarray:
        return np.sqrt(squared_distances(comps, comps[:, i : i + 1]))

    chosen = [0]
    dist = dist_to(0)
    for _ in range(count - 1):
        nxt = int(dist.argmax())
        chosen.append(nxt)
        np.minimum(dist, dist_to(nxt), out=dist)
    return np.array(sorted(chosen))


def _nearest_walk(d: np.ndarray) -> np.ndarray:
    """Open walk from point 0 under the pairwise distances ``d``: each step
    goes to the nearest unvisited point, of equally near ones the lowest index."""
    order = np.zeros(len(d), dtype=np.int64)
    visited = np.zeros(len(d), dtype=bool)
    visited[0] = True
    for i in range(1, len(d)):
        order[i] = np.argmin(np.where(visited, np.inf, d[order[i - 1]]))
        visited[order[i]] = True
    return order


def _two_opt(d: np.ndarray, order: np.ndarray) -> np.ndarray:
    """2-opt improvement of an open tour under the pairwise distances ``d``.

    For each ``a`` the moves over ``b`` are tested a row at a time: the first
    improving ``b`` is reversed, and the scan resumes at ``b + 1`` with the new
    successor of ``a``. Positions past ``b`` are untouched by the reversal, so
    this makes the moves of the scalar double loop over (a, b)."""
    order = order.copy()
    n = len(order)
    for _ in range(_TWO_OPT_PASSES):
        improved = False
        for a in range(n - 3):
            b = a + 2
            while b < n - 1:
                i, j = order[a], order[a + 1]
                p, q = order[b : n - 1], order[b + 1 :]
                better = d[i, p] + d[j, q] + 1e-12 < d[i, j] + d[p, q]
                if not better.any():
                    break
                b += int(better.argmax())
                order[a + 1 : b + 1] = order[a + 1 : b + 1][::-1]
                improved = True
                b += 1
        if not improved:
            break
    return order


def _uniform_axes(scene_bounds, d: float):
    """(start, stop) per axis and the step of plan_uniform_grid's lattice:
    x and y reach d past the scene, z from its floor to d above its top."""
    lo, hi = (np.asarray(b, dtype=np.float64) for b in scene_bounds)
    step = LATTICE_STEP_PER_D * d
    stops = hi + d + 1e-9 * step
    return [(lo[0] - d, stops[0]), (lo[1] - d, stops[1]), (lo[2], stops[2])], step


def uniform_view_count(scene_bounds, d: float) -> int:
    """Views of plan_uniform_grid's lattice before thinning, counted without
    building it: the product of its ``np.arange`` lengths."""
    spans, step = _uniform_axes(scene_bounds, d)
    return math.prod(math.ceil((stop - start) / step) for start, stop in spans)


def plan_uniform_grid(scene_bounds, view_count: int, d: float, *, proxy: TriangleMesh) -> Trajectory:
    """Lattice of step LATTICE_STEP_PER_D * d over the airspace up to d around
    the scene, thinned to ``view_count`` views by farthest-point selection and
    toured by a nearest-neighbour walk improved by 2-opt.

    Each view aims at the nearest proxy face centroid; of equally near
    centroids the one with the lowest face index wins.
    """
    if view_count < 1:
        raise ValueError("view_count must be >= 1")
    if not proxy.num_faces:
        raise ValueError("the proxy has no faces to aim at")
    spans, step = _uniform_axes(scene_bounds, d)
    gx, gy, gz = np.meshgrid(*(np.arange(start, stop, step) for start, stop in spans), indexing="ij")
    lattice = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)

    idx = _farthest_point_subset(lattice, view_count)
    pts = lattice[idx]

    # on (3, n) component rows: the bits of the squares summed over a last
    # axis of three, with no (n, m, 3) temporary
    comps = np.ascontiguousarray(pts.T)
    c = np.ascontiguousarray(proxy.centroids.T)[:, None, :]
    block = max(1, _CULL_ENTRIES // proxy.num_faces)  # views per (views, faces) block
    nearest = np.concatenate(
        [np.argmin(squared_distances(comps[:, v0 : v0 + block, None], c), axis=1)
         for v0 in range(0, len(pts), block)]
    )
    aim = proxy.centroids[nearest] - pts
    aim[row_norms(aim) < 1e-12] = (0.0, 0.0, -1.0)  # a zero aim looks straight down

    dmat = np.sqrt(squared_distances(comps[:, :, None], comps[:, None, :]))
    order = _nearest_walk(dmat)
    order = _two_opt(dmat, order) if len(pts) >= 4 else order
    return Trajectory(pts[order], unit_directions(aim[order]))


# ---------------------------------------------------------------------------
# greedy view selection
# ---------------------------------------------------------------------------


def plan_gvs(
    avr_grids: list[ViewingGrid],
    proxy: TriangleMesh,
    params: QualityParams,
    view_budget: int,
    seed: int = 0,
    *,
    neighbor_radius: float = 1.0,
    gain_mode: str = "literal",
) -> tuple[Trajectory, dict]:
    """Greedy selection over the grid views, starting from a random view.

    Each step scores the unselected views within ``neighbor_radius`` of the
    current selection and takes the best. ``gain_mode='literal'`` scores a
    candidate by the summed quality of already-covered faces the candidate
    does NOT see; ``gain_mode='coverage'`` scores by the summed quality of the
    candidate's own faces after adding it. When no neighbour is available the
    walk jumps to a random unselected view. ``stopped_early`` is set when the
    candidate pool runs out below the budget.

    A face's quality is its widest pair over its members, the selected views
    that see it, in selection order. Each face keeps that pair as two
    columns of its membership row, one column per pick, so a pick and a
    coverage gain score only the pairs their view adds to it, with one
    ``pair_quality`` call at ``k`` = the picks before it, which gives the
    bytes of rescoring every member.
    """
    if view_budget < 1:
        raise ValueError("view_budget must be >= 1")
    if gain_mode not in ("literal", "coverage"):
        raise ValueError(f"unknown gain_mode {gain_mode!r}")
    candidates = Trajectory.concat([g.trajectory() for g in avr_grids])
    n = len(candidates)
    if n == 0:
        raise ValueError("no candidate views")
    pos = candidates.positions
    comps = np.ascontiguousarray(pos.T)
    vis = visibility_matrix(proxy, candidates, params)  # (F, n)
    seen_by = np.ascontiguousarray(vis.T)  # the faces each view sees, a row per view
    centroids = proxy.centroids
    n_f = len(centroids)
    rng = np.random.default_rng(seed)

    picked = np.empty(min(view_budget, n), dtype=np.int64)  # the selection, in order
    n_picked = 0
    selected_mask = np.zeros(n, dtype=bool)
    eligible = np.zeros(n, dtype=bool)
    # ``member`` marks each face's members, a column per pick; each face keeps
    # its widest pair's angle, quality and places in the selection order
    member = np.zeros((n_f, len(picked)), dtype=bool)
    theta_now, q_now = np.zeros(n_f), np.zeros(n_f)  # q is 0 until a face is covered
    pair_now = np.full((n_f, 2), -1, dtype=np.int64)
    covered = np.zeros(n_f, dtype=bool)
    # each view's summed quality of the faces it sees, kept until a pick
    # changes the quality of one of them
    overlap, stale = np.zeros(n), np.ones(n, dtype=bool)
    gains_log: list[float] = []
    restarts = 0

    def add(s: int):
        nonlocal n_picked
        t, n_picked = n_picked, n_picked + 1
        picked[t] = s
        selected_mask[s] = True
        # its square root has the bits of np.linalg.norm(pos - pos[s], axis=1)
        eligible[np.sqrt(squared_distances(comps, comps[:, s])) <= neighbor_radius] = True
        faces = seen_by[s].nonzero()[0]
        member[:, t] = seen_by[s]
        # a face seen for the first time has one member and no pair yet
        old = faces[covered[faces]]
        covered[faces] = True
        q_old = q_now[old]
        theta_now[old], q_now[old], pair_now[old] = pair_quality(
            centroids[old], pos[picked[: t + 1]], member[old, : t + 1], params, k=t,
            previous=(theta_now[old], q_old, pair_now[old]),
        )
        stale[vis[old[q_now[old] != q_old]].any(axis=0)] = True

    def candidate_gains(cands: np.ndarray) -> np.ndarray:
        if gain_mode == "literal":
            # each view's row summed as one contiguous run (numpy's pairwise
            # sum over all the faces, zeros included), again only when one
            # of its faces changed quality: the same terms give the same bits
            redo = cands[stale[cands]]
            overlap[redo] = (seen_by[redo] * q_now).sum(axis=1)
            stale[redo] = False
            return float(q_now[covered].sum()) - overlap[cands]
        # a candidate's gain sums, face by face in ascending order, the quality
        # of the face's members followed by the candidate; no members adds 0
        t = n_picked
        ci, fi = seen_by[cands].nonzero()
        faces, slot = np.unique(fi, return_inverse=True)
        # one column per member, then one per candidate: after every member
        seen = np.zeros((len(fi), t + len(cands)), dtype=bool)
        seen[:, :t] = member[fi, :t]
        seen[np.arange(len(fi)), t + ci] = True
        q = np.zeros((len(cands), len(faces) + 1))  # column 0 is the running sum's 0.0
        views = pos[np.append(picked[:t], cands)]
        _, q[ci, slot + 1], _ = pair_quality(
            centroids[fi], views, seen, params, k=t,
            previous=(theta_now[fi], q_now[fi], pair_now[fi]),
        )
        return np.cumsum(q, axis=1)[:, -1]  # sequential, in face order

    start = int(rng.integers(n))
    add(start)
    gains_log.append(0.0)

    while n_picked < len(picked):
        cands = np.nonzero(eligible & ~selected_mask)[0]
        if len(cands) == 0:
            pool = np.nonzero(~selected_mask)[0]
            jump = int(pool[rng.integers(len(pool))])
            restarts += 1
            add(jump)
            gains_log.append(0.0)
            continue
        gains = candidate_gains(cands)
        best = int(cands[int(np.argmax(gains))])
        gains_log.append(float(gains.max()))
        add(best)

    info = {
        "selected": picked.tolist(),
        "gains": gains_log,
        "stopped_early": n_picked < view_budget,
        "restarts": restarts,
        "gain_mode": gain_mode,
    }
    return candidates[picked], info
