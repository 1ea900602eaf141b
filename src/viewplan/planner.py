"""Multi-visit planning loop: explore pass, full plan, targeted refinement.

Visit 1 flies a fixed serpentine at altitude and yields only a noisy proxy
of the scene. Visit 2 plans viewing rectangles over the whole proxy. Later
visits re-plan only above the faces still failing the coverage constraints,
and after every visit the proxy regains the true geometry of the faces that
passed, mimicking a reconstruction that improves where it was well observed.

The view budget applies to the planned visits (2 and later); the fixed
explore pass is the input that creates the proxy, not part of the optimised
trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import plan_zigzag
from .errors import BudgetExhaustedError
from .mesh import TriangleMesh, degrade_proxy
from .quality import (
    STATUS_FAIL_COUNT,
    STATUS_FAIL_QUALITY,
    CoverageReport,
    QualityParams,
    default_quality_resolution,  # noqa: F401  (re-exported; perfbench traces it here)
    evaluate_coverage,
)
from .rectangles import build_avr, orthonormal_frames
from .tours import PlanResult, Trajectory, plan_rectangles

NOISE_SIGMA_PER_D = 0.05  # explore-pass proxy noise along vertex normals, multiple of d
PROBE_DIRECTIONS = 64  # in-band positions the feasibility probe tries per face
PROBE_MIN_COS = 0.05  # their lowest direction's cosine to the face normal
# a refinement visit (3 and later) ends the loop when it plans fewer views
# than MIN_NEW_VIEWS or raises the ever-passed fraction by less than MIN_PASS_GAIN
MIN_NEW_VIEWS = 5
MIN_PASS_GAIN = 0.005


def preprocess_mesh(mesh: TriangleMesh, params: QualityParams) -> TriangleMesh:
    """Ingestion step: subdivide faces larger than the per-view footprint so
    centroid visibility is representative of the whole face. The result is
    in ``mesh.canonical`` form, so every planner sees one face order whatever
    the input's. A second call with the same ``d`` returns the mesh itself
    (unless an area lies within rounding of the limit), so the runs that
    share it share its cached ``Bvh`` and probe."""
    return mesh.subdivided((params.d / 4.0) ** 2)


# ---------------------------------------------------------------------------
# feasibility probe
# ---------------------------------------------------------------------------


def _hemisphere_directions(n: int) -> np.ndarray:
    """Deterministic spiral covering the +z hemisphere down to PROBE_MIN_COS."""
    i = np.arange(n) + 0.5
    z = 1.0 - (i / n) * (1.0 - PROBE_MIN_COS)
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    rho = np.sqrt(1.0 - z * z)
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


def infeasible_faces(mesh: TriangleMesh, params: QualityParams) -> set[int]:
    """Faces with no line of sight from any of PROBE_DIRECTIONS in-band
    positions in the hemisphere in front of the face; such faces can never
    satisfy the constraints and are excluded from refinement targets.

    The directions are cast in rounds of 1, 2, 4, ... directions, the last
    round taking the rest, and a face leaves the probe at its first clear
    line of sight. Most faces see along their first direction, so the first
    round settles them with one segment each, and the faces blocked in many
    directions take six calls where rounds of 8 took eight. A face is
    infeasible iff all its directions are blocked, so the rounds change only
    the cost.

    The set is computed once per mesh and ``d``, the only parameter the probe
    reads, and kept with the mesh; each call returns a fresh copy of it.
    """
    return set(mesh.cached(("infeasible_faces", params.d), lambda: _probe(mesh, params.d)))


def _probe(mesh: TriangleMesh, d: float) -> frozenset[int]:
    dirs = _hemisphere_directions(PROBE_DIRECTIONS)
    u, v = orthonormal_frames(mesh.normals)
    undecided = np.arange(mesh.num_faces)
    lo = 0
    while lo < PROBE_DIRECTIONS and undecided.size:
        hi = 2 * lo + 1
        if 2 * hi + 1 > PROBE_DIRECTIONS:  # no room for another doubling
            hi = PROBE_DIRECTIONS
        block = dirs[lo:hi]
        cu, cv, cn = u[undecided], v[undecided], mesh.normals[undecided]
        cc = mesh.centroids[undecided]
        # world-space probe positions for every (face, direction) pair
        world = (
            block[None, :, 0, None] * cu[:, None, :]
            + block[None, :, 1, None] * cv[:, None, :]
            + block[None, :, 2, None] * cn[:, None, :]
        )
        origins = cc[:, None, :] + d * world
        m = len(block)
        flat_o = origins.reshape(-1, 3)
        flat_t = np.repeat(cc, m, axis=0)
        blocked = mesh.occluded_many(flat_o, flat_t).reshape(-1, m)
        undecided = undecided[blocked.all(axis=1)]
        lo = hi
    return frozenset(undecided.tolist())


# ---------------------------------------------------------------------------
# per-visit planning
# ---------------------------------------------------------------------------


def identify_low_quality(report: CoverageReport) -> np.ndarray:
    """Faces failing the count or quality constraint (infeasible excluded)."""
    mask = (report.status == STATUS_FAIL_COUNT) | (report.status == STATUS_FAIL_QUALITY)
    return np.nonzero(mask)[0]


@dataclass
class VisitPlan:
    trajectory: Trajectory
    plan: PlanResult


def plan_visit(
    low_quality_faces,
    proxy: TriangleMesh,
    params: QualityParams,
    k: int | None = None,
    seed: int = 0,
    *,
    budget: int | None = None,
) -> VisitPlan:
    """Plan a closed tour over the sub-mesh spanned by the given faces, its
    grids at resolution ``params.r`` or coarser.

    Every rectangle costs at least a 2 x 2 grid, so with a budget and no
    ``k`` the cluster count is searched up to budget // 4. Raises
    BudgetExhaustedError when even the coarsest grids exceed the remaining
    budget.
    """
    faces = np.unique(np.asarray(list(low_quality_faces), dtype=np.int64))
    if faces.size == 0:
        raise ValueError("plan_visit needs a non-empty face set")
    target = proxy if faces.size == proxy.num_faces else proxy.submesh(faces)
    max_k = math.inf if budget is None else max(1, budget // 4)
    pairs = build_avr(target, params, k=k, seed=seed, max_k=max_k)
    plan = plan_rectangles([rect for rect, _ in pairs], params.r, params.d, budget=budget)
    return VisitPlan(plan.trajectory, plan)


# ---------------------------------------------------------------------------
# the visit loop
# ---------------------------------------------------------------------------


@dataclass
class VisitState:
    """Snapshot after one visit: what flew, what the scene now looks like.

    ``pass_fraction`` counts a face as covered once any evaluation of the
    growing view set has satisfied its constraints; acquired images are never
    discarded, and the proxy keeps the recovered geometry, so coverage is an
    absorbing state. ``report`` holds the literal constraint evaluation of
    the current cumulative trajectory, whose own pass fraction can dip by a
    hair when a new widest-angle pair carries a smaller quality score.

    ``planned_views`` counts the views of visits 2 and later, which the
    budget limits. A visit that ran out of budget flies nothing and repeats
    the previous visit's report, proxy and counts.
    """

    visit: int
    proxy: TriangleMesh
    trajectory: Trajectory
    cumulative_views: int
    planned_views: int
    report: CoverageReport
    pass_fraction: float
    certificate: object | None = None
    budget_exhausted: bool = False

    @property
    def views_added(self) -> int:
        return len(self.trajectory)


def _refresh_proxy(
    proxy: TriangleMesh, truth: TriangleMesh, passed_faces: np.ndarray
) -> TriangleMesh:
    """Copy true geometry back onto every vertex touched by a passing face."""
    if passed_faces.size == 0:
        return proxy
    verts = proxy.vertices.copy()
    idx = np.unique(truth.faces[passed_faces])
    verts[idx] = truth.vertices[idx]
    return truth.with_vertices(verts)


def run_pipeline(
    scene: TriangleMesh,
    params: QualityParams,
    max_visits: int = 4,
    seed: int = 0,
    *,
    k: int | None = None,
) -> list[VisitState]:
    """Run explore + plan + refine until convergence, budget, or max_visits.

    Returns one VisitState per visit flown, the explore pass first, plus one
    for a visit that ran out of budget. Deterministic for a fixed seed.
    Coverage is always evaluated against the ground-truth scene; planning
    always happens on the current proxy.
    """
    if max_visits < 2:
        raise ValueError("max_visits must be >= 2")
    truth = preprocess_mesh(scene, params)
    infeasible = infeasible_faces(truth, params)
    passed_ever = np.zeros(truth.num_faces, dtype=bool)
    states: list[VisitState] = []

    def record(visit, trajectory, proxy, certificate=None, exhausted=False):
        """Append the state after flying ``trajectory``; a visit that ran out
        of budget flew nothing and keeps the last report. Coverage extends the
        last report, so only the new visit's views are cast and scored."""
        flown = [s.trajectory for s in states] + [trajectory]
        if exhausted:
            report = states[-1].report
        else:
            report = evaluate_coverage(
                truth, Trajectory.concat(flown), params, infeasible=infeasible,
                previous=states[-1].report if states else None,
            )
            passed_ever[report.pass_mask] = True
            if visit > 1:
                proxy = _refresh_proxy(proxy, truth, np.nonzero(passed_ever)[0])
        states.append(
            VisitState(
                visit=visit,
                proxy=proxy,
                trajectory=trajectory,
                cumulative_views=sum(len(t) for t in flown),
                planned_views=sum(len(t) for t in flown[1:]),
                report=report,
                pass_fraction=float(passed_ever.mean()),
                certificate=certificate,
                budget_exhausted=exhausted,
            )
        )

    sigma = NOISE_SIGMA_PER_D * params.d
    record(1, plan_zigzag(truth.bounds(), params.d), degrade_proxy(truth, sigma, seed))
    for visit in range(2, max_visits + 1):
        last = states[-1]
        low = np.setdiff1d(identify_low_quality(last.report), np.nonzero(passed_ever)[0])
        if low.size == 0:
            break
        target = np.arange(truth.num_faces) if visit == 2 else low
        try:
            vp = plan_visit(
                target, last.proxy, params, k=k, seed=seed + visit,
                budget=params.budget - last.planned_views,
            )
        except BudgetExhaustedError:
            record(visit, Trajectory([], []), last.proxy, exhausted=True)
            break
        if visit > 2 and len(vp.trajectory) < MIN_NEW_VIEWS:
            break
        record(visit, vp.trajectory, last.proxy, vp.plan.certificate)
        if visit > 2 and states[-1].pass_fraction - last.pass_fraction < MIN_PASS_GAIN:
            break
    return states
