"""Batch experiment runner.

Subcommands:
  plan     run one planner on one scene and write its artifact set
  compare  run all four planners at matched view counts on one scene
  report   tabulate completed run directories into a comparison CSV

Every artifact is a function of the config and seed alone, so repeated runs
are byte-identical. Distances are meters; angles are degrees at this
boundary and radians inside.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path


from .baselines import (
    LATTICE_STEP_PER_D,
    plan_gvs,
    plan_uniform_grid,
    plan_zigzag,
    uniform_view_count,
    zigzag_altitude,
    zigzag_view_count,
)
from .errors import SceneTooLargeError, ViewPlanError
from .mesh import MAX_FACES, SceneSpec, TriangleMesh, count_text, degrade_proxy, generate_scene, load_mesh
from .planner import (
    NOISE_SIGMA_PER_D,
    infeasible_faces,
    preprocess_mesh,
    run_pipeline,
)
from .quality import QualityParams, evaluate_coverage, write_csv
from .rectangles import build_avr
from .tours import dump_json, impose_grid, lattice_count

SCHEMA = 1
PLANNERS = ("avr", "zigzag", "uniform", "gvs")  # compare's run order; avr sets the view count


@dataclass
class RunConfig:
    """One planner run, fully determined by these fields plus the seed. The
    field defaults are the CLI's defaults."""

    planner: str = "avr"
    scene: str | None = "flat"
    mesh: str | None = None
    extent: float = 20.0
    obstacles: int = 3
    d: float = 5.0
    eps_d: float | None = None
    t: int = 3
    qstar: float = 0.014
    budget: int = 300
    k: int | None = None
    r: float | None = None
    max_visits: int = 4
    seed: int = 0
    out: str = "out"
    view_count: int | None = None
    min_pair_angle_deg: float | None = None
    max_pair_angle_deg: float | None = None
    gvs_gain: str = "literal"
    gvs_radius: float = 1.0
    open_tour: bool = False

    def validate(self) -> None:
        if self.planner not in PLANNERS:
            raise ValueError(f"unknown planner {self.planner!r}")
        if (self.scene is None) == (self.mesh is None) or self.mesh == "":
            raise ValueError("exactly one of scene/mesh must be set, and a mesh path not empty")
        if self.max_visits < 2:
            raise ValueError("max_visits must be >= 2")
        for name in ("view_count", "k"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.budget > MAX_FACES:  # a planned visit's lattice is sized by the budget
            raise ValueError(f"budget must be at most {MAX_FACES:,}, got {self.budget:,}")
        if not 0.0 < self.gvs_radius < math.inf:
            raise ValueError(f"gvs_radius must be positive and finite, got {self.gvs_radius}")
        self.quality_params()  # raises on bad numeric ranges
        if self.mesh is None:
            self.scene_spec()

    def quality_params(self) -> QualityParams:
        rad = lambda deg: None if deg is None else math.radians(deg)
        return QualityParams(
            d=self.d,
            epsilon_d=self.eps_d,
            t=self.t,
            q_star=self.qstar,
            budget=self.budget,
            min_pair_angle=rad(self.min_pair_angle_deg),
            max_pair_angle=rad(self.max_pair_angle_deg),
            r=self.r,
        )

    def scene_spec(self) -> SceneSpec:
        return SceneSpec(
            kind=self.scene, extent=self.extent, obstacles=self.obstacles, seed=self.seed
        )

    def to_json_dict(self) -> dict:
        return {"schema": SCHEMA, **asdict(self)}


def _gvs_pool(proxy: TriangleMesh, params: QualityParams, config: RunConfig):
    pairs = build_avr(proxy, params, k=config.k, seed=config.seed)
    res = LATTICE_STEP_PER_D * params.d
    wide = [rect.widened(params.r).widened(res) for rect, _ in pairs]
    views = sum(lattice_count(w.width, res) * lattice_count(w.height, res) for w in wide)
    _check_views("GVS pool", views)
    return [impose_grid(w, res) for w in wide]


def _check_views(what: str, views: int) -> None:
    if views > MAX_FACES:
        raise SceneTooLargeError(
            f"the {what} would have {count_text(views)} views, over the cap of {MAX_FACES:,}"
        )


def _prepare(config: RunConfig, truth: TriangleMesh | None = None):
    """What a run builds before it writes anything: its parameters, the
    preprocessed scene, and for uniform and GVS the proxy and, for GVS, the
    view pool. Raises when the planner's views would exceed MAX_FACES: avr and
    zigzag fly the serpentine, uniform thins its lattice, GVS picks from its pool.

    ``truth``, when given, is the scene in place of the config's: a truth
    another run prepared at the same ``d`` comes back itself from
    ``preprocess_mesh``, with its cached ``Bvh`` and probe."""
    config.validate()
    params = config.quality_params()
    if truth is None:
        truth = generate_scene(config.scene_spec()) if config.mesh is None else load_mesh(config.mesh)
    truth = preprocess_mesh(truth, params)
    if config.planner in ("avr", "zigzag"):
        zigzag_altitude(truth.bounds(), params.d)
        _check_views("serpentine", zigzag_view_count(truth.bounds(), params.d))
    elif config.planner == "uniform":
        _check_views("uniform lattice", uniform_view_count(truth.bounds(), params.d))
    proxy = pool = None
    if config.planner in ("uniform", "gvs"):
        proxy = degrade_proxy(truth, NOISE_SIGMA_PER_D * params.d, config.seed)
    if config.planner == "gvs":
        pool = _gvs_pool(proxy, params, config)
    return params, truth, proxy, pool


def run(config: RunConfig, *, _prepared=None) -> dict:
    """Execute one configured run and write its artifact set; returns the
    summary written to summary.json. ``_prepared`` is ``_prepare(config)``
    when the caller sized the run already."""
    params, truth, proxy, pool = _prepare(config) if _prepared is None else _prepared
    if config.planner == "avr":
        states = run_pipeline(
            truth,
            params,
            max_visits=config.max_visits,
            seed=config.seed,
            k=config.k,
        )
    else:
        infeasible = infeasible_faces(truth, params)
        n = params.budget if config.view_count is None else config.view_count
        gvs_info = None
        if config.planner == "zigzag":
            trajectory = plan_zigzag(truth.bounds(), params.d)
        elif config.planner == "uniform":
            trajectory = plan_uniform_grid(truth.bounds(), n, params.d, proxy=proxy)
        else:  # gvs
            trajectory, gvs_info = plan_gvs(
                pool,
                proxy,
                params,
                n,
                seed=config.seed,
                neighbor_radius=config.gvs_radius,
                gain_mode=config.gvs_gain,
            )
        report = evaluate_coverage(truth, trajectory, params, infeasible=infeasible)

    # planning is done: a run that fails leaves no --out behind
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    dump_json(config.to_json_dict(), out / "config.json")
    visits_summary: list[dict] = []
    bound_ratio = None
    if config.planner == "avr":
        for st in states:
            if config.open_tour:  # written without the closing hop; certified closed
                st.trajectory.closed = False
            st.trajectory.save_json(out / f"trajectory_visit{st.visit}.json")
            if st.certificate is not None:
                st.certificate.save_json(out / f"certificate_visit{st.visit}.json")
            coverage = st.report.summary()
            dump_json(coverage, out / f"coverage_visit{st.visit}.json")
            visits_summary.append(
                {
                    "visit": st.visit,
                    "views_added": st.views_added,
                    "cumulative_views": st.cumulative_views,
                    "pass_fraction": st.pass_fraction,
                    "mean_q": coverage["mean_q"],
                    "tour_length": st.trajectory.length,
                    "bound_ratio": st.certificate and st.certificate.ratio_vs_lower_bound,
                    "budget_exhausted": st.budget_exhausted,
                }
            )
        certified = [s.certificate for s in states if s.certificate is not None]
        if certified:
            bound_ratio = certified[0].ratio_vs_lower_bound
            certified[0].save_json(out / "certificate.json")
        final = states[-1]
        report = final.report  # coverage is its summary
        views_planned = final.planned_views
        views_total = final.cumulative_views
        tour_length = float(sum(s.trajectory.length for s in states if s.visit >= 2))
        columns = ["visit", "views_added", "cumulative_views", "pass_fraction", "mean_q",
                   "tour_length", "bound_ratio"]
        write_csv(out / "run.csv", columns, [[v[c] for c in columns] for v in visits_summary])
    else:
        if gvs_info is not None:
            dump_json(
                {"schema": SCHEMA, "stopped_early": gvs_info["stopped_early"],
                 "restarts": gvs_info["restarts"], "gain_mode": gvs_info["gain_mode"]},
                out / "gvs_info.json",
            )
        coverage = report.summary()
        trajectory.save_json(out / "trajectory.json")
        views_planned = views_total = len(trajectory)
        tour_length = trajectory.length

    report.to_csv(out / "coverage.csv")
    summary = {
        "schema": SCHEMA,
        "planner": config.planner,
        "scene": config.scene or config.mesh,
        "seed": config.seed,
        "views": views_planned,
        "views_planned": views_planned,
        "views_total": views_total,
        "tour_length": tour_length,
        "pass_fraction": report.pass_fraction,
        "mean_q": coverage["mean_q"],
        "min_q": coverage["min_q"],
        "bound_ratio": bound_ratio,
        "visits": visits_summary,
    }
    dump_json(summary, out / "summary.json")
    return summary


def compare(config: RunConfig) -> Path:
    """Run all four planners on one scene with matched view counts. The scene
    is loaded and preprocessed once, for avr, and its truth handed to the
    other three, so all four share its ``Bvh`` and probe. Every planner is
    sized before the first writes, so a run over the cap leaves no output."""
    config.validate()
    out = Path(config.out)
    configs = [replace(config, planner=p, out=str(out / p)) for p in PLANNERS]
    prepared = [_prepare(configs[0])]
    truth = prepared[0][1]
    prepared += [_prepare(c, truth) for c in configs[1:]]  # each dropped once its run is done
    n_views = run(configs[0], _prepared=prepared.pop(0))["views_planned"]
    for c in configs[1:]:
        run(replace(c, view_count=max(1, n_views)), _prepared=prepared.pop(0))
    return report([out / p for p in PLANNERS], out / "compare.csv")


def report(run_dirs, out_path) -> Path:
    """Collect summaries from run directories into one CSV, best first. A
    directory without a readable run summary is skipped with a warning."""
    columns = ["run", "planner", "scene", "seed", "views_planned", "views_total",
               "tour_length", "pass_fraction", "mean_q", "bound_ratio"]
    rows = []  # (sort key, cells, views per visit)
    for d in run_dirs:
        summary_path = Path(d) / "summary.json"
        if not summary_path.exists():
            print(f"warning: skipping {d}: no summary.json", file=sys.stderr)
            continue
        try:
            with open(summary_path) as fh:
                s = {"bound_ratio": None, **json.load(fh), "run": str(d)}
            rows.append((-(s["pass_fraction"] or 0.0), [s[c] for c in columns],
                         [v["views_added"] for v in s.get("visits", [])]))
        except (ValueError, TypeError, KeyError) as exc:  # not JSON, or not a run summary
            print(f"warning: skipping {d}: {type(exc).__name__}: {exc}", file=sys.stderr)

    rows.sort(key=lambda row: row[0])
    max_visits = max((len(views) for _, _, views in rows), default=0)
    table = [cells + views + [""] * (max_visits - len(views)) for _, cells, views in rows]
    visit_cols = [f"visit{i + 1}_views" for i in range(max_visits)]
    out_path = Path(out_path)
    write_csv(out_path, columns + visit_cols, table)
    return out_path


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    """Flags shared by plan and compare. Each dest is a RunConfig field; an
    absent flag leaves the field at RunConfig's default."""
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--scene", choices=["flat", "boxfield", "canyon"], default=None)
    src.add_argument("--mesh", default=None, help="path to an OBJ or PLY file")
    p.add_argument("--extent", type=float)
    p.add_argument("--obstacles", type=int)
    p.add_argument("--d", type=float, help="target viewing distance (m)")
    p.add_argument("--eps-d", type=float, help="distance tolerance (m)")
    p.add_argument("--t", type=int, help="minimum visible views per face")
    p.add_argument("--qstar", type=float, help="quality threshold (1/m^2)")
    p.add_argument("--budget", type=int, help="max planned views")
    p.add_argument("--k", type=int, help="face cluster count")
    p.add_argument("--r", type=float, help="grid resolution (m)")
    p.add_argument("--max-visits", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--min-pair-angle-deg", type=float)
    p.add_argument("--max-pair-angle-deg", type=float)
    p.add_argument("--gvs-gain", choices=["literal", "coverage"])
    p.add_argument("--gvs-radius", type=float)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="viewplan")
    sub = parser.add_subparsers(dest="command", required=True)

    # flags left out stay out of the namespace, so RunConfig fills them in
    unset = argparse.SUPPRESS
    p_plan = sub.add_parser("plan", help="run one planner", argument_default=unset)
    _add_common(p_plan)
    p_plan.add_argument("--planner", choices=PLANNERS)
    p_plan.add_argument("--views", type=int, dest="view_count", metavar="VIEWS",
                        help="view count for uniform/gvs")
    p_plan.add_argument("--open-tour", action="store_true",
                        help="write planned tours and their lengths without the closing hop")

    p_cmp = sub.add_parser(
        "compare", help="run all planners at matched view counts", argument_default=unset
    )
    _add_common(p_cmp)

    p_rep = sub.add_parser("report", help="tabulate run directories")
    p_rep.add_argument("dirs", nargs="+")
    p_rep.add_argument("--out", default="report.csv")

    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    try:
        if command == "plan":
            run(RunConfig(**args))
        elif command == "compare":
            compare(RunConfig(**args))
        else:
            report(args["dirs"], args["out"])
    except (ValueError, OSError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except ViewPlanError as exc:
        print(f"error: planner failed: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: planner failed: out of memory: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
