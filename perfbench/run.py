"""viewplan benchmark: one workload per call, timed end to end or layer by layer.

    python3 perfbench/run.py --workload refine|compare|certify --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from the root of a source tree; viewplan is imported from ``src/``. The
workload runs in a child process with ``AVR_THREADS=1`` and every BLAS thread
count at 1. Each op's output is checked (certificate inequality, lower bound,
non-decreasing pass fraction across visits, matched baseline view counts); an
op that raises or fails a check counts as failed.

The number of ops fills ``--seconds`` at the workload's nominal op time, but
is fixed per workload, so a seed always runs the same ops and every result and
count repeats exactly. ``--smoke`` runs one op on tiny inputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones:

    setup_s        median over SETUP_REPEATS processes of the time from process
                   start to the first op: imports, scene generation and
                   preprocessing done outside ops; the set-up-only processes
                   run half before and half after the one that runs the ops,
                   so that the samples span the whole run
    op_p50_s       median wall time of one op
    peak_rss_mb    peak resident memory of the process that ran the ops
    pass_fraction  final AVR pass fraction (summary.json), mean over ops; on
                   certify, which casts no rays, the pass fraction of the
                   planned views with occlusion ignored
    tour_length_m  planned AVR tour length, mean over ops
    bound_ratio    final_length / lower_bound of the certificate of the first
                   planned visit (summary.json), mean over ops

With ``--trace 1`` each op runs once untraced and once traced, and the metrics
are per layer, from the traced runs (per op unless a ratio), plus two figures
of the tracing itself: ``trace.overhead_s``, traced minus untraced median op
time, and ``trace.accounted_gap``, by how much the layers' summed self times
in a traced op miss or exceed the wall time of the same op run untraced, as a
share of the latter, median over the op pairs. With at least
``ACCOUNTED_MIN_PAIRS`` pairs, a gap above ``ACCOUNTED_TOLERANCE`` makes the
run not correct.

The line before the last holds the run's context: thread settings, nproc,
versions, seed, the op count, the error rate, the tail percentile when there
are enough ops, every op's seed, time and result digest, and in a traced run
the per-op call counts, the traced and untraced median op times, the number
of traced ops, the accounted fraction behind the gap with its pair count and
the number of wrapped import sites.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("refine", "compare", "certify")
SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0
THREAD_ENV = {
    "AVR_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# The accounted gap compares two executions of an op, and on a shared machine
# the same op run twice in a row has taken from 0.7 to 1.6 times as long, so
# one pair cannot tell tracing distortion from machine drift. Only the median
# of several pairs (a 30-s run has 5 on certify, 2 on refine, 1 on compare)
# is gated, at a tolerance well outside its noise; it catches gross distortion
# such as benchmark analysis left inside a span or a wrapper that copies its
# arguments.
ACCOUNTED_MIN_PAIRS = 5
ACCOUNTED_TOLERANCE = 0.25

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "pass_fraction": "ratio",
    "tour_length_m": "m",
    "bound_ratio": "ratio",
}


class WorkerError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _spawn(args: argparse.Namespace, deadline: float, setup_only: bool) -> tuple[float, dict | None]:
    """Run one worker; returns (seconds from start to ready, its report)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    cmd += ["--smoke"] if args.smoke else []
    cmd += ["--setup-only"] if setup_only else []
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or first.strip() != "ready":
        raise WorkerError(f"worker exited with code {code}")
    if setup_only:
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no report")
    return setup_s, json.loads(lines[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def _tail(times: list[float]) -> dict | None:
    """Highest whole percentile with at least ten ops beyond it."""
    n = len(times)
    ordered = sorted(times)
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)  # nearest-rank: ceil(p n / 100)
        if rank >= 1 and n - rank >= 10:
            return {"percentile": p, "value_s": ordered[rank - 1], "ops_beyond": n - rank, "ops": n}
    return None


def _end_to_end(ops: list[dict], setups: list[float], rss_kb: int) -> dict:
    done = [o for o in ops if o.get("ok")]
    values = {
        "setup_s": _median(setups),
        "op_p50_s": _median([o["s"] for o in ops if "s" in o]),
        "peak_rss_mb": rss_kb / 1024.0,
        "pass_fraction": statistics.fmean([o["pass_fraction"] for o in done]) if done else 0.0,
        "tour_length_m": statistics.fmean([o["tour_length_m"] for o in done]) if done else 0.0,
        "bound_ratio": statistics.fmean([o["bound_ratio"] for o in done]) if done else 0.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _sum_stats(traced: list[dict]) -> dict:
    tot = {"calls": {}, "total_s": {}, "self_s": {}, "counts": {}}
    for o in traced:
        st = o["stats"]
        for part in ("calls", "total_s", "self_s", "counts"):
            for k, v in st[part].items():
                tot[part][k] = tot[part].get(k, 0) + v
    return tot


def _accounted(ops: list[dict]) -> tuple[float, int]:
    """Median over op pairs of the layers' summed self time in the traced
    execution over the wall time of the untraced one; and the pair count."""
    untraced = {o["index"]: o["s"] for o in ops if not o["traced"] and "s" in o}
    shares = [
        _ratio(sum(o["stats"]["self_s"].values()), untraced[o["index"]])
        for o in ops
        if o["traced"] and "stats" in o and o["index"] in untraced
    ]
    return _median(shares), len(shares)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(ops: list[dict], report: dict) -> dict:
    """Per-layer metrics from the traced ops of a ``--trace 1`` run."""
    traced = [o for o in ops if o["traced"] and "stats" in o]
    untraced = [o for o in ops if not o["traced"] and "s" in o]
    n = max(1, len(traced))
    st = _sum_stats(traced)
    calls, total, self_s, counts = st["calls"], st["total_s"], st["self_s"], st["counts"]
    c = lambda k: counts.get(k, 0)
    t = lambda k: total.get(k, 0.0)
    traced_s = [o["s"] for o in traced]
    setup_calls = report.get("setup_calls", {})
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("bvh.occlusion_s", t("bvh.occlusion") / n, "s")
    put("bvh.segments", c("bvh.segments") / n, "count")
    put("bvh.segments_per_s", _ratio(c("bvh.segments"), t("bvh.occlusion")), "1/s")
    put("bvh.blocked_fraction", _ratio(c("bvh.blocked"), c("bvh.segments")), "ratio")
    put("bvh.narrow_tests", c("bvh.narrow_tests") / n, "count")
    put("bvh.aabb_overlap_fraction",
        _ratio(c("bvh.aabb_overlaps_sampled"), c("bvh.aabb_pairs_sampled")), "ratio")
    put("planner.probe_s", t("planner.probe") / n, "s")
    put("planner.probe_calls", calls.get("planner.probe", 0) / n, "count")
    put("planner.probe_segments", c("bvh.segments@planner.probe") / n, "count")
    put("planner.infeasible_faces", c("planner.infeasible_faces") / n, "count")
    put("planner.plan_visit_s", t("planner.plan_visit") / n, "s")
    put("planner.visits", calls.get("planner.plan_visit", 0) / n, "count")
    put("quality.coverage_s", t("quality.coverage") / n, "s")
    put("quality.coverage_calls", calls.get("quality.coverage", 0) / n, "count")
    put("quality.visibility_s", t("quality.visibility") / n, "s")
    put("quality.face_view_pairs", c("quality.face_view_pairs") / n, "count")
    put("quality.cull_pass_fraction",
        _ratio(c("bvh.segments@quality.visibility"), c("quality.face_view_pairs")), "ratio")
    put("quality.pair_quality_s", t("quality.pair_quality") / n, "s")
    put("quality.pair_quality_calls", calls.get("quality.pair_quality", 0) / n, "count")
    put("rectangles.build_avr_s", t("rectangles.build_avr") / n, "s")
    put("rectangles.cluster_s", t("rectangles.cluster") / n, "s")
    put("rectangles.merge_s", t("rectangles.merge") / n, "s")
    put("rectangles.intersect_tests", calls.get("rectangles.rectangles_intersect", 0) / n, "count")
    put("rectangles.rects", c("rectangles.rects") / n, "count")
    put("tours.plan_s", t("tours.plan") / n, "s")
    put("tours.views", c("tours.views") / n, "count")
    put("tours.coarsen_steps", c("tours.coarsen_steps") / n, "count")
    put("tours.cert_slack_m", _ratio(c("tours.cert_slack_m"), c("tours.certificates")), "m")
    put("mesh.subdivide_s", t("mesh.subdivide") / n, "s")
    put("mesh.subdivide_calls", calls.get("mesh.subdivide", 0) / n, "count")
    faces_out = c("mesh.faces_out") + report.get("setup_counts", {}).get("mesh.faces_out", 0)
    subdivisions = calls.get("mesh.subdivide", 0) + setup_calls.get("mesh.subdivide", 0)
    put("mesh.faces", _ratio(faces_out, subdivisions), "count")
    put("mesh.setup_subdivide_s", report.get("setup_total_s", {}).get("mesh.subdivide", 0.0), "s")
    put("baselines.gvs_s", t("baselines.gvs") / n, "s")
    put("baselines.uniform_s", t("baselines.uniform") / n, "s")
    put("baselines.zigzag_s", t("baselines.zigzag") / n, "s")
    put("cli.runs", calls.get("cli.run", 0) / n, "count")
    put("cli.artifact_bytes", statistics.fmean([o.get("artifact_bytes", 0) for o in traced]) if traced else 0.0, "bytes")
    for layer in ("mesh", "bvh", "quality", "rectangles", "tours", "planner", "baselines", "cli"):
        put(f"{layer}.self_s", self_s.get(layer, 0.0) / n, "s")
    put("trace.overhead_s", _median(traced_s) - _median([o["s"] for o in untraced]), "s")
    put("trace.accounted_gap", abs(_accounted(ops)[0] - 1.0), "ratio")
    return m


def _problems(ops: list[dict], report: dict, trace: int) -> list[str]:
    """Reasons the run is not correct beyond failed ops."""
    out = []
    if report["truncated"]:
        out.append("op phase truncated by its time limit")
    if not str(report["viewplan_file"]).startswith(str(SRC)):
        out.append(f"viewplan imported from {report['viewplan_file']}, not from src/")
    if trace:
        by_index = {}
        for o in ops:
            if o.get("ok"):
                by_index.setdefault(o["index"], set()).add(o["digest"])
        drift = sorted(i for i, d in by_index.items() if len(d) > 1)
        if drift:
            out.append(f"traced and untraced results differ on ops {drift}")
        share, pairs = _accounted(ops)
        if pairs >= ACCOUNTED_MIN_PAIRS and abs(share - 1.0) > ACCOUNTED_TOLERANCE:
            out.append(f"traced layer times add up to {share:.3f} of the untraced op time")
    return out


def _environment(args, report: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_env": THREAD_ENV,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": report["numpy"],
        "scipy": report["scipy"],
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one op on tiny inputs")
    args = ap.parse_args(argv)
    if not (SRC / "viewplan" / "__init__.py").is_file():
        print(f"error: no viewplan sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        extra = 0 if args.trace else SETUP_REPEATS - 1
        setups = [_spawn(args, deadline, True)[0] for _ in range(extra // 2)]
        setup_s, report = _spawn(args, deadline, False)
        setups.append(setup_s)
        setups += [_spawn(args, deadline, True)[0] for _ in range(extra - extra // 2)]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = report["ops"]
    failed = [o for o in ops if not o.get("ok")]
    if args.trace:
        metrics = per_layer(ops, report)
    else:
        metrics = _end_to_end(ops, setups, report["peak_rss_kb"])
    problems = _problems(ops, report, args.trace)
    timed = [o["s"] for o in ops if "s" in o and not o["traced"]]
    info = {
        "environment": _environment(args, report),
        "ops_attempted": len(ops),
        "error_rate": {"value": len(failed) / max(1, len(ops)), "unit": "ratio"},
        "op_tail_s": _tail(timed) or f"omitted: {len(timed)} ops, a tail needs at least 11",
        "setup_samples_s": setups,
        "errors": [o["error"] for o in failed],
        "problems": problems,
        "ops": [
            {k: o.get(k) for k in ("index", "seed", "traced", "s", "ok", "digest")}
            for o in ops
        ],
    }
    if args.trace:
        info["counts"] = {
            o["index"]: {**o["stats"]["calls"], **o["stats"]["counts"]}
            for o in ops if o["traced"] and "stats" in o
        }
        info["traced_op_p50_s"] = _median([o["s"] for o in ops if o["traced"] and "s" in o])
        info["untraced_op_p50_s"] = _median(timed)
        info["traced_ops"] = sum(1 for o in ops if o["traced"])
        info["accounted_fraction"], info["accounted_pairs"] = _accounted(ops)
        info["wrapped_sites"] = report["wrapped_sites"]
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
