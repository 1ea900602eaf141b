"""One workload in one process: set up, run the ops, check them, report.

Started by ``run.py``, which times the set-up from process start to the
``ready`` line this prints, and reads the JSON report this prints last.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import sys
import time
import traceback

from tracer import Tracer, UnseenCallError
from workloads import WORK_DIR, WORKLOADS, CheckFailed, op_count, op_seed

# no op is started past this many seconds, so that a run on a very slow
# machine still ends within three minutes; such a run says it was truncated
OP_PHASE_LIMIT_S = 140.0


def _run_op(workload, index: int, traced: bool, tracer: Tracer | None) -> dict:
    out = WORK_DIR / f"{workload.name}-{index}-{'t' if traced else 'u'}"
    shutil.rmtree(out, ignore_errors=True)
    rec = {"index": index, "seed": op_seed(workload.seed, index), "traced": traced}
    stats = None
    if traced:
        tracer.install()
        tracer.reset()
    excluded0 = tracer.excluded_s if traced else 0.0
    try:
        t0 = time.perf_counter()
        try:
            raw = workload.op(index, out)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                stats = tracer.reset()
                wall -= tracer.excluded_s - excluded0
            rec["s"] = wall
        res = workload.check(index, raw, out)
        rec.update(
            ok=True,
            digest=res.digest,
            pass_fraction=res.pass_fraction,
            tour_length_m=res.tour_length_m,
            bound_ratio=res.bound_ratio,
            artifact_bytes=res.artifact_bytes,
        )
        if traced:
            seen = {k: stats.calls.get(k, 0) for k in res.expected_calls}
            if seen != res.expected_calls:
                raise CheckFailed(f"traced calls {seen} != expected {res.expected_calls}")
    except CheckFailed as exc:
        rec.update(ok=False, error=str(exc))
    except Exception:  # an op that raises is counted as failed, and the run goes on
        rec.update(ok=False, error=traceback.format_exc(limit=4))
    finally:
        if traced:
            tracer.reset()
            tracer.uninstall()
        shutil.rmtree(out, ignore_errors=True)
    if stats is not None:
        rec["stats"] = {
            "calls": dict(stats.calls),
            "total_s": dict(stats.total_s),
            "self_s": dict(stats.self_s),
            "counts": dict(stats.counts),
        }
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy
    import scipy
    import viewplan

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    tracer = Tracer() if args.trace else None
    setup_stats = None
    if tracer is not None:
        tracer.install()  # raises UnseenCallError before any op runs
        workload.setup()
        setup_stats = tracer.reset()
        tracer.uninstall()
    else:
        workload.setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    n = op_count(workload, args.seconds, args.smoke)
    ops = []
    truncated = False
    t_start = time.perf_counter()
    if tracer is None:
        plan = [(i, False) for i in range(n)]
    else:
        # each op untraced and traced, in alternating order, for the overhead
        plan = [
            (i, traced)
            for i in range(math.ceil(n / 2))
            for traced in ((False, True) if i % 2 == 0 else (True, False))
        ]
    for index, traced in plan:
        if time.perf_counter() - t_start > OP_PHASE_LIMIT_S:
            truncated = True
            break
        ops.append(_run_op(workload, index, traced, tracer))

    report = {
        "viewplan_file": viewplan.__file__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ops": ops,
        "truncated": truncated,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["wrapped_sites"] = tracer.sites
        report["setup_counts"] = dict(setup_stats.counts)
        report["setup_total_s"] = dict(setup_stats.total_s)
        report["setup_calls"] = dict(setup_stats.calls)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except UnseenCallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
