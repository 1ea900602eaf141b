"""Check that the benchmark is steady and deterministic across repeated runs.

    python3 perfbench/steady.py --seeds 1-10 --sets 2 \
        [--workloads refine,compare,certify] [--out FILE]

Runs ``run.py`` once per (set, workload, seed), untraced, and for the first
``TRACE_SEEDS`` seeds also traced. Then, per workload and end-to-end metric
of ``BENCHMARK.json``:

* spread: the distance between the first and third quartile of a set's values
  (``statistics.quantiles(n=4)``) as a share of their median; it must stay
  within the metric's bound and is flagged when above a third of it. The
  spread of ``setup_s`` is reported but not gated: a run's set-ups sample the
  machine at a few moments only, so on a shared machine whose speed drifts by
  a fifth within a minute its spread is that drift, not the program's;
* drift: each later set's median may differ from the first set's, in either
  direction, by at most the bound;
* exact repeat: for a seed, every op's result digest, every result metric and,
  in traced runs, every per-op call count and counter must be identical in
  every set.

Prints a table and writes the full report as JSON; exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_METRICS = ("pass_fraction", "tour_length_m", "bound_ratio")
# seeds, from the start of the list, that are also run traced, so that every
# per-op call count and counter is compared across sets
TRACE_SEEDS = 2


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"exit": proc.returncode, "wall_s": wall, "stderr": proc.stderr[-2000:]}
    return {"exit": 0, "wall_s": wall, "result": json.loads(lines[-1]),
            "info": json.loads(lines[-2])["info"]}


def _spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / med if med else float("inf"))


def _drift(first: float, later: float) -> float:
    """Share by which ``later`` differs from ``first``, either way."""
    if not first:
        return 0.0 if later == first else float("inf")
    return abs(later - first) / abs(first)


def _fingerprint(run: dict) -> dict:
    """The parts of a run that must repeat exactly for the same seed."""
    info = run["info"]
    fp = {
        "ops": [(o["index"], o["seed"], o["traced"], o["ok"], o["digest"]) for o in info["ops"]],
    }
    if "counts" in info:
        fp["counts"] = info["counts"]
    else:
        fp["results"] = {k: run["result"]["metrics"][k]["value"] for k in RESULT_METRICS}
    return fp


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="refine,compare,certify")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--out", default=str(HERE / ".work" / "steady.json"))
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    seeds = _seeds(args.seeds)
    runs: dict[str, list] = {}
    failures: list[str] = []

    for s in range(args.sets):
        for seed in seeds:
            for w in workloads:
                traces = (0, 1) if seed in seeds[:TRACE_SEEDS] else (0,)
                for trace in traces:
                    r = _run(w, seed, spec["run_seconds"], trace)
                    r.update(set=s, workload=w, seed=seed, trace=trace)
                    runs.setdefault(f"{w}/{trace}", []).append(r)
                    ok = r["exit"] == 0 and r["result"]["correct"]
                    print(f"set {s} {w:8s} seed {seed:3d} trace {trace}: "
                          f"{'ok' if ok else 'FAILED'} in {r['wall_s']:.1f} s", flush=True)
                    if not ok:
                        failures.append(f"{w} seed {seed} trace {trace} set {s} failed")

    table = {}
    for w in workloads:
        plain = [r for r in runs.get(f"{w}/0", []) if r["exit"] == 0]
        for name, m in e2e.items():
            per_set = [
                [r["result"]["metrics"][name]["value"] for r in plain if r["set"] == s]
                for s in range(args.sets)
            ]
            rows = []
            for s, values in enumerate(per_set):
                if len(values) < 2:
                    continue
                med, spread = _spread(values)
                rows.append({"set": s, "median": med, "spread": spread})
                if spread > m["bound"] and name != "setup_s":
                    failures.append(f"{w} {name}: set {s} spread {spread:.3f} > bound {m['bound']}")
                if s and _drift(rows[0]["median"], med) > m["bound"]:
                    failures.append(f"{w} {name}: set {s} median differs from set 0 beyond bound")
            table[f"{w}/{name}"] = {"bound": m["bound"], "sets": rows}
        for trace in (0, 1):
            by_seed: dict[int, list] = {}
            for r in runs.get(f"{w}/{trace}", []):
                if r["exit"] == 0:
                    by_seed.setdefault(r["seed"], []).append(_fingerprint(r))
            for seed, fps in by_seed.items():
                if any(fp != fps[0] for fp in fps[1:]):
                    failures.append(f"{w} seed {seed} trace {trace}: results or counts drifted")

    for key, row in table.items():
        cells = "  ".join(
            f"set {x['set']}: median {x['median']:.6g} spread {x['spread']:.4f}"
            + (" (above bound/3)" if x["spread"] > row["bound"] / 3 else "")
            for x in row["sets"]
        )
        print(f"{key:28s} bound {row['bound']:<5} {cells}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(
        {"table": table, "failures": failures,
         "runs": {k: [{**{x: r.get(x) for x in ("set", "seed", "trace", "exit", "wall_s", "result")},
                       "op_s": [o["s"] for o in r.get("info", {}).get("ops", [])]}
                      for r in v] for k, v in runs.items()}},
        indent=1,
    ))
    for f in failures:
        print("FAIL:", f)
    print("steady" if not failures else f"{len(failures)} failures", f"(report: {args.out})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
