"""Smoke tests of the benchmark: one tiny op per workload, every metric named.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(workload, trace, section):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, info_line, last = proc.stdout.strip().splitlines()
    result, info = json.loads(last), json.loads(info_line)["info"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], info["errors"] + info["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert info["error_rate"] == {"value": 0.0, "unit": "ratio"}
    assert "op_tail_s" in info
    env = info["environment"]
    assert env["thread_env"]["AVR_THREADS"] == "1"
    assert env["seed"] == 7
    assert all(env[k] for k in ("nproc", "python", "numpy", "scipy"))


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench(tmp_path, "certify", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import tracer
    import viewplan.cli  # noqa: F401  (every module the tracer wraps)

    return tracer


def test_tracer_wraps_every_import_site_and_restores(tracer_module):
    import viewplan.cli as cli
    import viewplan.planner as planner
    import viewplan.quality as quality

    original = quality.evaluate_coverage
    t = tracer_module.Tracer()
    t.install()
    try:
        assert quality.evaluate_coverage is not original
        assert planner.evaluate_coverage is quality.evaluate_coverage
        assert cli.evaluate_coverage is quality.evaluate_coverage
    finally:
        t.uninstall()
    assert quality.evaluate_coverage is original
    assert planner.evaluate_coverage is original


def test_tracer_refuses_a_reference_it_cannot_wrap(tracer_module):
    import viewplan.quality as quality

    original = quality.pair_quality
    stash = {"kept": original}  # a call through this would go unseen
    with pytest.raises(tracer_module.UnseenCallError):
        tracer_module.Tracer().install()
    assert quality.pair_quality is original
    del stash
