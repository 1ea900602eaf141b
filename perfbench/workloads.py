"""The three benchmark workloads: what one op runs and how its output is checked.

Each workload plans over a fixed scene matrix built in set-up, and the
workload seed gives every op its planner seed (proxy noise, clustering, GVS
start), so the same seed gives the same ops in the same order. The scenes are
fixed because their cost differs by up to a third from scene to scene: with
the few ops a run has time for, scenes drawn from the seed made the median op
time spread by over 20% from seed to seed. Ops call viewplan through its
module attributes (``cli.run``, ``planner.plan_visit``) and never through a
name imported into this module, so the tracer's wrappers see them.

* ``refine``: ``viewplan plan --mesh`` in process, AVR on canyon-14 scenes.
  The main user path: explore pass, plan visits 2-4, re-evaluate cumulative
  coverage each visit, write the certificate and artifacts. Occlusion
  dominates.
* ``compare``: ``viewplan compare --mesh`` on boxfield-12 scenes. Evaluates
  four unrelated trajectories over one truth mesh, runs the baselines (GVS
  makes thousands of ``pair_quality`` calls) and repeats the feasibility probe
  and subdivision once per planner.
* ``certify``: visit-2 planning and its certificate alone, over pre-built
  boxfield/canyon/flat scenes. Casts no rays, so it is the workload on which a
  change to occlusion or quality should change nothing; rectangle merging and
  tours do most of its work. One op plans a batch of six scenes, two of each
  kind: single-scene ops take from 0.01 s (flat) to 2 s, and over ten seeds
  the median of such a mix spread by a third from run to run (quartile
  distance over median), the median of batches by under a tenth.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import viewplan.cli as cli
import viewplan.mesh as vmesh
import viewplan.planner as planner
import viewplan.quality as quality

CERT_SLACK = 1e-9
WORK_DIR = Path(__file__).resolve().parent / ".work"


class CheckFailed(Exception):
    """An op's output broke one of the benchmark's correctness rules."""


@dataclass
class OpResult:
    """What an op produced, reduced to the numbers the benchmark reports."""

    digest: str
    pass_fraction: float
    tour_length_m: float
    bound_ratio: float  # of the op's first certified tour
    artifact_bytes: int = 0
    # calls the op must have made, from its outputs; a traced op is checked
    # against the tracer's counts so that no call goes unseen
    expected_calls: dict[str, int] = field(default_factory=dict)


def op_seed(seed: int, index: int) -> int:
    """Seed of op ``index`` in a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] % 1_000_000)


def _check_certificate(cert: dict, where: str) -> float:
    final, bound, lb = cert["final_length"], cert["bound_value"], cert["lower_bound"]
    if not final <= bound + CERT_SLACK:
        raise CheckFailed(f"{where}: tour length {final} exceeds certified bound {bound}")
    if not lb <= final:
        raise CheckFailed(f"{where}: lower bound {lb} exceeds tour length {final}")
    return final / lb


def _check_avr_dir(out: Path) -> tuple[dict, list[bytes]]:
    """Checks one AVR artifact set; returns its summary and the bytes that
    identify its result."""
    summary_bytes = (out / "summary.json").read_bytes()
    summary = json.loads(summary_bytes)
    identity = [summary_bytes]
    for path in sorted(out.glob("certificate_visit*.json")):
        data = path.read_bytes()
        _check_certificate(json.loads(data), str(path.name))
        identity.append(data)
    first = json.loads((out / "certificate.json").read_bytes())
    if summary["bound_ratio"] != _check_certificate(first, "certificate.json"):
        raise CheckFailed(f"{out.name}: summary bound_ratio does not match certificate.json")
    passes = [v["pass_fraction"] for v in summary["visits"]]
    if any(b < a for a, b in zip(passes, passes[1:])):
        raise CheckFailed(f"{out.name}: pass fraction decreased across visits: {passes}")
    return summary, identity


def _evaluations(summary: dict) -> int:
    """evaluate_coverage calls an AVR run makes: one per visit state, except
    a visit that ran out of budget, which re-uses the previous report."""
    return sum(1 for v in summary["visits"] if not v["budget_exhausted"])


def _digest(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()[:16]


def _tree_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def _write_scenes(specs: list) -> list[str]:
    """Saves each scene as OBJ; returns the paths relative to the working
    directory, so that artifacts naming them do not depend on where the
    source tree lives."""
    scene_dir = WORK_DIR / "scenes"
    scene_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for spec in specs:
        path = scene_dir / f"{spec.kind}-{spec.extent:g}-{spec.obstacles}-{spec.seed}.obj"
        vmesh.generate_scene(spec).save_obj(path)
        paths.append(os.path.relpath(path))
    return paths


class Refine:
    name = "refine"
    nominal_op_s = 7.0  # one op on a 2-core x86 machine, Python 3.11

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        extent, count = (8.0, 1) if smoke else (14.0, 4)
        self.specs = [vmesh.SceneSpec("canyon", extent, seed=j) for j in range(count)]
        self.scenes: list[str] = []

    def setup(self) -> None:
        self.scenes = _write_scenes(self.specs)

    def op(self, index: int, out: Path):
        cfg = cli.RunConfig(
            planner="avr", scene=None, mesh=self.scenes[index % len(self.scenes)],
            seed=op_seed(self.seed, index), out=str(out),
        )
        return cli.run(cfg)

    def check(self, index: int, raw, out: Path) -> OpResult:
        summary, identity = _check_avr_dir(out)
        return OpResult(
            digest=_digest(identity),
            pass_fraction=summary["pass_fraction"],
            tour_length_m=summary["tour_length"],
            bound_ratio=summary["bound_ratio"],
            artifact_bytes=_tree_bytes(out),
            expected_calls={
                "cli.run": 1,
                "planner.probe": 1,
                "planner.preprocess": 2,  # cli.run, then run_pipeline again
                "mesh.subdivide": 2,
                "quality.coverage": _evaluations(summary),
            },
        )


class Compare:
    name = "compare"
    nominal_op_s = 14.0

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        extent, obstacles, count = (8.0, 1, 1) if smoke else (12.0, 3, 2)
        self.specs = [vmesh.SceneSpec("boxfield", extent, obstacles, j) for j in range(count)]
        self.scenes: list[str] = []

    def setup(self) -> None:
        self.scenes = _write_scenes(self.specs)

    def op(self, index: int, out: Path):
        cfg = cli.RunConfig(
            scene=None, mesh=self.scenes[index % len(self.scenes)],
            seed=op_seed(self.seed, index), out=str(out),
        )
        return cli.compare(cfg)

    def check(self, index: int, raw, out: Path) -> OpResult:
        summary, identity = _check_avr_dir(out / "avr")
        n_views = summary["views_planned"]
        for planner_name in ("zigzag", "uniform", "gvs"):
            data = (out / planner_name / "summary.json").read_bytes()
            identity.append(data)
            views = json.loads(data)["views_planned"]
            if planner_name != "zigzag" and views != max(1, n_views):
                raise CheckFailed(f"{planner_name} planned {views} views, AVR {n_views}")
        return OpResult(
            digest=_digest(identity),
            pass_fraction=summary["pass_fraction"],
            tour_length_m=summary["tour_length"],
            bound_ratio=summary["bound_ratio"],
            artifact_bytes=_tree_bytes(out),
            expected_calls={
                "cli.compare": 1,
                "cli.run": 4,
                "planner.probe": 4,
                "planner.preprocess": 5,
                "mesh.subdivide": 5,
                "quality.coverage": _evaluations(summary) + 3,
                "baselines.gvs": 1,
                "baselines.uniform": 1,
                "baselines.zigzag": 2,  # the baseline and AVR's explore pass
            },
        )


class _OpenAir:
    """A mesh's faces with nothing to block a line of sight: the duck type
    ``quality.evaluate_coverage`` needs, answering every occlusion query with
    no, so coverage is judged on distance, facing and view cone alone."""

    def __init__(self, mesh) -> None:
        self.num_faces = mesh.num_faces
        self.centroids = mesh.centroids
        self.normals = mesh.normals

    def occluded_many(self, sources, targets, **_):
        return np.zeros(len(sources), dtype=bool)


class Certify:
    name = "certify"
    nominal_op_s = 3.5
    kinds = ("boxfield", "canyon", "flat")
    pool_size = 18  # scenes built in setup
    batch = 6  # op i plans on batch i mod 3 of the pool, two scenes of each kind

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.extent_range = (6.0, 9.0) if smoke else (10.0, 22.0)
        self.params = quality.QualityParams()
        self.scenes = []

    def setup(self) -> None:
        rng = np.random.default_rng(0)  # the scene matrix; the seed drives planning
        for j in range(self.pool_size):
            spec = vmesh.SceneSpec(
                kind=self.kinds[j % len(self.kinds)],
                extent=float(rng.uniform(*self.extent_range)),
                obstacles=int(rng.integers(1, 5)),
                seed=int(rng.integers(1_000_000)),
            )
            self.scenes.append(
                planner.preprocess_mesh(vmesh.generate_scene(spec), self.params)
            )

    def _meshes(self, index: int) -> list:
        start = index % (self.pool_size // self.batch) * self.batch
        return self.scenes[start:start + self.batch]

    def op(self, index: int, out: Path):
        seed = op_seed(self.seed, index)
        return [
            planner.plan_visit(
                np.arange(mesh.num_faces), mesh, self.params,
                seed=seed + j, budget=self.params.budget,
            )
            for j, mesh in enumerate(self._meshes(index))
        ]

    def check(self, index: int, raw, out: Path) -> OpResult:
        identity, passes, lengths, ratios = [], [], [], []
        for j, (mesh, result) in enumerate(zip(self._meshes(index), raw)):
            cert = result.plan.certificate.to_json_dict()
            ratios.append(_check_certificate(cert, f"op {index} scene {j}"))
            # no rays in this workload, so its pass fraction is the free-space one
            report = quality.evaluate_coverage(_OpenAir(mesh), result.trajectory, self.params)
            passes.append(report.pass_fraction)
            lengths.append(result.trajectory.length)
            identity.append(json.dumps(cert, sort_keys=True).encode())
            identity.append(json.dumps(result.trajectory.to_json_dict(), sort_keys=True).encode())
        return OpResult(
            digest=_digest(identity),
            pass_fraction=float(np.mean(passes)),
            tour_length_m=float(np.mean(lengths)),
            bound_ratio=float(np.mean(ratios)),
            expected_calls={
                "planner.plan_visit": self.batch,
                "tours.plan": self.batch,
                "bvh.occlusion": 0,
            },
        )


WORKLOADS = {w.name: w for w in (Refine, Compare, Certify)}


def op_count(workload, seconds: float, smoke: bool) -> int:
    """Ops per run: enough to fill ``seconds`` at the workload's nominal op
    time. A fixed count, not a deadline, so that a seed always runs the same
    ops and every count and result repeats exactly."""
    if smoke:
        return 1
    return max(2, math.floor(seconds / workload.nominal_op_s + 0.5))
