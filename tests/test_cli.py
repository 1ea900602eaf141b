import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from viewplan import cli, planner, rectangles, tours
from viewplan import mesh as mesh_module
from viewplan.cli import SCHEMA, RunConfig, compare, main, report, run
from viewplan.errors import MergeNonTerminationError
from viewplan.mesh import SceneSpec, TriangleMesh, count_text, generate_scene, load_mesh
from viewplan.planner import preprocess_mesh
from viewplan.quality import QualityParams

from conftest import renumbered


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _tree(out: Path) -> dict[str, bytes]:
    """Every file under ``out`` by its relative path, with its bytes."""
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


FAST = dict(scene="flat", extent=8.0, d=5.0, budget=300, seed=1)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _python(args, *dirs):
    """Run a fresh interpreter with ``src`` and ``dirs`` on its import path."""
    path = filter(None, [str(SRC), *map(str, dirs), os.environ.get("PYTHONPATH")])
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency
    code = "import sys, viewplan.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = _python(["-c", code])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_benchmark_tracer_finds_every_entry_point():
    # perfbench/tracer.py wraps viewplan functions by name, so renaming or
    # deleting one of them must fail here and not only in a traced benchmark
    code = (
        "import viewplan.cli, tracer; t = tracer.Tracer(); t.install(); "
        "print(t.sites, len(tracer.ENTRY_POINTS)); t.uninstall()"
    )
    done = _python(["-c", code], ROOT / "perfbench")
    assert done.returncode == 0, done.stderr
    sites, entry_points = map(int, done.stdout.split())
    assert sites >= entry_points


def test_benchmark_smoke_tests_pass():
    # in its own interpreter: the benchmark's tracer refuses to install while
    # other modules hold references to the functions it wraps, as the test
    # modules here do once collected
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "perfbench/test_smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
    assert re.search(r"\b\d+ passed", done.stdout)


class TestRunConfig:
    def test_json_round_trip(self):
        cfg = RunConfig(planner="uniform", scene="canyon", extent=14.5, seed=9, out="x")
        data = json.loads(json.dumps(cfg.to_json_dict()))
        assert data.pop("schema") == SCHEMA
        assert RunConfig(**data) == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(planner="magic", out="x").validate()
        with pytest.raises(ValueError):
            RunConfig(scene=None, mesh=None).validate()
        with pytest.raises(ValueError):
            RunConfig(scene="flat", t=1).validate()
        RunConfig(budget=mesh_module.MAX_FACES).validate()  # at the cap
        with pytest.raises(ValueError, match="budget must be at most"):
            RunConfig(budget=mesh_module.MAX_FACES + 1).validate()


class TestRun:
    def test_avr_artifact_set(self, tmp_path):
        cfg = RunConfig(planner="avr", out=str(tmp_path / "r"), **FAST)
        run(cfg)
        out = tmp_path / "r"
        for name in (
            "config.json",
            "summary.json",
            "coverage.csv",
            "run.csv",
            "certificate.json",
            "trajectory_visit1.json",
            "trajectory_visit2.json",
            "coverage_visit1.json",
        ):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema"] == 1
        assert summary["planner"] == "avr"
        assert summary["pass_fraction"] == 1.0
        assert summary["bound_ratio"] is not None
        assert summary["views_planned"] <= cfg.budget

    def test_summary_metrics_recomputable_from_artifacts(self, tmp_path):
        cfg = RunConfig(planner="avr", out=str(tmp_path / "r"), **FAST)
        run(cfg)
        out = tmp_path / "r"
        summary = json.loads((out / "summary.json").read_text())
        visits = summary["visits"]
        traj2 = json.loads((out / "trajectory_visit2.json").read_text())
        assert visits[1]["views_added"] == len(traj2["views"])
        assert summary["views_total"] == sum(v["views_added"] for v in visits)
        cert = json.loads((out / "certificate.json").read_text())
        assert summary["bound_ratio"] == pytest.approx(
            cert["final_length"] / cert["lower_bound"]
        )
        rows = read_csv(out / "coverage.csv")
        statuses = [r[-1] for r in rows[1:]]
        assert summary["pass_fraction"] == pytest.approx(
            statuses.count("pass") / len(statuses)
        )
        # run.csv holds the summary's visit records, floats written exactly
        header, *cells = read_csv(out / "run.csv")
        assert len(cells) == len(visits)
        assert visits[0]["bound_ratio"] is None and visits[-1]["bound_ratio"] is not None
        for row, visit in zip(cells, visits):
            for name, cell in zip(header, row):
                if visit[name] is None:
                    assert cell == ""
                else:
                    assert float(cell) == visit[name], name

    def test_zigzag_and_uniform_runs(self, tmp_path):
        for planner in ("zigzag", "uniform"):
            cfg = RunConfig(planner=planner, out=str(tmp_path / planner), view_count=20, **FAST)
            run(cfg)
            summary = json.loads((tmp_path / planner / "summary.json").read_text())
            assert summary["planner"] == planner
            assert summary["bound_ratio"] is None
            assert (tmp_path / planner / "trajectory.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = RunConfig(planner="avr", out=str(tmp_path / "r"), **FAST)
        run(cfg)
        first = {
            p.name: p.read_bytes() for p in sorted((tmp_path / "r").iterdir())
        }
        run(cfg)
        second = {
            p.name: p.read_bytes() for p in sorted((tmp_path / "r").iterdir())
        }
        assert first == second


class TestCompare:
    def test_parity_and_table(self, tmp_path):
        cfg = RunConfig(
            planner="avr",
            scene="boxfield",
            extent=10.0,
            obstacles=1,
            seed=2,
            out=str(tmp_path / "cmp"),
        )
        out_csv = compare(cfg)
        rows = read_csv(out_csv)
        header, data = rows[0], rows[1:]
        assert len(data) == 4
        col = {name: i for i, name in enumerate(header)}
        by_planner = {r[col["planner"]]: r for r in data}
        avr_views = int(by_planner["avr"][col["views_planned"]])
        assert int(by_planner["uniform"][col["views_planned"]]) == avr_views
        assert int(by_planner["gvs"][col["views_planned"]]) == avr_views
        fracs = [float(r[col["pass_fraction"]]) for r in data]
        assert fracs == sorted(fracs, reverse=True)  # best first

    def test_one_truth_serves_all_four_runs(self, tmp_path, monkeypatch):
        # the truth avr prepares is handed to the other three runs: one tree
        # for it and one for GVS's proxy, one probe; every call is still made
        calls = {"bvh": 0, "probe": 0, "infeasible": 0, "preprocess": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(mesh_module, "Bvh", counting("bvh", mesh_module.Bvh))
        monkeypatch.setattr(planner, "_hemisphere_directions",  # once per probe computed
                            counting("probe", planner._hemisphere_directions))
        for module in (cli, planner):
            for attr, name in (("infeasible_faces", "infeasible"),
                               ("preprocess_mesh", "preprocess")):
                monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
        compare(RunConfig(scene="boxfield", extent=8.0, obstacles=1, seed=1,
                          out=str(tmp_path / "cmp")))
        assert calls == {"bvh": 2, "probe": 1, "infeasible": 4, "preprocess": 5}


class TestReport:
    def test_empty_dir_warns_and_writes_header(self, tmp_path, capsys):
        out = report([tmp_path / "missing"], tmp_path / "rep.csv")
        rows = read_csv(out)
        assert len(rows) == 1
        assert "pass_fraction" in rows[0]
        assert "skipping" in capsys.readouterr().err

    def test_rows_sorted_by_pass_fraction(self, tmp_path):
        for i, frac in enumerate([0.2, 0.9, 0.5]):
            d = tmp_path / f"run{i}"
            d.mkdir()
            (d / "summary.json").write_text(
                json.dumps(
                    {
                        "schema": 1,
                        "planner": "avr",
                        "scene": "flat",
                        "seed": i,
                        "views_planned": 5,
                        "views_total": 5,
                        "tour_length": 1.0,
                        "pass_fraction": frac,
                        "mean_q": 0.0,
                        "min_q": 0.0,
                        "bound_ratio": None,
                        "visits": [{"views_added": 3}, {"views_added": 2}],
                    }
                )
            )
        out = report([tmp_path / f"run{i}" for i in range(3)], tmp_path / "rep.csv")
        rows = read_csv(out)
        fracs = [float(r[7]) for r in rows[1:]]
        assert fracs == [0.9, 0.5, 0.2]
        assert rows[0][-2:] == ["visit1_views", "visit2_views"]
        assert rows[1][-2:] == ["3", "2"]

    def test_file_that_is_not_a_run_summary_is_skipped(self, tmp_path, capsys):
        for name, text in (("list", "[]"), ("partial", '{"planner": "x"}')):
            (tmp_path / name).mkdir()
            (tmp_path / name / "summary.json").write_text(text)
        out = report([tmp_path / "list", tmp_path / "partial"], tmp_path / "rep.csv")
        assert len(read_csv(out)) == 1
        err = capsys.readouterr().err
        assert f"warning: skipping {tmp_path / 'list'}: " in err
        assert f"warning: skipping {tmp_path / 'partial'}: " in err


_NUMBERING_SCENES = {
    "boxfield": generate_scene(SceneSpec("boxfield", 8.0, obstacles=1, seed=1)),
    "canyon": generate_scene(SceneSpec("canyon", 8.0, seed=1)),
}


@pytest.fixture(scope="module")
def numbering_runs(tmp_path_factory):
    """``runs(vertices, faces)``, the preprocessed scene's bytes and the trees
    ``plan`` and ``compare`` write for a mesh, each written to the same OBJ
    path and planned into the same ``--out``, which is cleared between runs;
    and ``runs`` of each scene as generated."""
    work = tmp_path_factory.mktemp("numbering")
    obj, out = work / "scene.obj", work / "out"

    def runs(vertices, faces):
        TriangleMesh(vertices, faces).save_obj(obj)
        truth = preprocess_mesh(load_mesh(obj), QualityParams())
        got = [truth.vertices.tobytes(), truth.faces.tobytes()]
        for command in (["plan", "--budget", "60"], ["compare"]):
            shutil.rmtree(out, ignore_errors=True)
            assert main([*command, "--mesh", str(obj), "--seed", "1", "--out", str(out)]) == 0
            got.append(_tree(out))
        return got

    return runs, {kind: runs(m.vertices, m.faces) for kind, m in _NUMBERING_SCENES.items()}


@settings(max_examples=6)
@given(st.sampled_from(sorted(_NUMBERING_SCENES)), st.integers(0, 2**32 - 1), st.just(False))
@example("boxfield", None, True)  # only a 0.0 written as -0.0
def test_plan_and_compare_ignore_numbering(numbering_runs, kind, seed, negative_zero):
    # a scene is its set of faces: how a file numbers its vertices, orders its
    # faces and starts each face's corners changes no byte
    runs, reference = numbering_runs
    vertices, faces = _NUMBERING_SCENES[kind].vertices.copy(), _NUMBERING_SCENES[kind].faces
    if negative_zero:
        assert vertices[0, 0] == 0.0
        vertices[0, 0] = -0.0
    if seed is not None:
        vertices, faces = renumbered(vertices, faces, np.random.default_rng(seed))
    assert runs(vertices, faces) == reference[kind]


# the first 16 hex digits of the sha256 of every file the three runs below
# write; the pair columns land in coverage.csv, the views in the trajectories
_GOLDEN_RUNS = {
    "a": ["plan", "--scene", "canyon", "--extent", "8", "--budget", "60", "--seed", "1"],
    "b": ["compare", "--scene", "boxfield", "--extent", "8", "--obstacles", "1", "--seed", "1"],
    "c": ["plan", "--scene", "flat", "--extent", "8", "--planner", "gvs", "--gvs-gain", "coverage",
          "--min-pair-angle-deg", "10", "--max-pair-angle-deg", "120", "--seed", "1"],
}
_GOLDEN_DIGESTS = {
    "a/certificate.json": "401fa0e4a7f71fb8",
    "a/certificate_visit2.json": "401fa0e4a7f71fb8",
    "a/config.json": "3b9574f44de17471",
    "a/coverage.csv": "f02b60a9c81a51ac",
    "a/coverage_visit1.json": "67da25d9023f1435",
    "a/coverage_visit2.json": "b3ef522dd45687d8",
    "a/coverage_visit3.json": "b3ef522dd45687d8",
    "a/run.csv": "33752ddadd6f2fc9",
    "a/summary.json": "547e4e90fe671c06",
    "a/trajectory_visit1.json": "da7a5b58b38e8311",
    "a/trajectory_visit2.json": "15d1f3a9d4b51d06",
    "a/trajectory_visit3.json": "598f88f32a39c324",
    "b/avr/certificate.json": "5f08a43a05f02a76",
    "b/avr/certificate_visit2.json": "5f08a43a05f02a76",
    "b/avr/certificate_visit3.json": "6fd89f296bca8faa",
    "b/avr/config.json": "da621850dc33d6c5",
    "b/avr/coverage.csv": "ede9f6d0a7c0ca52",
    "b/avr/coverage_visit1.json": "d5313824867321d4",
    "b/avr/coverage_visit2.json": "4d1a88c1e48664c2",
    "b/avr/coverage_visit3.json": "24232f7029c98101",
    "b/avr/run.csv": "6288671cd1573f84",
    "b/avr/summary.json": "d1c7b9b83de8e462",
    "b/avr/trajectory_visit1.json": "da7a5b58b38e8311",
    "b/avr/trajectory_visit2.json": "9e5759561d5c4244",
    "b/avr/trajectory_visit3.json": "12d7dd88ff1315a8",
    "b/compare.csv": "281010c4a8e255e9",
    "b/gvs/config.json": "f6da8f0304b1ecf6",
    "b/gvs/coverage.csv": "ae9403129946bfea",
    "b/gvs/gvs_info.json": "86db41d35ea984af",
    "b/gvs/summary.json": "d9e0d928ae6180da",
    "b/gvs/trajectory.json": "24d16377c83a1acf",
    "b/uniform/config.json": "e84d61b4681d8af4",
    "b/uniform/coverage.csv": "cf4fb9695549bced",
    "b/uniform/summary.json": "0e9fb0e842d9c9ca",
    "b/uniform/trajectory.json": "465bc1f966a4f431",
    "b/zigzag/config.json": "394b9b9b19051f8e",
    "b/zigzag/coverage.csv": "a14011d5d5b856dc",
    "b/zigzag/summary.json": "89a4deb48fe240ee",
    "b/zigzag/trajectory.json": "da7a5b58b38e8311",
    "c/config.json": "a1ba89824f24f964",
    "c/coverage.csv": "c93eaf1c47a59df5",
    "c/gvs_info.json": "b6cdf7201efe06fa",
    "c/summary.json": "6fe723590fda2117",
    "c/trajectory.json": "f001db0bb658fe1a",
}


def test_artifacts_match_the_golden_digests(tmp_path, monkeypatch):
    # a relative --out keeps every path written inside the tree relative
    monkeypatch.chdir(tmp_path)
    for out, command in _GOLDEN_RUNS.items():
        assert main([*command, "--out", out]) == 0
    got = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()[:16]
        for p in sorted(tmp_path.rglob("*")) if p.is_file()
    }
    moved = sorted(k for k in got.keys() | _GOLDEN_DIGESTS.keys() if got.get(k) != _GOLDEN_DIGESTS.get(k))
    assert not moved, (
        f"artifacts moved: {moved}; a change that moves artifacts follows the epoch protocol "
        "(ROADMAP.md): one commit per change with its artifact diff explained, and its new "
        "digests become the reference here"
    )


@pytest.fixture(scope="module")
def shifted_plan(tmp_path_factory):
    """``run(x, command)``: the output directory of ``plan`` or ``compare``
    on boxfield-10 moved by (x, x, 0) and read from its OBJ file."""
    scene = generate_scene(SceneSpec("boxfield", 10.0, obstacles=1, seed=0))
    work = tmp_path_factory.mktemp("shifted")

    def run(x, command="plan"):
        obj, out = work / f"scene_{x:g}.obj", work / f"{command}_{x:g}"
        TriangleMesh(scene.vertices + [x, x, 0.0], scene.faces).save_obj(obj)
        assert main([command, "--mesh", str(obj), "--seed", "0", "--out", str(out)]) == 0
        return out

    return run


def _fraction_and_length(out: Path):
    summary = json.loads((out / "summary.json").read_text())
    return summary["pass_fraction"], json.loads((out / "certificate.json").read_text())["final_length"]


@pytest.mark.parametrize("x", [1e5, 1e6, 1e7])
def test_plan_far_from_the_origin(shifted_plan, x):
    # UTM coordinates sit at 1e5-1e6 m; a 2 x 2 sweep there meets its
    # per-rectangle bound 3 A / r exactly, up to the rounding of its hops
    fraction, length = _fraction_and_length(shifted_plan(x))
    origin_fraction, origin_length = _fraction_and_length(shifted_plan(0.0))
    assert fraction == origin_fraction
    assert length == pytest.approx(origin_length, rel=0, abs=1e-7)


@pytest.mark.parametrize("x", [1e5, 1e7])
def test_compare_far_from_the_origin(shifted_plan, x):
    """Every planner plans the origin's view count far from it, and avr,
    zigzag and uniform keep the origin's pass fraction. GVS does not: its
    neighbour radius (1.0 m) equals its pool's lattice step 0.2 d at d = 5,
    so whether a pick's lattice neighbours become candidates is decided by
    the last bit of their computed distance, which the offset moves. Its
    pass fraction reads 0.9285714 at the origin and 0.9330357 at 1e5 and 1e7."""

    def views_and_fractions(out):
        summaries = {p: json.loads((out / p / "summary.json").read_text()) for p in cli.PLANNERS}
        return {p: (s["views"], s["pass_fraction"]) for p, s in summaries.items()}

    origin = views_and_fractions(shifted_plan(0.0, "compare"))
    assert origin == {"avr": (200, 0.9330357142857143), "zigzag": (121, 0.0),
                      "uniform": (200, 0.9017857142857143), "gvs": (200, 0.9285714285714286)}
    far = views_and_fractions(shifted_plan(x, "compare"))
    assert {p: v for p, (v, _) in far.items()} == {p: v for p, (v, _) in origin.items()}
    kept = ("avr", "zigzag", "uniform")
    assert [far[p] for p in kept] == [origin[p] for p in kept]


@st.composite
def fuzz_scenes(draw) -> TriangleMesh:
    """One or two disjoint parts, terrain patches or boxes without a bottom,
    scaled by 1e-3 to 1e4 and moved up to 1e7 m, with faces flipped and
    duplicated, the level faces dropped (walls only), or a sliver added."""
    parts = []
    for i in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            part = mesh_module._terrain(draw(st.integers(1, 3)))
            v, f = part.vertices, part.faces
        else:
            v, f = mesh_module._box(0.0, 0.0, 2.0, 3.0, 0.0, draw(st.floats(0.5, 4.0)))
        parts.append((v + [8.0 * i, 0.0, 0.0], f))
    starts = np.cumsum([0] + [len(v) for v, _ in parts])
    vertices = np.concatenate([v for v, _ in parts])
    faces = np.concatenate([f + start for (_, f), start in zip(parts, starts)])
    if draw(st.booleans()):  # walls only, when the parts have walls
        walls = np.abs(TriangleMesh(vertices, faces, drop_degenerate=False).normals[:, 2]) < 0.5
        faces = faces[walls] if walls.any() else faces
    picks = st.lists(st.integers(0, len(faces) - 1), max_size=3)
    flipped = draw(picks)
    faces[flipped] = faces[flipped, ::-1]
    faces = np.concatenate([faces, faces[draw(picks)]])
    if draw(st.booleans()):  # a sliver: one corner 1e-6 m off its opposite edge
        sliver = [[0.0, 0.0, 7.0], [1.0, 0.0, 7.0], [0.5, 1e-6, 7.0]]
        faces = np.concatenate([faces, [np.arange(3) + len(vertices)]])
        vertices = np.concatenate([vertices, sliver])
    scale = 10.0 ** draw(st.floats(-3.0, 4.0))
    offset = draw(st.tuples(*[st.sampled_from([0.0, 1e3, -1e5, 1e7])] * 3))
    return TriangleMesh(vertices * scale + offset, faces, drop_degenerate=False)


def ply_text(vertices, faces) -> str:
    """An ASCII PLY of the given vertices and 0-based faces (any corner
    count), each coordinate written to round-trip."""
    head = ["ply", "format ascii 1.0", f"element vertex {len(vertices)}",
            *(f"property double {axis}" for axis in "xyz"), f"element face {len(faces)}",
            "property list uchar int vertex_indices", "end_header"]
    rows = [" ".join(repr(float(x)) for x in v) for v in vertices]
    rows += [" ".join(map(str, [len(f), *f])) for f in faces]
    return "\n".join(head + rows) + "\n"


# a terrain patch and a box, the scene every mutation starts from
_FUZZ_VERTICES = [(0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0), (1, 1, 2), (3, 1, 2), (3, 3, 2), (1, 3, 2)]
_FUZZ_FACES = [(1, 2, 3), (1, 3, 4), (5, 6, 7), (5, 7, 8), (1, 2, 6, 5), (2, 3, 7, 6)]  # 1-based
_FUZZ_OBJ = "".join(f"v {x:g} {y:g} {z:g}\n" for x, y, z in _FUZZ_VERTICES) + "".join(
    "f " + " ".join(map(str, f)) + "\n" for f in _FUZZ_FACES
)
_FUZZ_PLY = ply_text(_FUZZ_VERTICES, [[i - 1 for i in f] for f in _FUZZ_FACES])
_HUGE_INDEX = "99999999999999999999"  # past int64


@st.composite
def token_mutations(draw, suffix: str, text: str) -> tuple[str, str]:
    """``(suffix, text)`` with one to three of: a token or line break
    dropped, duplicated, swapped with another or replaced by nan, inf or a
    huge index; then maybe cut. A line break keeps no space beside it, so an
    unmutated PLY header still ends in ``end_header``."""
    tokens = re.findall(r"\S+|\n", text)
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.tuples(*[st.integers(0, len(tokens) - 1)] * 2))
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "replace"]))
        if op == "drop" and len(tokens) > 1:
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(i, tokens[i])
        elif op == "swap":
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif op == "replace":
            tokens[i] = draw(st.sampled_from(["nan", "inf", "-inf", _HUGE_INDEX, "-" + _HUGE_INDEX]))
    text = re.sub(" ?\n ?", "\n", " ".join(tokens))
    return suffix, text[: draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


_EXIT_PREFIX = {1: "error: planner failed:", 2: "error: invalid configuration:"}


def _plan_fuzzed(path: Path, out: Path) -> tuple[int, str]:
    """``plan --budget 60`` on ``path`` into ``out`` with ``MAX_FACES`` lowered
    to 2^12, as (exit code, standard error)."""
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(err):
        patch.setattr(cli, "MAX_FACES", 2**12)
        patch.setattr(mesh_module, "MAX_FACES", 2**12)
        code = main(["plan", "--mesh", str(path), "--budget", "60", "--out", str(out)])
    return code, err.getvalue()


@settings(max_examples=100)
@given(st.one_of(fuzz_scenes(), token_mutations(".obj", _FUZZ_OBJ), token_mutations(".ply", _FUZZ_PLY)))
@example((".obj", _FUZZ_OBJ.replace("f 1 2 3", "f 1 2 " + _HUGE_INDEX)))  # escaped main as an OverflowError
@example((".ply", _FUZZ_PLY.replace("3 0 1 2", "3 0 1 " + _HUGE_INDEX)))
def test_plan_fuzzed_meshes_exit_cleanly(tmp_path_factory, case):
    """``plan --budget 60`` on generated scenes and mutated OBJ and PLY
    files: the exit code is 0, 1 or 2 and a failure prints exactly one
    ``error:`` line, with its exit code's prefix and no numpy phrase. A
    success writes a summary that parses, with a pass fraction in [0, 1],
    and a tour within its certified bound when a visit fitted the budget. A
    success also writes the same bytes in every file when run again into the
    same directory, and again after the file is rewritten with its vertices,
    faces and corners shuffled.

    ``MAX_FACES`` is lowered to 2^12 faces and views, so a scene planned here
    has at most 2^24 (face, view) visibility entries. At the real cap, about
    one generated scene in ten spans a few hundred metres, and the explore
    pass's dense (faces x views) visibility then takes seconds to minutes and
    up to tens of GB; over the lowered cap the same scene exits 1 at once."""
    work = tmp_path_factory.mktemp("fuzz")
    suffix = case[0] if isinstance(case, tuple) else ".obj"
    path, out = work / f"scene{suffix}", work / "out"
    if isinstance(case, tuple):
        path.write_text(case[1])
    else:
        case.save_obj(path)
    code, err = _plan_fuzzed(path, out)
    assert code in (0, 1, 2)
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == (code != 0), err
    if code != 0:  # the documented prefix, and no numpy message behind it
        assert errors[0].startswith(_EXIT_PREFIX[code]), err
        assert not re.search(r"broadcast|ufunc|axis|shape|dtype", errors[0]), err
        return
    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 <= summary["pass_fraction"] <= 1.0
    certified = (out / "certificate.json").exists()
    assert certified == (summary["bound_ratio"] is not None)
    if certified:
        certificate = json.loads((out / "certificate.json").read_text())
        assert certificate["final_length"] <= certificate["bound_value"]

    first = _tree(out)
    assert _plan_fuzzed(path, out) == (0, err)
    assert _tree(out) == first
    load = mesh_module._load_obj if suffix == ".obj" else mesh_module._load_ply
    vertices, faces = load(path)
    vertices, faces = renumbered(vertices, np.asarray(faces).reshape(-1, 3), np.random.default_rng(0))
    if suffix == ".obj":
        TriangleMesh(vertices, faces, drop_degenerate=False).save_obj(path)
    else:
        path.write_text(ply_text(vertices, faces))
    assert _plan_fuzzed(path, out) == (0, err)
    assert _tree(out) == first


class TestMainExitCodes:
    def test_success(self, tmp_path):
        code = main(
            ["plan", "--scene", "flat", "--extent", "8", "--seed", "1",
             "--out", str(tmp_path / "ok")]
        )
        assert code == 0

    def test_reference_invocation(self, tmp_path):
        code = main(
            ["plan", "--scene", "canyon", "--planner", "avr", "--d", "5",
             "--t", "3", "--qstar", "0.014", "--budget", "300", "--seed", "1",
             "--extent", "12", "--max-visits", "2", "--out", str(tmp_path / "ref")]
        )
        assert code == 0
        cfg = json.loads((tmp_path / "ref" / "config.json").read_text())
        assert cfg["qstar"] == 0.014
        assert cfg["budget"] == 300
        for name in ("summary.json", "coverage.csv", "certificate.json", "run.csv"):
            assert (tmp_path / "ref" / name).exists()

    def test_invalid_config_exit_2(self, tmp_path):
        code = main(
            ["plan", "--scene", "flat", "--t", "1", "--out", str(tmp_path / "bad")]
        )
        assert code == 2

    def test_missing_mesh_exit_2(self, tmp_path):
        code = main(
            ["plan", "--mesh", str(tmp_path / "nope.obj"), "--out", str(tmp_path / "bad")]
        )
        assert code == 2

    def test_unbuildable_boxfield_exit_2(self, tmp_path, capsys):
        code = main(
            ["plan", "--scene", "boxfield", "--extent", "4", "--out", str(tmp_path / "bad")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "extent of at least 6" in err
        assert "high - low" not in err

    def test_non_finite_mesh_exit_1(self, tmp_path, capsys):
        p = tmp_path / "nan.obj"
        p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 nan\nf 1 2 3\nf 2 4 3\nf 1 4 3\n")
        code = main(["plan", "--mesh", str(p), "--out", str(tmp_path / "fail")])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err

    def test_far_from_origin_mesh_exit_1_without_warnings(self, tmp_path, capsys):
        """A triangle at x ~ 1e155: its cross product overflows. It used to
        exit 1 with two numpy RuntimeWarnings and an estimate of "about inf
        faces"; the loader now names the face whose area is not finite."""
        p = tmp_path / "far.obj"
        p.write_text("v 1e155 0 0\nv 2e155 0 0\nv 1e155 1e155 0\nf 1 2 3\n")
        out = tmp_path / "far"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["plan", "--mesh", str(p), "--out", str(out)])
        assert code == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: planner failed: {p}: the face on vertices 1, 2, 3 has a non-finite area "
            "(inf); its coordinates are too large to compute with"
        ]
        assert "Warning" not in err
        assert not out.exists()

    def test_rejected_plan_leaves_no_output_dir(self, tmp_path):
        out = tmp_path / "bad"
        code = main(["plan", "--scene", "boxfield", "--extent", "4", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_rejected_compare_leaves_no_output_dir(self, tmp_path):
        out = tmp_path / "bad"
        code = main(["compare", "--mesh", str(tmp_path / "missing.obj"), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "args,field",
        [
            (["--qstar", "nan"], "q_star"),
            (["--planner", "gvs", "--gvs-radius", "nan"], "gvs_radius"),
            (["--d", "inf"], "d must be finite"),
            (["--extent", "nan"], "extent must be"),
            (["--r", "nan"], "r must be"),
            # (d / 4)^2 and (8 d)^2 overflowed mid-plan; now refused up front
            (["--extent", "8", "--d", "1e300"], "d must be small enough that (8 d)^2 is finite"),
            (["--extent", "8", "--d", "1e154"], "d must be small enough that (8 d)^2 is finite"),
            # a default resolution of 0 divided by zero in lattice_count
            (["--extent", "8", "--eps-d", "0"], "r must be positive and at most d = 5, got 0, "
             "the default at eps_d = 0"),
            (["--extent", "8", "--eps-d", "1e-20"], "the default at eps_d = 1e-20"),
            # these wrote Infinity and NaN, or failed the certificate by one ulp
            (["--extent", "8", "--r", "1e160"], "r must be positive and at most d = 5, got 1e+160"),
            (["--extent", "8", "--r", "1e300"], "r must be positive and at most d = 5, got 1e+300"),
            (["--extent", "8", "--r", "1e100"], "r must be positive and at most d = 5, got 1e+100"),
        ],
    )
    def test_non_finite_number_exit_2(self, tmp_path, capsys, args, field):
        out = tmp_path / "bad"
        code = main(["plan", "--scene", "flat", *args, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and field in err
        for numpy_text in ("SVD", "converge", "convert float NaN", "RuntimeWarning"):
            assert numpy_text not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args,field",
        [
            (["plan", "--planner", "uniform", "--views", "0"], "view_count must be >= 1"),
            (["plan", "--min-pair-angle-deg", "100", "--max-pair-angle-deg", "10"],
             "exceeds max_pair_angle"),
            (["plan", "--min-pair-angle-deg", "-5"], "min_pair_angle must lie in"),
            (["plan", "--max-pair-angle-deg", "200"], "max_pair_angle must lie in"),
            (["plan", "--k", "0"], "k must be >= 1"),
            # numpy's generators said only "expected non-negative integer"
            (["plan", "--extent", "8", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["compare", "--extent", "8", "--seed", "-1"], "seed must be >= 0, got -1"),
        ],
    )
    def test_out_of_range_number_exit_2(self, tmp_path, capsys, args, field):
        out = tmp_path / "bad"
        code = main([args[0], "--scene", "flat", *args[1:], "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and field in err
        assert "non-negative integer" not in err
        assert not out.exists()

    def test_compare_with_a_zero_default_resolution_exit_2(self, tmp_path, capsys):
        out = tmp_path / "bad"
        code = main(["compare", "--scene", "flat", "--extent", "8", "--eps-d", "0",
                     "--out", str(out)])
        assert code == 2
        assert "r must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_scene_of_degenerate_faces_exit_1(self, tmp_path, capsys):
        # every face of a 1e-200 m terrain underflows to zero area, which
        # left a run with no faces to write a NaN pass fraction
        out = tmp_path / "tiny"
        code = main(["plan", "--scene", "flat", "--extent", "1e-200", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: planner failed: the flat scene of extent 1e-200 m has no non-degenerate faces\n"
        )
        assert not out.exists()

    def test_artifacts_refuse_non_finite_numbers(self, tmp_path):
        path = tmp_path / "summary.json"
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="not JSON compliant"):
                tours.dump_json({"a": 1, "pass_fraction": value}, path)
            assert not path.exists()  # no truncated artifact left behind

    def test_only_uniform_and_gvs_build_a_proxy(self, tmp_path, monkeypatch):
        built = []
        degrade = cli.degrade_proxy
        monkeypatch.setattr(cli, "degrade_proxy", lambda *a: built.append(1) or degrade(*a))
        for planner, total in (("avr", 0), ("zigzag", 0), ("uniform", 1), ("gvs", 2)):
            cli._prepare(RunConfig(planner=planner, out=str(tmp_path), **FAST))
            assert len(built) == total, planner

    def test_budget_over_the_view_cap_exit_2(self, tmp_path, capsys):
        # a planned visit's lattice is sized by the budget: 1e16 views would
        # ask for petabytes at a 1e-7 m resolution
        out = tmp_path / "bad"
        code = main(["plan", "--scene", "flat", "--extent", "8", "--r", "1e-7",
                     "--budget", "10000000000000000", "--max-visits", "2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid configuration: budget must be at most 1,048,576" in err
        assert not out.exists()

    def test_scene_taller_than_the_explore_altitude_exit_2(self, tmp_path, capsys):
        # a 30 m wall clears no serpentine at 4 d = 20 m; the message names
        # the height, d, the altitude and the flag that raises it
        p = tmp_path / "tower.obj"
        p.write_text("v 0 0 0\nv 2 0 0\nv 2 0 30\nv 0 0 30\nf 1 2 3\nf 1 3 4\n")
        out = tmp_path / "bad"
        code = main(["plan", "--mesh", str(p), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: invalid configuration: scene is taller than the zigzag altitude: "
            "height 30 m, d = 5 m, altitude 4 * d = 20 m; a larger --d raises the altitude"
        ]
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "scene,args,message",
        [
            # each 5e7 m^2 triangle of a 10 km square ends as 2^25 faces
            ("v 0 0 0\nv 1e4 0 0\nv 1e4 1e4 0\nv 0 1e4 0\nf 1 2 3\nf 1 3 4\n", [],
             "subdividing to faces of at most 1.5625 m^2 would make about 67,108,864 faces"),
            (None, ["--scene", "flat", "--extent", "10", "--d", "0.01"],
             "subdividing to faces of at most 6.25e-06 m^2 would make about 26,214,400 faces"),
            # two 0.5 m^2 triangles 10 km apart: 10,002^2 serpentine views
            ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1e4 1e4 0\nv 10001 1e4 0\nv 1e4 10001 0\n"
             "f 1 2 3\nf 4 5 6\n", [], "the serpentine would have 100,040,004 views"),
            ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1e4 1e4 0\nv 10001 1e4 0\nv 1e4 10001 0\n"
             "f 1 2 3\nf 4 5 6\n", ["--planner", "uniform"],
             "the uniform lattice would have 601,440,864 views"),
            # a synthetic scene is counted from its spec, before its terrain is built
            (None, ["--scene", "flat", "--extent", "1600"],
             "the flat scene of extent 1600 m would have 5,120,000 faces"),
            (None, ["--scene", "flat", "--extent", "1e6"],
             "the flat scene of extent 1e+06 m would have 2.00e+12 faces"),
            (None, ["--scene", "boxfield", "--extent", "20", "--obstacles", "200000"],
             "the boxfield scene of extent 20 m would have 2,000,800 faces"),
        ],
        ids=["10km-square", "tiny-d", "far-apart", "far-apart-uniform", "flat-1600",
             "flat-1e6", "boxfield-200000-boxes"],
    )
    def test_oversized_scene_exit_1_before_building(self, tmp_path, capsys, scene, args, message):
        if scene is not None:
            (tmp_path / "scene.obj").write_text(scene)
            args = ["--mesh", str(tmp_path / "scene.obj"), *args]
        out = tmp_path / "big"
        start = time.perf_counter()
        code = main(["plan", *args, "--out", str(out)])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: planner failed: {message}, over the cap of 1,048,576"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "args,message",
        [
            # the estimate was printed in full, all 304 digits of it
            (["--extent", "10", "--d", "1e-150"],
             "subdividing to faces of at most 6.25e-302 m^2 would make about 2.14e+303 faces"),
            (["--extent", "1e150"], "the flat scene of extent 1e+150 m would have 2.00e+300 faces"),
        ],
        ids=["tiny-d", "huge-extent"],
    )
    def test_huge_counts_print_in_scientific_notation(self, tmp_path, capsys, args, message):
        out = tmp_path / "big"
        assert main(["plan", "--scene", "flat", *args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: planner failed: {message}, over the cap of 1,048,576\n"
        )
        assert not out.exists()
        # exact up to 10^12, scientific above it, for float estimates and int counts
        assert count_text(10**12) == count_text(1e12) == "1,000,000,000,000"
        assert count_text(10**12 + 1) == "1.00e+12"
        assert count_text(5.14e301) == "5.14e+301"
        assert count_text(10**400) == "1.00e+400"
        assert count_text(math.inf) == "inf"

    @pytest.mark.parametrize("command", [["plan"], ["plan", "--planner", "uniform"], ["compare"]])
    def test_proxy_whose_faces_overflow_exit_1(self, tmp_path, capsys, command):
        # the canyon walls move by N(0, 0.05 d) = N(0, 5e78 m) along their
        # normals, and their areas overflow: this raised OverflowError in
        # default_cluster_count after a numpy overflow warning
        out = tmp_path / "huge-d"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*command, "--scene", "canyon", "--extent", "8", "--d", "1e80",
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: planner failed: the proxy's vertex noise (sigma 5e+78 m) overflows its "
            "face areas; the noise is a multiple of d, and d is too large for this scene\n"
        )
        assert not out.exists()

    def test_out_of_memory_exit_1(self, tmp_path, monkeypatch, capsys):
        # scenes over the cap are refused before they are built (the flat-1e6
        # case above), so numpy's own error stands in for an allocation that fails
        def exhausted(spec):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000001, 1000001)")

        monkeypatch.setattr(cli, "generate_scene", exhausted)
        out = tmp_path / "huge"
        code = main(["plan", "--scene", "flat", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: planner failed: out of memory" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_compare_sizes_every_planner_before_writing(self, tmp_path, monkeypatch, capsys):
        # the serpentine (81 views) fits, the uniform lattice (2,166) does not
        monkeypatch.setattr(cli, "MAX_FACES", 500)
        monkeypatch.setattr(mesh_module, "MAX_FACES", 500)
        out = tmp_path / "cmp"
        code = main(["compare", "--scene", "flat", "--extent", "8", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: planner failed: the uniform lattice would have 2,166 views, over the cap of 500"
        ]
        assert not out.exists()

    def test_gvs_pool_sized_before_writing(self, tmp_path, monkeypatch, capsys):
        # flat-8's face centroids span 7.3 m each way: one 8 x 8 grid of 64 views;
        # the budget is capped at MAX_FACES too, so it is set under the cap
        monkeypatch.setattr(cli, "MAX_FACES", 63)
        out = tmp_path / "gvs"
        code = main(["plan", "--planner", "gvs", "--scene", "flat", "--extent", "8",
                     "--budget", "63", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: planner failed: the GVS pool would have 64 views, over the cap of 63\n"
        )
        assert not out.exists()

    def test_fine_resolution_coarsens_to_budget(self, tmp_path):
        # lattices are sized before they are built, so r = 1e-5 m does not
        # allocate trillions of views on the way to a grid that fits, and a
        # lattice too fine to count (extent / r overflows) is over any budget
        for r in ("1e-5", "1e-320"):
            out = tmp_path / f"fine{r}"
            code = main(
                ["plan", "--scene", "flat", "--extent", "8", "--r", r,
                 "--max-visits", "2", "--out", str(out)]
            )
            assert code == 0, r
            cert = json.loads((out / "certificate.json").read_text())
            assert cert["r"] > 0.1
            summary = json.loads((out / "summary.json").read_text())
            assert summary["views_planned"] <= 300

    def test_far_viewing_distance_plans_within_its_bound(self, tmp_path):
        # the per-rectangle check is relative: at d = 5e6 a sweep one ulp over
        # 3 * area / r (6084870.522542806 > 6084870.5225428045) passes, as
        # it would at d = 5
        out = tmp_path / "far"
        code = main(["plan", "--scene", "flat", "--extent", "8", "--d", "5e6",
                     "--max-visits", "2", "--out", str(out)])
        assert code == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["final_length"] <= cert["bound_value"]

    def test_merge_non_termination_exit_1(self, tmp_path, monkeypatch, capsys):
        # every non-parallel pair "crosses" and nothing shrinks, so the final
        # scan still finds a crossing pair
        cut = ((np.zeros(2), np.array([1.0, 0.0])),) * 2
        monkeypatch.setattr(
            rectangles, "rectangles_intersect",
            lambda a, b, **kw: cut if rectangles._plane_line(a, b) is not None else None,
        )
        monkeypatch.setattr(rectangles, "_largest_piece_rect", lambda rect, q0, e: rect)
        flat = rectangles.ViewingRectangle(
            np.zeros(3), np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0]), 1.0, 1.0,
        )
        upright = rectangles.ViewingRectangle(
            np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
            np.array([0.0, 0.0, 1.0]), 1.0, 1.0,
        )
        with pytest.raises(MergeNonTerminationError):
            rectangles.merge_intersecting([flat, upright])
        code = main(
            ["plan", "--scene", "boxfield", "--extent", "8", "--obstacles", "1",
             "--max-visits", "2", "--out", str(tmp_path / "fail")]
        )
        assert code == 1
        assert "rectangle merge" in capsys.readouterr().err

    def test_millimetre_square_plans_like_a_ten_metre_square(self, tmp_path):
        # every planner length is a multiple of d, so a 1 mm square at the
        # defaults scaled by 1e-4 plans as the 10 m square does at the defaults
        summaries = []
        for side, flags in (("0.001", ["--d", "0.0005", "--qstar", "1.4e6"]), ("10", [])):
            p = tmp_path / f"square{side}.obj"
            p.write_text(f"v 0 0 0\nv {side} 0 0\nv {side} {side} 0\nv 0 {side} 0\n"
                         "f 1 2 3\nf 1 3 4\n")
            out = tmp_path / f"out{side}"
            assert main(["plan", "--mesh", str(p), *flags, "--out", str(out)]) == 0
            summaries.append(json.loads((out / "summary.json").read_text()))
        for summary in summaries:
            assert summary["pass_fraction"] == 1.0
            assert summary["views_planned"] == 25
            assert summary["views_total"] == 121 + 25

    def test_planner_failure_exit_1(self, tmp_path):
        # a mesh whose only face is degenerate -> empty-scene planner failure
        p = tmp_path / "degenerate.obj"
        p.write_text("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n")
        code = main(["plan", "--mesh", str(p), "--out", str(tmp_path / "fail")])
        assert code == 1

    def test_report_cli(self, tmp_path):
        main(["plan", "--scene", "flat", "--extent", "8", "--seed", "1",
              "--out", str(tmp_path / "a")])
        code = main(["report", str(tmp_path / "a"), "--out", str(tmp_path / "rep.csv")])
        assert code == 0
        assert (tmp_path / "rep.csv").exists()

    def test_open_tour_flag(self, tmp_path):
        # --open-tour drops the closing hop from the written trajectories and
        # lengths; the certificate still measures the closed tour
        plan = ["plan", "--scene", "flat", "--extent", "8", "--seed", "1", "--out"]
        assert main([*plan, str(tmp_path / "open"), "--open-tour"]) == 0
        assert main([*plan, str(tmp_path / "closed")]) == 0
        open_dir, closed_dir = tmp_path / "open", tmp_path / "closed"
        traj = json.loads((open_dir / "trajectory_visit2.json").read_text())
        assert traj["closed"] is False
        pos = np.array([[v[c] for c in "xyz"] for v in traj["views"]])
        assert traj["length"] == float(np.linalg.norm(np.diff(pos, axis=0), axis=1).sum())
        summary = json.loads((open_dir / "summary.json").read_text())
        assert summary["views"] == summary["views_planned"]
        assert summary["tour_length"] == sum(v["tour_length"] for v in summary["visits"][1:])
        assert summary["visits"][1]["tour_length"] == traj["length"]
        name = "certificate_visit2.json"
        assert (open_dir / name).read_bytes() == (closed_dir / name).read_bytes()


def test_readme_names_every_flag(capsys):
    readme = (ROOT / "README.md").read_text()
    flags = set()
    for command in ("plan", "compare"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        flags |= set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    missing = sorted(f for f in flags - {"--help"} if f"`{f}" not in readme)
    assert not missing, f"README.md does not mention {missing}"
