"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`."""

import itertools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from viewplan.cli import RunConfig, compare, run
from viewplan.mesh import SceneSpec, generate_scene
from viewplan.planner import preprocess_mesh, run_pipeline
from viewplan.quality import QualityParams, pair_quality, visible_set
from viewplan.rectangles import FaceCluster, build_avr, fit_rectangle
from viewplan.tours import grid_mst, impose_grid, mst_weight, plan_rectangles

from conftest import axis_rect, poses, segments_hit_any, tree_weight_from_pruefer

PASS_LINE = "[ACCEPTANCE] criterion {n} ({name}): PASS -- {detail}"


def report_pass(n, name, detail=""):
    print(PASS_LINE.format(n=n, name=name, detail=detail))


# ---------------------------------------------------------------------------
# criteria 1-3: the 50-scene certificate suite (r = d)
# ---------------------------------------------------------------------------


@dataclass
class CertRecord:
    kind: str
    seed: int
    cert: object
    elapsed: float


@pytest.fixture(scope="session")
def certificate_suite():
    params = QualityParams()
    kinds = ["flat", "boxfield", "canyon"]
    rng = np.random.default_rng(2024)
    records = []
    for i in range(50):
        kind = kinds[i % 3]
        extent = float(rng.uniform(10.0, 22.0))
        obstacles = int(rng.integers(1, 5))
        scene = generate_scene(SceneSpec(kind, extent, obstacles, seed=i))
        t0 = time.time()
        pairs = build_avr(scene, params, seed=i)
        plan = plan_rectangles([r for r, _ in pairs], params.d, params.d)
        records.append(CertRecord(kind, i, plan.certificate, time.time() - t0))
    return records


def test_c1_certificate_inequality(certificate_suite):
    violations = 0
    for rec in certificate_suite:
        c = rec.cert
        bound = 3.0 * c.total_area / c.r + 2.0 * c.mst_weight + 2.0 * c.r * len(c.areas)
        if c.final_length > bound + 1e-9:
            violations += 1
        assert rec.elapsed < 10.0, f"scene {rec.seed} took {rec.elapsed:.1f}s"
        # cross-check the recorded fields against themselves
        assert c.final_length == pytest.approx(
            sum(c.tour_lengths) + sum(c.splice_overheads)
        )
        assert c.bound_value == pytest.approx(bound)
    assert violations == 0
    slowest = max(r.elapsed for r in certificate_suite)
    report_pass(
        1,
        "certificate inequality",
        f"50 scenes, 0 violations, slowest plan {slowest:.2f}s",
    )


def test_c2_per_rectangle_bound(certificate_suite):
    checked = 0
    for rec in certificate_suite:
        c = rec.cert
        for li, ai in zip(c.tour_lengths, c.areas):
            assert li <= 3.0 * ai / c.r + 1e-9
            checked += 1
    report_pass(2, "per-rectangle bound", f"{checked} rectangles, 0 violations")


def test_c3_lower_bound_ratio_distribution(certificate_suite):
    ratios = sorted(r.cert.ratio_vs_lower_bound for r in certificate_suite)
    assert all(r > 0 for r in ratios)
    # The ratio against the true optimum is <= 18 at r = d by construction of
    # the bound, but the optimum itself is unknowable; what we can certify is
    # the constructive inequality (criterion 1). The distribution against the
    # certified lower bound is reported here.
    detail = (
        f"l_f / lower_bound over 50 scenes: min={ratios[0]:.2f} "
        f"median={ratios[25]:.2f} max={ratios[-1]:.2f} "
        "(ratio vs the unknowable optimum is certified <= 18 at r=d; "
        "not directly measurable)"
    )
    report_pass(3, "lower-bound ratio", detail)


# ---------------------------------------------------------------------------
# criterion 4: quality oracle
# ---------------------------------------------------------------------------


def test_c4_quality_matches_pair_enumeration():
    from viewplan.quality import face_quality

    params = QualityParams()
    mesh = generate_scene(SceneSpec("boxfield", 12.0, obstacles=2, seed=3))
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(1000):
        f = int(rng.integers(mesh.num_faces))
        c = mesh.centroids[f]
        n = mesh.normals[f]
        n_views = int(rng.integers(2, 13))
        pts = []
        for _ in range(n_views):
            tilt = rng.normal(size=3)
            tilt = tilt - (tilt @ n) * n
            norm = np.linalg.norm(tilt)
            lateral = tilt / norm * rng.uniform(0.0, 0.9) if norm > 1e-9 else 0.0 * n
            direction = n + lateral
            direction /= np.linalg.norm(direction)
            pos = c + direction * rng.uniform(3.0, 7.0)
            pts.append(pos)
        views = poses(pts, c - np.array(pts))
        theta, q, pair = face_quality(f, views, mesh, params)

        kappa = sorted(visible_set(f, views, mesh, params))
        best = (0.0, 0.0, None)
        for i_, j_ in itertools.combinations(kappa, 2):
            a = views.positions[i_] - c
            b = views.positions[j_] - c
            cosang = float(a @ b) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b)))
            ang = math.acos(max(-1.0, min(1.0, cosang)))
            if ang > best[0]:
                q_ = math.sin(ang) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b)))
                best = (ang, q_, (i_, j_))
        assert q == pytest.approx(best[1], abs=1e-9)
        assert theta == pytest.approx(best[0], abs=1e-9)
        assert pair == best[2]
        checked += 1
    report_pass(4, "quality oracle", f"{checked} random instances, |Q - brute| <= 1e-9")


# ---------------------------------------------------------------------------
# criterion 5: worked threshold
# ---------------------------------------------------------------------------


def test_c5_worked_quality_threshold():
    params = QualityParams()
    ell = math.sqrt(2.0) * 5.0
    half = math.radians(22.5)
    pos = np.array(
        [
            [ell * math.sin(half), 0.0, ell * math.cos(half)],
            [-ell * math.sin(half), 0.0, ell * math.cos(half)],
        ]
    )
    theta, q, _ = pair_quality(np.zeros((1, 3)), pos, [[True, True]], params)
    assert q[0] == pytest.approx(0.01414, abs=1e-4)
    report_pass(5, "worked threshold", f"Q(45 deg, sqrt(2)*5 m) = {q[0]:.6f}")


# ---------------------------------------------------------------------------
# criterion 6: minimum-rectangle oracle
# ---------------------------------------------------------------------------


def test_c6_min_rectangle_against_orientation_sweep():
    rng = np.random.default_rng(7)
    angles = np.arange(720) * (math.pi / 2.0) / 720.0
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    perps = np.stack([-np.sin(angles), np.cos(angles)], axis=1)
    for trial in range(200):
        n_pts = int(rng.integers(3, 60))
        pts2 = rng.normal(size=(n_pts, 2)) * rng.uniform(0.5, 5.0, size=2)
        cluster = FaceCluster(
            indices=np.arange(n_pts),
            mean_normal=np.array([0.0, 0.0, 1.0]),
            points=np.column_stack([pts2, np.zeros(n_pts)]),
        )
        rect = fit_rectangle(cluster, d=1.0)
        x = pts2 @ dirs.T  # (n, 720)
        y = pts2 @ perps.T
        areas = (x.max(axis=0) - x.min(axis=0)) * (y.max(axis=0) - y.min(axis=0))
        sweep_min = float(areas.min())
        assert rect.area <= sweep_min * (1 + 1e-9) + 1e-12
    report_pass(6, "minimum-rectangle oracle", "200 point sets vs 720-step sweep")


# ---------------------------------------------------------------------------
# criterion 7: MST oracle
# ---------------------------------------------------------------------------


def test_c7_mst_exhaustive_oracle():
    rng = np.random.default_rng(17)
    instances = 0
    for trial in range(10):
        k = int(rng.integers(2, 7))
        grids = [
            impose_grid(
                axis_rect(
                    cx=float(rng.uniform(-25, 25)),
                    cy=float(rng.uniform(-25, 25)),
                    cz=float(rng.uniform(0, 8)),
                    hw=float(rng.uniform(1, 2.5)),
                    hh=float(rng.uniform(1, 2.5)),
                ),
                1.0,
            )
            for _ in range(k)
        ]
        weight = mst_weight(grid_mst(grids))
        dmat = np.zeros((k, k))
        for i in range(k):
            for j in range(i + 1, k):
                d = np.linalg.norm(
                    grids[i].points[:, None, :] - grids[j].points[None, :, :], axis=-1
                ).min()
                dmat[i, j] = dmat[j, i] = d
        if k == 2:
            best = dmat[0, 1]
        else:
            best = min(
                tree_weight_from_pruefer(list(seq), k, dmat)
                for seq in itertools.product(range(k), repeat=k - 2)
            )
        assert weight == pytest.approx(best, abs=1e-9)
        instances += 1
    report_pass(7, "MST oracle", f"{instances} instances up to 6 grids, exact match")


# ---------------------------------------------------------------------------
# criterion 8: visibility oracle
# ---------------------------------------------------------------------------


def test_c8_bvh_equals_brute_force():
    params = QualityParams()
    total = 0
    for kind, seed in [("flat", 0), ("boxfield", 1), ("canyon", 2)]:
        mesh = generate_scene(SceneSpec(kind, 14.0, obstacles=3, seed=seed))
        rng = np.random.default_rng(seed + 100)
        lo, hi = mesh.bounds()
        span = hi - lo + 1.0
        a = lo - 0.5 * span + rng.random((10_000, 3)) * span * 2.0
        b = lo - 0.5 * span + rng.random((10_000, 3)) * span * 2.0
        brute = segments_hit_any(mesh.triangles(), a, b)
        bvh = mesh.occluded_many(a, b)
        assert np.array_equal(brute, bvh), f"{kind}: BVH diverged from brute force"
        total += len(a)
    report_pass(8, "visibility oracle", f"{total} queries across 3 scenes, exact match")


# ---------------------------------------------------------------------------
# criterion 9: monotone refinement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind,extent,obstacles,seed",
    [("canyon", 14.0, 3, 2), ("boxfield", 16.0, 2, 3)],
    ids=["canyon", "boxfield"],
)
def test_c9_monotone_refinement(kind, extent, obstacles, seed):
    params = QualityParams()
    scene = generate_scene(SceneSpec(kind, extent, obstacles, seed=seed))
    t0 = time.time()
    states = run_pipeline(scene, params, max_visits=4, seed=seed)
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"{kind} pipeline took {elapsed:.1f}s"

    fracs = [s.pass_fraction for s in states]
    assert all(b >= a - 1e-12 for a, b in zip(fracs, fracs[1:])), fracs

    added = {s.visit: s.views_added for s in states}
    assert 2 in added
    refine_visits = [v for v in added if v >= 3]
    assert refine_visits, f"{kind} scene finished without a refinement visit"
    for v in refine_visits:
        assert added[v] < added[2], (v, added)
    report_pass(
        9,
        f"monotone refinement [{kind}]",
        f"pass {fracs[1]:.3f}->{fracs[-1]:.3f}, adds {added}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 10: comparative surrogate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind,extent,obstacles",
    [("flat", 10.0, 0), ("boxfield", 11.0, 2), ("canyon", 12.0, 3)],
    ids=["flat", "boxfield", "canyon"],
)
def test_c10_planner_outperforms_baselines(kind, extent, obstacles, tmp_path):
    results = []
    for seed in range(5):
        out = tmp_path / f"{kind}{seed}"
        cfg = RunConfig(
            scene=kind, extent=extent, obstacles=obstacles, seed=seed, out=str(out)
        )
        compare(cfg)
        fr = {}
        for planner in ("avr", "zigzag", "uniform", "gvs"):
            summary = json.loads((out / planner / "summary.json").read_text())
            fr[planner] = summary["pass_fraction"]
        avr_views = json.loads((out / "avr" / "summary.json").read_text())["views_planned"]
        for planner in ("uniform", "gvs"):
            other = json.loads((out / planner / "summary.json").read_text())["views_planned"]
            assert other == avr_views, f"{planner} broke view-count parity"
        assert fr["avr"] > fr["zigzag"], (seed, fr)
        assert fr["avr"] >= fr["uniform"] - 1e-12, (seed, fr)
        assert fr["avr"] >= fr["gvs"] - 1e-12, (seed, fr)
        results.append(fr)
    spread = ", ".join(
        f"s{i}: avr={r['avr']:.2f} uni={r['uniform']:.2f} gvs={r['gvs']:.2f}"
        for i, r in enumerate(results)
    )
    report_pass(10, f"comparative surrogate [{kind}]", spread)


# ---------------------------------------------------------------------------
# criterion 11: determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("planner", ["avr", "zigzag", "uniform", "gvs"])
def test_c11_byte_identical_runs(planner, tmp_path):
    out = tmp_path / planner
    cfg = RunConfig(
        planner=planner,
        scene="boxfield",
        extent=10.0,
        obstacles=1,
        seed=5,
        view_count=30 if planner in ("uniform", "gvs") else None,
        out=str(out),
    )
    run(cfg)
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    run(cfg)
    second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert first.keys() == second.keys()
    diff = [name for name in first if first[name] != second[name]]
    assert not diff, f"artifacts changed between identical runs: {diff}"
    report_pass(11, f"determinism [{planner}]", f"{len(first)} artifacts byte-identical")
