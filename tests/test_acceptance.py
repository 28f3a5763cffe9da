"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Tolerances are frozen here; the slow figure
reproductions go through the real preset/runner pipeline.
"""

import math
import time

import numpy as np

from stratopt.model import Chart, ChartPoint, GaussianLocationModel
from stratopt.optim import (OptimizerConfig, SingularFIMError, ngd_step, run)
from stratopt.poly import axis_pair, cusp_curve, double_cone
from stratopt.presets import preset
from stratopt.resolve import count_components, deform
from stratopt.runner import run_experiment
from stratopt.stratify import Region, find_singular_points, simplex_strata
from stratopt.tables import read_csv
from stratopt.verify import finite_diff_grad, monte_carlo_fim

CONE_CHART = Chart.cone()


def _report(name, ok, detail=""):
    print(f"\n[acceptance] {'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


def _steps_to(path, threshold):
    _, rows = read_csv(path)
    for r in rows:
        if float(r[6]) < threshold:
            return int(r[0])
    return None


def test_c01_closed_form_information_matrices():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        xi = float(rng.uniform(-2, 2))
        q = ChartPoint(xi, float(rng.uniform(-4, 4)))
        F = GaussianLocationModel(CONE_CHART, np.zeros(3)).fim(q)
        worst = max(worst, float(np.abs(F - np.diag([2.0, xi * xi])).max()))
        for eps in (0.01, 0.1, 1.0):
            Fh = GaussianLocationModel(Chart.hyperboloid(eps), np.zeros(3)).fim(q)
            want = np.diag([(eps + 2 * xi * xi) / (eps + xi * xi), eps + xi * xi])
            worst = max(worst, float(np.abs(Fh - want).max()))
    elapsed = time.perf_counter() - t0
    _report("criterion 1: closed-form information matrices",
            worst < 1e-12 and elapsed < 1.0,
            f"max abs dev {worst:.2e}, {elapsed:.2f}s")


def test_c02_gradient_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_rel, min_norm = 0.0, np.inf
    for _ in range(100):
        chart = CONE_CHART if rng.random() < 0.5 else Chart.hyperboloid(float(rng.uniform(0.01, 1.0)))
        q = ChartPoint(float(rng.uniform(-2, 2)), float(rng.uniform(-4, 4)))
        xbar = CONE_CHART.embed(ChartPoint(float(rng.uniform(-2, 2)),
                                           float(rng.uniform(-4, 4))))
        xbar = xbar + rng.normal(0, 0.5, size=3)
        m = GaussianLocationModel(chart, xbar)
        g = m.loss_grad(q)
        fd = finite_diff_grad(m.loss, q)
        gn = float(np.linalg.norm(g))
        min_norm = min(min_norm, gn)
        worst_rel = max(worst_rel, float(np.linalg.norm(fd - g)) / gn)
    elapsed = time.perf_counter() - t0
    _report("criterion 2: analytic gradient vs finite differences",
            worst_rel < 1e-6 and min_norm > 1e-2 and elapsed < 1.0,
            f"max rel err {worst_rel:.2e} (min |g| {min_norm:.2e}), {elapsed:.2f}s")


def test_c03_monte_carlo_information():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for k in range(10):
        chart = CONE_CHART if k % 2 == 0 else Chart.hyperboloid(float(rng.uniform(0.05, 1.0)))
        q = ChartPoint(float(rng.uniform(-2, 2)), float(rng.uniform(-4, 4)))
        m = GaussianLocationModel(chart, np.zeros(3))
        estimate = monte_carlo_fim(m, q, n=200_000, seed=300 + k)
        exact = m.fim(q)
        worst = max(worst, float(np.linalg.norm(estimate - exact) / np.linalg.norm(exact)))
    elapsed = time.perf_counter() - t0
    _report("criterion 3: Monte-Carlo information within 5%",
            worst < 0.05 and elapsed < 30.0,
            f"max Frobenius rel err {worst:.3%}, {elapsed:.2f}s")


def test_c04_sheet_counting():
    t0 = time.perf_counter()
    cone = double_cone()
    counts64 = {c: count_components(deform(cone, c), 64).count for c in (+0.1, -0.1)}
    counts128 = {c: count_components(deform(cone, c), 128).count for c in (+0.1, -0.1)}
    ok = (sorted(counts64.values()) == [1, 2] and counts64 == counts128)
    elapsed = time.perf_counter() - t0
    _report("criterion 4: one- and two-sheet deformations",
            ok and elapsed < 10.0,
            f"counts {counts64} (stable at 128), {elapsed:.2f}s")


def test_c05_cross_singularity_stall(tmp_path):
    t0 = time.perf_counter()
    res_cone = run_experiment(preset("fig6-cone"), out_dir=tmp_path / "fig6-cone")
    res_hyp = run_experiment(preset("fig6-hyp"), out_dir=tmp_path / "fig6-hyp")
    _, traj_rows = read_csv(res_cone.trajectory_paths[("cone", 0)])
    final_loss = float(traj_rows[-1][6])
    _, stall_rows = read_csv(res_cone.stall_path)
    stalled = stall_rows[0][2] == "true"
    hyp_reaches = _steps_to(res_hyp.trajectory_paths[("hyperboloid", 0)], 1e-4)
    elapsed = time.perf_counter() - t0
    ok = (0.9 <= final_loss <= 1.1) and stalled and hyp_reaches is not None
    _report("criterion 5: crossing the apex stalls the cone but not the resolution",
            ok and elapsed < 10.0,
            f"cone final loss {final_loss:.4f} stalled={stalled}, "
            f"hyperboloid < 1e-4 at step {hyp_reaches}, {elapsed:.2f}s")


def test_c06_near_singularity_slowdown(tmp_path):
    t0 = time.perf_counter()
    res = run_experiment(preset("fig5a"), out_dir=tmp_path / "fig5a")
    near_cone = _steps_to(res.trajectory_paths[("cone", 0)], 1e-3)
    near_hyp = _steps_to(res.trajectory_paths[("hyperboloid", 0)], 1e-3)
    far_cone = _steps_to(res.trajectory_paths[("cone", 1)], 1e-3)
    far_hyp = _steps_to(res.trajectory_paths[("hyperboloid", 1)], 1e-3)
    elapsed = time.perf_counter() - t0
    ok = (near_hyp is not None and near_cone is not None
          and near_hyp < near_cone
          and far_cone is not None and far_hyp is not None
          and max(far_cone, far_hyp) <= 1.5 * min(far_cone, far_hyp))
    _report("criterion 6: slowdown only for the near-apex initialization",
            ok and elapsed < 10.0,
            f"near cone/hyp steps {near_cone}/{near_hyp}, "
            f"far {far_cone}/{far_hyp}, {elapsed:.2f}s")


def test_c07_ngd_similarity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260808)
    target = ChartPoint(1.0, 0.0)
    cfg = OptimizerConfig(method="ngd", damping=1e-8, step_size=0.05,
                          max_steps=20_000, record_every=1)
    m_cone = GaussianLocationModel(CONE_CHART, CONE_CHART.embed(target))
    hyp = Chart.hyperboloid(0.05)
    m_hyp = GaussianLocationModel(hyp, hyp.embed(target))
    worst_ratio, min_abs_xi = 0.0, np.inf
    for _ in range(20):
        q0 = ChartPoint(float(rng.uniform(0.3, 2.0)), float(rng.uniform(-2.5, 2.5)))
        tc = run(m_cone, q0, cfg)
        th = run(m_hyp, q0, cfg)
        sc, sh = tc.steps_to_loss(1e-6), th.steps_to_loss(1e-6)
        assert sc is not None and sh is not None
        worst_ratio = max(worst_ratio, sc / sh, sh / sc)
        min_abs_xi = min(min_abs_xi,
                         float(np.abs(tc.records.column("xi")).min()),
                         float(np.abs(th.records.column("xi")).min()))
    elapsed = time.perf_counter() - t0
    ok = worst_ratio <= 2.0 and min_abs_xi >= 0.1
    _report("criterion 7: natural gradient speed matches across surfaces",
            ok and elapsed < 30.0,
            f"worst step ratio {worst_ratio:.3f}, min |xi| {min_abs_xi:.3f}, {elapsed:.2f}s")


def test_c08_degenerate_information_is_surfaced():
    t0 = time.perf_counter()
    m = GaussianLocationModel(CONE_CHART, [1.0, 0.5, 0.5])
    cfg = OptimizerConfig(method="ngd", damping=0.0)
    raised = False
    try:
        ngd_step(m, ChartPoint(0.0, 0.3), cfg)
    except SingularFIMError:
        raised = True
    rng = np.random.default_rng(8)
    hyp_fail = 0
    for _ in range(1000):
        eps = float(rng.uniform(0.01, 1.0))
        mh = GaussianLocationModel(Chart.hyperboloid(eps), [1.0, 0.5, 0.5])
        q = ChartPoint(float(rng.uniform(-2, 2)), float(rng.uniform(-6, 6)))
        try:
            ngd_step(mh, q, cfg)
        except SingularFIMError:
            hyp_fail += 1
    elapsed = time.perf_counter() - t0
    _report("criterion 8: degenerate information raises only on the cone apex",
            raised and hyp_fail == 0 and elapsed < 1.0,
            f"apex raised={raised}, hyperboloid failures {hyp_fail}/1000, {elapsed:.2f}s")


def test_c09_singularity_detection():
    t0 = time.perf_counter()
    found_cone = find_singular_points(double_cone(), 0.0, Region.cube(-2, 2, 3))
    found_cusp = find_singular_points(cusp_curve(), 0.0, Region.cube(-2, 2, 2))
    found_xy = find_singular_points(axis_pair(), 0.0, Region.cube(-2, 2, 2))
    ok = (len(found_cone) == 1 and np.linalg.norm(found_cone[0]) < 1e-6
          and len(found_cusp) == 1 and np.linalg.norm(found_cusp[0]) < 1e-6
          and len(found_xy) == 1 and np.linalg.norm(found_xy[0]) < 1e-6)
    elapsed = time.perf_counter() - t0
    _report("criterion 9: singular points located within 1e-6",
            ok and elapsed < 5.0,
            f"{len(found_cone)}/{len(found_cusp)}/{len(found_xy)} points, {elapsed:.2f}s")


def test_c10_simplex_strata():
    t0 = time.perf_counter()
    ok = True
    for n in range(11):
        counts = simplex_strata(n).counts
        ok &= all(counts[i] == math.comb(n + 1, i + 1) for i in range(n + 1))
        ok &= sum(counts.values()) == 2 ** (n + 1) - 1
    elapsed = time.perf_counter() - t0
    _report("criterion 10: simplex stratum counts", ok and elapsed < 1.0,
            f"n <= 10, {elapsed:.2f}s")


def test_c11_end_to_end_determinism(tmp_path):
    t0 = time.perf_counter()
    a = run_experiment(preset("fig5b-gd"), out_dir=tmp_path / "a")
    b = run_experiment(preset("fig5b-gd"), out_dir=tmp_path / "b")
    names_a = sorted(p.name for p in a.out_dir.glob("*.csv"))
    names_b = sorted(p.name for p in b.out_dir.glob("*.csv"))
    identical = names_a == names_b and all(
        (a.out_dir / n).read_bytes() == (b.out_dir / n).read_bytes() for n in names_a
    )
    elapsed = time.perf_counter() - t0
    _report("criterion 11: byte-identical rerun of the sweep preset",
            identical and bool(names_a),
            f"{len(names_a)} CSV files compared, {elapsed:.2f}s")
