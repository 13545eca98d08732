"""End-to-end acceptance checklist.

Each test exercises one headline guarantee at full scale and prints a
single PASS/FAIL line with the measured numbers (visible with -s, or in
the captured output on failure).  This module is heavier than the unit
tests; expect a few minutes total.
"""

import json
import math
import os
import time

import numpy as np
import pytest

import tci_spde.concentration as conc
import tci_spde.constants as cst
import tci_spde.fields as F
import tci_spde.models as M
import tci_spde.noise as N
import tci_spde.solver as S
from tci_spde.cli import main
from tci_spde.girsanov import (contraction_report, coupled_ensemble,
                               shift_from_descriptor, shift_entropy)
from tci_spde._stats import mean_and_stderr

from oracles import t2_grid_oracle, w2_factorial_oracle

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "demos", "configs")
CONTINUUM_GAP = ((1.0 - math.exp(-math.pi**2)) / math.pi**2) ** 2


def checklist(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def heat_reference():
    op = N.NoiseOperator(8, N.gains_single_mode(8, 1.0, 1), 1.0)
    model = M.heat_model(32, op)
    cfg = S.SolverConfig(dt=1e-3, horizon=1.0)
    return model, cfg, F.Field1D(np.zeros(32))


def burgers_reference():
    op = N.NoiseOperator(8, N.gains_inverse_k(8, 1.0), 1.0)
    model = M.burgers_model(32, op)
    cfg = S.SolverConfig(dt=1e-3, horizon=1.0)
    return model, cfg, F.Field1D(np.zeros(32))


def unit_shift(cfg):
    return shift_from_descriptor(
        {"type": "constant", "mode_index": 1, "amplitude": 1.0}, 8, cfg)


@pytest.fixture(scope="module")
def heat_coupled():
    """One 4096-replicate coupled ensemble shared by criteria 2-4."""
    model, cfg, x0 = heat_reference()
    h = unit_shift(cfg)
    start = time.perf_counter()
    ens = coupled_ensemble(model, cfg, x0, h, 4096, 0)
    build = time.perf_counter() - start
    return model, cfg, x0, h, ens, build


def test_criterion_01_t2_constant_matches_grid_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(10):
        horizon = float(rng.uniform(0.1, 3.0))
        k2 = float(rng.uniform(-1.0, 2.0))
        c_b = float(rng.uniform(0.1, 10.0))
        c1 = float(rng.uniform(0.5, 3.0))
        value = cst.t2_constant(horizon, k2, c_b, c1)["value"]
        oracle = t2_grid_oracle(horizon, k2, c_b, c1)
        worst = max(worst, abs(value - oracle) / oracle)
    k2_zero_ok = all(
        abs(cst.t2_constant(1.7, 0.0, c_b, 2.0)["value"] - 4.0 * c_b)
        <= 1e-4 * 4.0 * c_b
        for c_b in (0.25, 1.0, 7.5))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and k2_zero_ok and elapsed < 10.0
    checklist(1, ok, f"grid-oracle rel err {worst:.2e} <= 1e-6, "
                     f"K2=0 -> 4 C_B to 1e-4, {elapsed:.1f}s < 10s")


def test_criterion_02_girsanov_normalization(heat_coupled):
    _, _, _, h, ens, build = heat_coupled
    start = time.perf_counter()
    entropy = shift_entropy(h)
    mart_mean, mart_se = mean_and_stderr(np.exp(ens["log_rn_base_view"]))
    log_mean, log_se = mean_and_stderr(ens["log_rn"])
    elapsed = build + time.perf_counter() - start
    ok = (abs(entropy - 0.5) <= 1e-12
          and abs(mart_mean - 1.0) <= 3.0 * mart_se
          and abs(log_mean - 0.5) <= 3.0 * log_se
          and elapsed < 120.0)
    checklist(2, ok, f"E[M_T]={mart_mean:.4f}+-{mart_se:.4f} vs 1, "
                     f"E_Q[log M_T]={log_mean:.4f}+-{log_se:.4f} vs 0.5, "
                     f"{elapsed:.0f}s < 120s")


def test_criterion_03_contraction_chain(heat_coupled):
    model, cfg, x0, h, ens, build = heat_coupled
    start = time.perf_counter()
    assert model.constants.K2 == 0.0
    t2 = cst.t2_constant(cfg.horizon, model.constants.K2, model.noise.c_b)
    report = contraction_report(model, h, ens, t2["value"])
    gap = report["sup_gap_sq"]
    bound_ok = gap["mean"] + 3.0 * gap["stderr"] <= report["bound"]

    # the additive coupling gap is deterministic, so a handful of refined
    # replicates carries the same mean as the full ensemble
    fine = S.SolverConfig(dt=2.5e-4, horizon=cfg.horizon)
    vals = coupled_ensemble(model, fine, x0, unit_shift(fine), 8,
                            0)["sup_gap_sq"]
    assert np.ptp(vals) <= 1e-9 * vals.mean()
    rel = abs(vals.mean() - CONTINUUM_GAP) / CONTINUUM_GAP
    elapsed = build + time.perf_counter() - start
    ok = bound_ok and rel <= 0.05 and elapsed < 180.0
    checklist(3, ok, f"sup gap^2 {gap['mean']:.5f}+3se <= {report['bound']:.4f}, "
                     f"refined mean off oracle by {rel:.2%} <= 5%, "
                     f"{elapsed:.0f}s < 180s")


def test_criterion_04_w2_functional_domination(heat_coupled):
    model, cfg, x0, h, ens, build = heat_coupled
    start = time.perf_counter()
    half = {key: (val[:2048] if isinstance(val, np.ndarray) else val)
            for key, val in ens.items()}
    half["n_replicates"] = 2048
    t2 = cst.t2_constant(cfg.horizon, model.constants.K2, model.noise.c_b)
    report = conc.t2_chain_check(model, h, conc.sup_h_functional(), half,
                                 t2["value"])
    elapsed = build + time.perf_counter() - start
    ok = (report["w2_empirical"] <= report["bound"]
          and report["margin"] > 10.0 * report["combined_stderr"]
          and elapsed < 180.0)
    checklist(4, ok, f"W2 {report['w2_empirical']:.4f} <= {report['bound']:.4f} "
                     f"with margin {report['margin']:.3f} > "
                     f"10x stderr {10 * report['combined_stderr']:.4f}, "
                     f"{elapsed:.0f}s < 180s")


def test_criterion_05_exponential_moment_lemma():
    details = []
    ok = True
    for make in (heat_reference, burgers_reference):
        model, cfg, x0 = make()
        start = time.perf_counter()
        cons = model.constants
        ranges = cst.admissible_ranges(cons.theta, cons.eta, cons.K3,
                                       model.noise.c_b, 0.5)
        lam0 = 0.5 * ranges["lambda0_max_lemma"]
        values = conc.functional_ensemble(model, cfg, x0,
                                          conc.l2_v_path_functional(), 2048, 0)
        report = conc.exp_moment_check(
            model, values, 0.5, lam0, ranges["lambda0_max_lemma"],
            model.f_tilde * cfg.horizon, float(model.space.sq_norms(x0.coeffs)), 0)
        elapsed = time.perf_counter() - start
        ok = ok and report["pass"] and elapsed < 300.0
        details.append(f"{model.kind}: {report['estimate']:.4f}+3se <= "
                       f"{report['bound']:.4f} in {elapsed:.0f}s")
    checklist(5, ok, "; ".join(details) + " (< 300s each)")


def test_criterion_06_bobkov_gotze_suite():
    start = time.perf_counter()
    model, cfg, x0 = burgers_reference()
    cons = model.constants
    ranges = cst.admissible_ranges(cons.theta, cons.eta, cons.K3,
                                   model.noise.c_b, 0.5)
    lam0 = 0.5 * ranges["lambda0_max_lemma"]
    c_t1 = cst.t1_constant(lam0, 0.5, cons.theta,
                           model.f_tilde * cfg.horizon, 1.0)
    functional = conc.l2_v_path_functional()
    values = conc.functional_ensemble(model, cfg, x0, functional, 4096, 0)
    report = conc.bobkov_gotze_check(values, functional.lipschitz_constant,
                                     c_t1, [-1.0, -0.5, -0.1, 0.1, 0.5, 1.0])
    model_ok = report["pass"] and all(e["pass"] for e in report["entries"])

    gauss = np.random.default_rng(17).standard_normal(100_000)
    grid = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    positive = conc.bobkov_gotze_check(gauss, 1.0, 1.0, grid)
    negative = conc.bobkov_gotze_check(gauss, 1.0, 0.25, grid)
    controls_ok = (positive["pass"]
                   and not negative["pass"]
                   and all(not e["pass"] for e in negative["entries"]
                           if abs(e["lambda"]) >= 2.0))
    elapsed = time.perf_counter() - start
    ok = model_ok and controls_ok and elapsed < 300.0
    worst = min(e["margin"] for e in report["entries"])
    checklist(6, ok, f"burgers C_T1={c_t1:.3f} all lambdas pass "
                     f"(worst margin {worst:.3f}); Gaussian controls "
                     f"pass/fail as designed, {elapsed:.0f}s < 300s")


def test_criterion_07_inequality_property_suites():
    start = time.perf_counter()
    suite_1d = F.norm_inequality_suite(
        F.SineSpace(32), 1000, N.generator(7, N.derived_replicate(N.LANE_FIELDS, 0)))
    suite_2d = F.norm_inequality_suite(
        F.TorusSpace(8), 1000, N.generator(7, N.derived_replicate(N.LANE_FIELDS, 1)))
    op = N.NoiseOperator(4, N.gains_inverse_k(4, 1.0), 1.0)
    energy_1d = M.nonlinearity_energy_suite(M.burgers_model(32, op), 1000, 7)
    energy_2d = M.nonlinearity_energy_suite(M.ns2d_model(8, 0.1, op), 1000, 7)

    violations = sum(sub["violations"] for suite in (suite_1d, suite_2d)
                     for sub in suite.values() if isinstance(sub, dict))
    violations += energy_1d["violations"] + energy_2d["violations"]
    eta_ok = (suite_1d["poincare"]["worst_ratio"] >= M.ETA_1D
              and suite_2d["poincare"]["worst_ratio"] >= M.ETA_2D)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and eta_ok and elapsed < 30.0
    checklist(7, ok, f"{violations} violations over 1000 fields per suite "
                     f"(L4 interp, Poincare/eta, Parseval 1e-12, "
                     f"energy 1e-10), {elapsed:.0f}s < 30s")


def test_criterion_08_solver_oracles():
    start = time.perf_counter()
    heat = S.heat_convergence_report()
    tg = S.taylor_green_report()
    elapsed = time.perf_counter() - start
    ok = (0.85 <= heat["fitted_order"] <= 1.15
          and tg["projected_nonlinearity_linf"] <= 1e-10
          and tg["relative_error"] <= 0.01
          and elapsed < 60.0)
    checklist(8, ok, f"heat order {heat['fitted_order']:.3f} in [0.85, 1.15]; "
                     f"TG advection {tg['projected_nonlinearity_linf']:.1e} "
                     f"<= 1e-10 at cutoff 32, decay rate off by "
                     f"{tg['relative_error']:.2%} <= 1%, {elapsed:.0f}s < 60s")


def test_criterion_09_wasserstein_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 5))
        a = rng.standard_normal((n, d))
        b = rng.standard_normal((n, d))
        if conc.w2_small_cloud(a, b) != w2_factorial_oracle(a, b):
            mismatches += 1
    hand = conc.w2_sorted_1d([0.0, 1.0], [0.0, 3.0])
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and hand == math.sqrt(2.0) and elapsed < 30.0
    checklist(9, ok, f"{mismatches}/100 clouds off the factorial oracle; "
                     f"{{0,1}} vs {{0,3}} -> {hand:.6f} == sqrt(2), "
                     f"{elapsed:.0f}s < 30s")


def test_criterion_10_reports_independent_of_worker_count(
        tmp_path, monkeypatch, capsys):
    config = os.path.join(CONFIG_DIR, "heat_reference.json")
    bodies = []
    csvs = []
    for workers in ("1", "6"):
        monkeypatch.setenv("TCI_SPDE_WORKERS", workers)
        out = tmp_path / f"w{workers}"
        assert main(["verify-t2", "--config", config, "--out", str(out)]) == 0
        text = (out / "report.json").read_text()
        bodies.append("\n".join(line for line in text.splitlines()
                                if '"timestamp"' not in line))
        csvs.append((out / "ensemble.csv").read_bytes())
    capsys.readouterr()
    ok = bodies[0] == bodies[1] and csvs[0] == csvs[1]
    checklist(10, ok, "verify-t2 report.json byte-identical modulo timestamp "
                      "and ensemble.csv byte-identical for 1 vs 6 workers")
