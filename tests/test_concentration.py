"""Exponential moments, tails, Wasserstein distances, and their oracles."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tci_spde import concentration as K
from tci_spde import fields as F
from tci_spde import girsanov as G
from tci_spde import models as M
from tci_spde import noise as N
from tci_spde import solver as S
from tci_spde.cli import _write_ensemble_csv
from tci_spde.constants import admissible_ranges, t2_constant
from tci_spde.errors import ParameterError

import oracles as orc
from oracles import w2_factorial_oracle


# ---------------------------------------------------------------------------
# exp_moment_empirical


def test_constant_ensemble_has_unit_moment():
    res = K.exp_moment_empirical(np.full(64, 3.7), 2.5)
    assert res["estimate"] == 1.0
    assert res["stderr"] == 0.0
    assert not res["infinite"]


def test_two_point_ensemble_gives_cosh():
    res = K.exp_moment_empirical(np.array([-1.0, 1.0]), 1.0)
    assert res["estimate"] == pytest.approx(math.cosh(1.0), rel=1e-14)


def test_gaussian_moment_matches_mgf():
    rng = np.random.default_rng(12)
    values = rng.standard_normal(100_000)
    res = K.exp_moment_empirical(values, 1.0)
    assert abs(res["estimate"] - math.sqrt(math.e)) <= 3.0 * res["stderr"]


def test_zero_lambda_is_exactly_one():
    rng = np.random.default_rng(1)
    res = K.exp_moment_empirical(rng.standard_normal(100), 0.0)
    assert res["estimate"] == 1.0


def test_mean_shift_invariance():
    rng = np.random.default_rng(2)
    values = rng.standard_normal(500)
    a = K.exp_moment_empirical(values, 0.7)
    b = K.exp_moment_empirical(values + 123.0, 0.7)
    assert b["estimate"] == pytest.approx(a["estimate"], rel=1e-12)
    assert b["stderr"] == pytest.approx(a["stderr"], rel=1e-9, abs=1e-15)


def test_overflow_reports_infinite():
    res = K.exp_moment_empirical(np.array([0.0, 1000.0]), 2.0)
    assert res["infinite"]


def test_jackknife_stderr_matches_delta_method():
    # the statistic recenters by the sample mean, so its asymptotic
    # variance is e^{2 lam^2} - (1 + lam^2) e^{lam^2}, not the naive
    # plug-in variance of exp(lam (v - mean)) with the mean held fixed
    rng = np.random.default_rng(3)
    values = rng.standard_normal(10_000)
    lam = 0.8
    res = K.exp_moment_empirical(values, lam)
    var = math.exp(2.0 * lam**2) - (1.0 + lam**2) * math.exp(lam**2)
    assert res["stderr"] == pytest.approx(math.sqrt(var / values.size), rel=0.15)


# ---------------------------------------------------------------------------
# Bobkov-Gotze and tail checks on synthetic controls


def test_bobkov_gotze_gaussian_equality_case_passes():
    rng = np.random.default_rng(4)
    e = rng.standard_normal(100_000)
    report = K.bobkov_gotze_check(e, 1.0, C=1.0, lambda_grid=[-2.0, -1.0, -0.5,
                                                              0.0, 0.5, 1.0, 2.0])
    assert report["pass"], report


def test_bobkov_gotze_flags_undersized_constant():
    rng = np.random.default_rng(4)
    e = rng.standard_normal(100_000)
    report = K.bobkov_gotze_check(e, 1.0, C=0.25, lambda_grid=[0.5, 1.0, 2.0, -2.0])
    assert not report["pass"]
    for entry in report["entries"]:
        if abs(entry["lambda"]) >= 2.0:
            assert not entry["pass"]


def test_gaussian_tail_check_passes_at_matched_constant():
    rng = np.random.default_rng(5)
    e = rng.standard_normal(100_000)
    report = K.gaussian_tail_check(e, 1.0, C=1.0, r_grid=[0.0, 0.5, 1.0, 2.0, 3.0])
    assert report["pass"], report
    assert report["entries"][0]["bound"] == 1.0


def test_gaussian_tail_check_flags_heavy_tails():
    rng = np.random.default_rng(6)
    e = rng.standard_t(3, size=100_000)
    report = K.gaussian_tail_check(e, 1.0, C=0.25, r_grid=[3.0, 4.0])
    assert not report["pass"]


# ---------------------------------------------------------------------------
# Wasserstein


def test_w2_sorted_examples():
    assert K.w2_sorted_1d([0.4, 1.0, -2.0], [1.0, -2.0, 0.4]) == 0.0
    assert K.w2_sorted_1d([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0, rel=1e-15)
    assert K.w2_sorted_1d([0.0, 1.0], [0.0, 3.0]) == pytest.approx(
        math.sqrt(2.0), rel=1e-15
    )
    with pytest.raises(ParameterError):
        K.w2_sorted_1d([0.0, 1.0], [0.0])


def test_w2_small_cloud_examples():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert K.w2_small_cloud(pts, pts) == 0.0
    # unit square: sides beat the crossed diagonal pairing
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 1.0], [1.0, 1.0]])
    assert K.w2_small_cloud(a, b) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ParameterError):
        K.w2_small_cloud(np.zeros((2, 9)), np.zeros((2, 9)))
    with pytest.raises(ParameterError):
        K.w2_small_cloud(np.zeros((257, 1)), np.zeros((257, 1)))


def test_w2_small_cloud_equals_factorial_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        a = rng.normal(size=(n, d))
        b = rng.normal(size=(n, d))
        assert K.w2_small_cloud(a, b) == w2_factorial_oracle(a, b)


def test_w2_sorted_agrees_with_assignment_in_1d():
    rng = np.random.default_rng(8)
    a = rng.normal(size=64)
    b = rng.normal(size=64)
    assert K.w2_sorted_1d(a, b) == pytest.approx(K.w2_small_cloud(a, b), rel=1e-12)


@given(
    st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=24),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_w2_sorted_triangle_inequality(a, data):
    n = len(a)
    floats = st.floats(-100.0, 100.0)
    b = data.draw(st.lists(floats, min_size=n, max_size=n))
    c = data.draw(st.lists(floats, min_size=n, max_size=n))
    ab = K.w2_sorted_1d(a, b)
    bc = K.w2_sorted_1d(b, c)
    ac = K.w2_sorted_1d(a, c)
    assert ac <= ab + bc + 1e-9


# ---------------------------------------------------------------------------
# trajectory functionals


def synthetic_pair(rng, n_steps=20, n_modes=6):
    times = np.linspace(0.0, 1.0, n_steps + 1)
    a = orc.trajectory_from_states(
        times, rng.standard_normal((n_steps + 1, n_modes)))
    b = orc.trajectory_from_states(
        times, rng.standard_normal((n_steps + 1, n_modes)))
    return a, b


def test_trajectory_from_states_consistency():
    rng = np.random.default_rng(9)
    traj, _ = synthetic_pair(rng)
    h = F.norms_h(traj.states)
    assert np.allclose(traj.sup_h_norm, np.maximum.accumulate(h), rtol=1e-12)
    space = F.space_of(traj.states)
    v_sq = space.sq_norms(traj.states, space.laplacian_eigenvalues())
    assert traj.v_energy[-1] == pytest.approx(np.trapezoid(v_sq, traj.times), rel=1e-12)


def test_functional_values():
    rng = np.random.default_rng(10)
    traj, _ = synthetic_pair(rng)
    assert orc.functional_of(K.l2_v_path_functional(), traj) == pytest.approx(
        math.sqrt(traj.v_energy_total), rel=1e-15
    )
    assert orc.functional_of(K.sup_h_functional(), traj) == traj.sup_h_total
    assert orc.functional_of(K.terminal_h_functional(), traj) == pytest.approx(
        float(F.norms_h(traj.terminal)), rel=1e-14
    )
    probe = rng.standard_normal(6)
    probed = K.linear_probe_functional(probe)
    assert probed.lipschitz_constant == pytest.approx(
        float(np.linalg.norm(probe)), rel=1e-14
    )
    assert orc.functional_of(probed, traj) == pytest.approx(
        float(probe @ traj.states[-1]), rel=1e-13)


def test_lipschitz_audit_clean_across_functionals():
    rng = np.random.default_rng(11)
    pairs = [synthetic_pair(rng) for _ in range(10_000)]
    probe = rng.standard_normal(6)
    for functional in (K.l2_v_path_functional(), K.sup_h_functional(),
                       K.terminal_h_functional(), K.linear_probe_functional(probe)):
        report = orc.lipschitz_audit(functional, pairs)
        assert report["violations"] == 0, report
        assert report["n_pairs"] == 10_000


def test_lipschitz_audit_detects_false_declaration():
    rng = np.random.default_rng(12)
    pairs = [synthetic_pair(rng) for _ in range(50)]
    braggart = K.FunctionalSpec("sup_H_norm", 0.01, "uniform_H")
    report = orc.lipschitz_audit(braggart, pairs)
    assert report["violations"] > 0
    assert not report["pass"]


def test_metric_distance_rejects_mismatched_grids():
    rng = np.random.default_rng(13)
    a, _ = synthetic_pair(rng, n_steps=10)
    b, _ = synthetic_pair(rng, n_steps=20)
    with pytest.raises(ParameterError):
        orc.metric_distance("uniform_H", a, b)


# ---------------------------------------------------------------------------
# model-driven checks (small scale; acceptance runs the reference scale)


def small_heat():
    op = N.NoiseOperator(4, N.gains_inverse_k(4, 1.0), 1.0)
    model = M.heat_model(8, op)
    cfg = S.SolverConfig(dt=0.01, horizon=0.5)
    x0 = F.Field1D(np.zeros(8))
    return model, cfg, x0


def test_exp_moment_check_passes_on_heat():
    model, cfg, x0 = small_heat()
    ranges = admissible_ranges(model.constants.theta, model.constants.eta,
                               model.constants.K3, model.noise.c_b)
    values = K.functional_ensemble(model, cfg, x0, K.l2_v_path_functional(),
                                   256, 0)
    report = K.exp_moment_check(model, values, c=0.5,
                                lambda0=0.5 * ranges["lambda0_max_lemma"],
                                lambda0_max=ranges["lambda0_max_lemma"],
                                f_int=model.f_tilde * cfg.horizon, x0_sq=0.0,
                                experiment_seed=0)
    assert report["pass"], report
    assert report["n_replicates"] == 256
    assert report["estimate"] + 3.0 * report["stderr"] <= report["bound"]


def test_exp_moment_check_rejects_inadmissible_lambda0():
    model, cfg, _ = small_heat()
    ranges = admissible_ranges(model.constants.theta, model.constants.eta,
                               model.constants.K3, model.noise.c_b)
    with pytest.raises(ParameterError, match="lambda0 must lie in"):
        K.exp_moment_check(model, np.ones(4), c=0.5, lambda0=10.0,
                           lambda0_max=ranges["lambda0_max_lemma"],
                           f_int=model.f_tilde * cfg.horizon, x0_sq=0.0,
                           experiment_seed=0)


def test_zero_noise_moments_vanish():
    op = N.NoiseOperator(2, [0.0, 0.0], 1.0)  # zero gains: B = 0
    model = M.heat_model(8, op, f_tilde=0.0)
    cfg = S.SolverConfig(dt=0.01, horizon=0.2)
    report, _ = K.moment_report(model, cfg, F.Field1D(np.zeros(8)),
                                n_replicates=8, refine=False)
    assert report["base"]["sup_h_moment"]["mean"] == 0.0
    assert report["base"]["v_energy"]["mean"] == 0.0


def test_moment_report_stable_under_refinement():
    model, cfg, x0 = small_heat()
    report, _ = K.moment_report(model, cfg, x0, n_replicates=64, p=2.0,
                                refine=True)
    assert report["pass"], report
    assert report["stable_under_refinement"]


def test_t2_chain_check_passes_on_heat():
    model, cfg, x0 = small_heat()
    h = G.shift_from_descriptor({"type": "constant", "amplitude": 1.0}, 4, cfg)
    coupled = G.coupled_ensemble(model, cfg, x0, h, 128, 0)
    c_t2 = t2_constant(cfg.horizon, model.constants.K2, model.noise.c_b,
                       2.0)["value"]
    report = K.t2_chain_check(model, h, K.sup_h_functional(), coupled, c_t2)
    assert report["pass"], report
    assert report["w2_empirical"] <= report["bound"] + 3.0 * report["combined_stderr"]


def test_ensemble_csv_round_trip(tmp_path):
    values = K.functional_ensemble(*small_heat(), K.sup_h_functional(),
                                   n_replicates=6, experiment_seed=1)
    path = tmp_path / "ensemble.csv"
    _write_ensemble_csv(path, 1, [("sup_H_norm", values)])
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert [r["replicate"] for r in rows] == [str(i) for i in range(6)]
    assert {r["seed"] for r in rows} == {"1"}
    assert rows[0]["functional"] == "sup_H_norm"
    back = np.array([float(r["value"]) for r in rows])
    assert np.array_equal(back, values)


def test_statistics_refuse_short_or_non_finite_values():
    for bad in ([1.0], [[1.0, 2.0]], [0.0, np.nan], [np.inf, 1.0]):
        with pytest.raises(ParameterError):
            K.bobkov_gotze_check(bad, 1.0, 1.0, [0.5])
        with pytest.raises(ParameterError):
            K.gaussian_tail_check(bad, 1.0, 1.0, [0.5])
