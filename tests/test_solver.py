"""Semi-implicit Euler-Maruyama stepping and its reference oracles."""

import numpy as np
import pytest

from tci_spde import fields as F
from tci_spde import models as M
from tci_spde import noise as N
from tci_spde import solver as S
from tci_spde.errors import DivergenceError, ParameterError


def noise_1d(n_w=4, c_b=1.0):
    return N.NoiseOperator(n_w, N.gains_inverse_k(n_w, c_b), c_b)


def sin_pi_x(n_modes):
    coeffs = np.zeros(n_modes)
    coeffs[0] = 2.0**-0.5
    return coeffs


def test_zero_initial_state_is_a_fixed_point():
    model = M.heat_model(8, noise_1d(), f_tilde=0.0)
    cfg = S.SolverConfig(dt=0.01, horizon=0.1)
    run = S.solve(model, cfg, np.zeros(8), experiment_seed=0,
                  zero_noise=True)
    # a state is zero exactly when its H-norm is
    assert np.all(run.norms == 0.0)
    assert np.all(run.paths["terminal"] == 0.0)
    assert run.paths["v_energy_total"][0] == 0.0
    assert run.paths["sup_h_total"][0] == 0.0


def test_initial_state_stored_exactly():
    # the recorded path starts at the norms of x0 itself, bit for bit
    model = M.burgers_model(8, noise_1d())
    cfg = S.SolverConfig(dt=0.01, horizon=0.05)
    x0 = F.random_fields_1d(1, 8, np.random.default_rng(0))[0]
    run = S.solve(model, cfg, x0, experiment_seed=1)
    space = model.space
    assert run.norms.shape == (cfg.n_steps + 1, 2)
    assert run.norms[0, 0] == space.sq_norms(x0)
    assert run.norms[0, 1] == space.sq_norms(x0, space.laplacian_eigenvalues())
    assert len(run.paths) == 1


def test_implicit_factor_on_heat_eigenmode():
    # ten zero-noise steps at dt = 0.1 divide the mode-1 coefficient by
    # (1 + 0.1 pi^2) each step; exact semigroup would give e^{-pi^2}
    model = M.heat_model(4, noise_1d(n_w=2))
    cfg = S.SolverConfig(dt=0.1, horizon=1.0)
    run = S.solve(model, cfg, sin_pi_x(4), experiment_seed=0, zero_noise=True)
    terminal = run.paths["terminal"][0]
    expected = 2.0**-0.5 / (1.0 + 0.1 * np.pi**2) ** 10
    assert terminal[0] == pytest.approx(expected, rel=1e-12)
    assert (1.0 + 0.1 * np.pi**2) ** -10 == pytest.approx(1.0425761721485818e-3, rel=1e-12)
    assert np.max(np.abs(terminal[1:])) == 0.0


def test_determinism_bitwise():
    model = M.burgers_model(12, noise_1d())
    cfg = S.SolverConfig(dt=0.005, horizon=0.1)
    x0 = F.random_fields_1d(1, 12, np.random.default_rng(3))[0]
    a = S.solve(model, cfg, x0, experiment_seed=9, replicate=4)
    b = S.solve(model, cfg, x0, experiment_seed=9, replicate=4)
    assert np.array_equal(a.paths, b.paths)
    assert np.array_equal(a.norms, b.norms)
    c = S.solve(model, cfg, x0, experiment_seed=9, replicate=5)
    assert not np.array_equal(a.paths["terminal"], c.paths["terminal"])
    assert not np.array_equal(a.norms, c.norms)


def test_v_energy_matches_posthoc_trapezoid():
    # the running V-energy after k steps is the total of the k-step run,
    # whose increments are the first k of the longer run's
    model = M.burgers_model(12, noise_1d())
    cfg = S.SolverConfig(dt=0.002, horizon=0.1)
    x0 = F.random_fields_1d(1, 12, np.random.default_rng(5))[0]
    run = S.solve(model, cfg, x0, experiment_seed=2)
    v_sq = run.norms[:, 1]
    recomputed = np.concatenate(
        [[0.0], np.cumsum(0.5 * (v_sq[1:] + v_sq[:-1]) * cfg.dt)])
    for k in (1, 7, 25, cfg.n_steps):
        short = S.SolverConfig(dt=cfg.dt, horizon=k * cfg.dt)
        total = S.solve(model, short, x0, experiment_seed=2).paths[
            "v_energy_total"][0]
        assert abs(recomputed[k] - total) <= 1e-12 * max(1.0, recomputed[-1])
    assert np.all(v_sq >= 0.0)


def test_sup_h_norm_is_running_max():
    model = M.heat_model(8, noise_1d())
    cfg = S.SolverConfig(dt=0.01, horizon=0.2)
    run = S.solve(model, cfg, sin_pi_x(8), experiment_seed=7)
    h_sq = run.norms[:, 0]
    assert run.paths["sup_h_total"][0] == np.sqrt(np.max(h_sq))
    for k in (1, 5, 13):
        short = S.SolverConfig(dt=cfg.dt, horizon=k * cfg.dt)
        sup = S.solve(model, short, sin_pi_x(8), experiment_seed=7).paths[
            "sup_h_total"][0]
        assert sup == np.sqrt(np.max(h_sq[:k + 1]))


def test_burgers_energy_decays_without_noise():
    model = M.burgers_model(16, noise_1d())
    cfg = S.SolverConfig(dt=0.005, horizon=0.25)
    run = S.solve(model, cfg, sin_pi_x(16), experiment_seed=0, zero_noise=True)
    h = np.sqrt(run.norms[:, 0])
    assert np.all(np.diff(h) < 0.0)


def test_dealias_invariance_for_low_mode_fields():
    # products of fields on the lowest third of the spectrum are exact on
    # either grid, so dealiasing must not change the nonlinearity
    n_modes = 18
    rng = np.random.default_rng(11)
    coeffs = np.zeros(n_modes)
    coeffs[: n_modes // 3] = rng.standard_normal(n_modes // 3)
    lean = M.burgers_nonlinearity(coeffs, n_grid=n_modes)
    padded = M.burgers_nonlinearity(coeffs, n_grid=4 * n_modes)
    assert np.max(np.abs(lean - padded)) <= 1e-10


def test_divergence_raises_with_context():
    model = M.burgers_model(8, noise_1d())
    cfg = S.SolverConfig(dt=0.5, horizon=50.0)
    x0 = np.full(8, 40.0)
    with pytest.raises(DivergenceError) as err:
        S.solve(model, cfg, x0, experiment_seed=3, replicate=12, zero_noise=True)
    assert err.value.step >= 1
    assert "replicate=12" in str(err.value)


def test_solver_config_validation():
    with pytest.raises(ParameterError):
        S.SolverConfig(dt=0.3, horizon=1.0)  # not a whole number of steps
    with pytest.raises(ParameterError):
        S.SolverConfig(dt=-0.1, horizon=1.0)


def test_heat_convergence_order():
    report = S.heat_convergence_report(n_modes=8, horizon=1.0)
    assert report["pass"], report
    assert 0.85 <= report["fitted_order"] <= 1.15


def test_taylor_green_decay():
    report = S.taylor_green_report(cutoff=8, viscosity=0.05, dt=1e-3, horizon=0.25)
    assert report["pass"], report
    assert report["projected_nonlinearity_linf"] <= 1e-10
    assert abs(report["relative_error"]) <= 0.01
