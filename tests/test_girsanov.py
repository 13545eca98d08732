"""Girsanov couplings: entropy, likelihood bookkeeping, and contraction."""

import numpy as np
import pytest

from tci_spde import girsanov as G
from tci_spde import models as M
from tci_spde import noise as N
from tci_spde import solver as S
from tci_spde._stats import fsum_mean, mean_and_stderr
from tci_spde.constants import t2_constant
from tci_spde.errors import ParameterError

from test_blocks import increments


def single_mode_noise(n_w=2, c_b=1.0):
    return N.NoiseOperator(n_w, N.gains_single_mode(n_w, c_b, 1), c_b)


def heat_setup(n_modes=8, dt=0.01, horizon=1.0):
    model = M.heat_model(n_modes, single_mode_noise())
    cfg = S.SolverConfig(dt=dt, horizon=horizon)
    x0 = np.zeros(n_modes)
    return model, cfg, x0


def unit_shift(cfg, n_w=2):
    return G.shift_from_descriptor({"type": "constant", "mode_index": 1,
                                    "amplitude": 1.0}, n_w, cfg)


def coupled_pair(model, cfg, x0, h, experiment_seed, replicate=0):
    """The shifted and unshifted legs of one replicate."""
    return S.solve_block(model, cfg, x0, experiment_seed, [replicate],
                         shifts=(h, None))


# ---------------------------------------------------------------------------
# shift entropy


def test_entropy_zero_shift():
    cfg = S.SolverConfig(dt=0.01, horizon=1.0)
    h = np.zeros((cfg.n_steps + 1, 3))
    assert G.shift_entropy(h, cfg.dt) == 0.0


def test_entropy_constant_unit_shift():
    cfg = S.SolverConfig(dt=0.001, horizon=1.0)
    assert G.shift_entropy(unit_shift(cfg), cfg.dt) == pytest.approx(
        0.5, rel=1e-14)


def test_entropy_ramp_shift():
    # h(s) = s e_1 on [0, 1]: 1/2 int s^2 ds = 1/6, up to trapezoid error
    cfg = S.SolverConfig(dt=0.001, horizon=1.0)
    h = G.shift_from_descriptor({"type": "ramp", "mode_index": 1,
                                 "amplitude": 1.0}, 2, cfg)
    assert G.shift_entropy(h, cfg.dt) == pytest.approx(1.0 / 6.0, rel=1e-5)


def test_shift_descriptor_validation():
    cfg = S.SolverConfig(dt=0.01, horizon=1.0)
    with pytest.raises(ParameterError):
        G.shift_from_descriptor({"type": "sawtooth"}, 2, cfg)
    with pytest.raises(ParameterError):
        G.shift_from_descriptor({"mode_index": 3}, 2, cfg)
    mode = G.shift_from_descriptor({"type": "mode", "mode_index": 2,
                                    "amplitude": 0.5}, 2, cfg)
    const = G.shift_from_descriptor({"type": "constant", "mode_index": 2,
                                     "amplitude": 0.5}, 2, cfg)
    assert np.array_equal(mode, const)


# ---------------------------------------------------------------------------
# coupled dynamics


def test_zero_shift_couples_identically():
    model, cfg, x0 = heat_setup()
    h = np.zeros((cfg.n_steps + 1, 2))
    pair = coupled_pair(model, cfg, x0, h, experiment_seed=0)
    assert pair.sup_gap_sq[0] == 0.0
    # terminal states, V-energies and sup H-norms of the two legs agree
    assert np.array_equal(pair.paths[:1], pair.paths[1:])
    ens = G.coupled_ensemble(model, cfg, x0, h, n_replicates=2, experiment_seed=0)
    assert np.all(ens["sup_gap_sq"] == 0.0)
    assert np.all(ens["log_rn"] == 0.0)


def discrete_gap_oracle(dt, n_steps):
    """Terminal gap of m' = -pi^2 m + 1, m(0) = 0 under the solver rule."""
    m = 0.0
    for _ in range(n_steps):
        m = (m + dt) / (1.0 + dt * np.pi**2)
    return m


def test_heat_gap_matches_ode_oracle():
    model, cfg, x0 = heat_setup(dt=1e-3)
    gap_sq = coupled_pair(model, cfg, x0, unit_shift(cfg), 0).sup_gap_sq[0]
    oracle = discrete_gap_oracle(cfg.dt, cfg.n_steps) ** 2
    assert gap_sq == pytest.approx(oracle, rel=1e-12)
    # the dt -> 0 limit ((1 - e^{-pi^2}) / pi^2)^2
    continuum = ((1.0 - np.exp(-np.pi**2)) / np.pi**2) ** 2
    assert continuum == pytest.approx(0.010264920303525348, rel=1e-15)
    assert gap_sq == pytest.approx(continuum, rel=1e-4)


def test_heat_gap_scales_linearly_in_shift():
    model, cfg, x0 = heat_setup(dt=2e-3, horizon=0.5)
    base = coupled_pair(model, cfg, x0, unit_shift(cfg), 0).sup_gap_sq[0]
    doubled_shift = 2.0 * unit_shift(cfg)
    doubled = coupled_pair(model, cfg, x0, doubled_shift, 0).sup_gap_sq[0]
    assert np.sqrt(doubled) == pytest.approx(2.0 * np.sqrt(base), rel=1e-10)


def test_coupled_solve_validates_shift_shape():
    model, cfg, x0 = heat_setup()
    with pytest.raises(ParameterError):
        bad_rows = np.zeros((7, 2))
        G.coupled_ensemble(model, cfg, x0, bad_rows, 2, experiment_seed=0)
    with pytest.raises(ParameterError):
        bad_width = np.zeros((cfg.n_steps + 1, 5))
        G.coupled_ensemble(model, cfg, x0, bad_width, 2, experiment_seed=0)
    with pytest.raises(ParameterError):
        coupled_pair(model, cfg, x0, bad_width, experiment_seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_shift_is_refused(bad):
    model, cfg, x0 = heat_setup()
    h = np.zeros((cfg.n_steps + 1, 2))
    h[-1, 1] = bad   # the last row, which only the entropy reads
    with pytest.raises(ParameterError, match="finite"):
        coupled_pair(model, cfg, x0, h, experiment_seed=0)
    with pytest.raises(ParameterError, match="finite"):
        G.coupled_ensemble(model, cfg, x0, h, 2, experiment_seed=0)


# ---------------------------------------------------------------------------
# measure-change statistics


def test_martingale_and_entropy_identities():
    model, cfg, x0 = heat_setup(n_modes=8, dt=0.01)
    h = unit_shift(cfg)
    ens = G.coupled_ensemble(model, cfg, x0, h, n_replicates=512,
                             experiment_seed=0)
    mart = np.exp(ens["log_rn_base_view"])
    mean, se = mean_and_stderr(mart)
    assert abs(mean - 1.0) <= 3.0 * se
    ent_mean, ent_se = mean_and_stderr(ens["log_rn"])
    assert abs(ent_mean - G.shift_entropy(h, cfg.dt)) <= 3.0 * ent_se


def test_coupled_ensemble_matches_single_pairs():
    n_rep = S.BLOCK_REPLICATES + 3   # a full block and a partial one, joined
    model, cfg, x0 = heat_setup(n_modes=4, dt=0.02, horizon=0.2)
    h = unit_shift(cfg)
    ens = G.coupled_ensemble(model, cfg, x0, h, n_replicates=n_rep,
                             experiment_seed=3)
    rows = h[:-1]
    i_left = cfg.dt * float(np.sum(rows**2))
    for r in range(n_rep):
        pair = coupled_pair(model, cfg, x0, h, experiment_seed=3, replicate=r)
        assert ens["sup_gap_sq"][r] == pair.sup_gap_sq[0]
        assert ens["shifted"][r] == pair.paths[0]
        assert ens["unshifted"][r] == pair.paths[1]
        # log M_T = sum <h, dW> + dt sum ||h||^2 - H(Q | P), dW the drawn
        # increments, the pairing summed in step order
        inc = increments(model, cfg, 3, r)
        pairing = 0.0
        for k in range(cfg.n_steps):
            pairing += np.sum(rows[k] * inc[k])
        assert ens["log_rn"][r] == \
            pairing + i_left - G.shift_entropy(h, cfg.dt)
        assert ens["log_rn_base_view"][r] == pairing - 0.5 * i_left


def test_pairing_of_one_replicate_matches_its_row_of_a_coupled_pass():
    # each step's term is summed over the row's n_w = 9 coordinates, so a
    # replicate solved alone gives its pairing in a full block or a partial
    # one bitwise, across a slab boundary
    op = N.NoiseOperator(9, N.gains_inverse_k(9, 1.0), 1.0)
    model, x0 = M.heat_model(16, op), np.zeros(16)
    cfg = S.SolverConfig(dt=0.01, horizon=(N.SLAB_STEPS + 6) * 0.01)
    rows = np.random.default_rng(5).normal(size=(cfg.n_steps + 1, 9))
    n_rep = S.BLOCK_REPLICATES + 3
    ens = S.ensemble(model, cfg, x0, 3, range(n_rep), shift=rows)
    assert np.all(ens.pairing != 0.0)
    for r in range(n_rep):
        alone = S.solve(model, cfg, x0, 3, replicate=r, shift_values=rows)
        assert alone.pairing[0] == ens.pairing[r]


def t2_value(model, cfg):
    return t2_constant(cfg.horizon, model.constants.K2, model.noise.c_b,
                       2.0)["value"]


def test_contraction_report_passes():
    model, cfg, x0 = heat_setup(n_modes=8, dt=0.005)
    h = unit_shift(cfg)
    ens = G.coupled_ensemble(model, cfg, x0, h, n_replicates=64, experiment_seed=0)
    report = G.contraction_report(model, ens, t2_value(model, cfg))
    assert report["pass"], report
    assert report["martingale"]["pass"]
    assert report["entropy_identity"]["pass"]
    # K2 = 0: the optimized constant is 4 C_B and the cost integral is 1
    assert report["t2_constant"] == pytest.approx(4.0, rel=1e-4)
    assert report["girsanov_cost"] == pytest.approx(1.0, rel=1e-12)
    assert report["bound"] == pytest.approx(4.0, rel=1e-4)
    assert report["sup_gap_sq"]["mean"] + 3 * report["sup_gap_sq"]["stderr"] <= 4.0


def test_girsanov_cost_is_twice_entropy():
    cfg = S.SolverConfig(dt=0.001, horizon=1.0)
    h = G.shift_from_descriptor({"type": "ramp", "amplitude": 2.0}, 2, cfg)
    model, _, x0 = heat_setup(dt=0.001)
    ens = G.coupled_ensemble(model, cfg, x0, h, n_replicates=2, experiment_seed=1)
    report = G.contraction_report(model, ens, t2_value(model, cfg))
    assert report["girsanov_cost"] == pytest.approx(
        2.0 * G.shift_entropy(h, cfg.dt), rel=1e-14)
