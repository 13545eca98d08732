"""Counter-based Wiener increments and Hilbert-Schmidt noise operators."""

import numpy as np
import pytest

from tci_spde import fields as F
from tci_spde import models as M
from tci_spde import noise as N
from tci_spde import solver as S
from tci_spde.errors import ParameterError

import oracles as O


def test_same_seedspec_is_bitwise_identical():
    # one (experiment_seed, replicate, step) address, drawn twice with
    # other draws between
    a = O.standard_normals(42, 3, 17, 6)
    O.standard_normals(42, 4, 17, 6)
    b = O.standard_normals(42, 3, 17, 6)
    assert np.array_equal(a, b)


def test_increment_table_matches_single_steps():
    op = N.NoiseOperator(5, N.gains_inverse_k(5, 2.0), 2.0)
    table = N.increment_table(op, 0.01, experiment_seed=7, replicate=2, n_steps=40)
    assert table.shape == (40, 5)
    for step in (0, 1, 7, 39):
        single = np.sqrt(0.01) * O.standard_normals(7, 2, step, 5)
        assert np.array_equal(table[step], single)


def test_normal_table_matches_block_addressing():
    # the table row for step s is the same block a cold start at step s yields
    for n in (1, 3, 4, 9):
        table = N.standard_normal_table(11, 5, n_steps=12, n=n)
        for step in (0, 4, 11):
            assert np.array_equal(table[step], O.standard_normals(11, 5, step, n))


def test_increment_variance_matches_dt():
    dt = 4e-4
    draws = N.standard_normal_table(1, 0, n_steps=25000, n=4).ravel() * np.sqrt(dt)
    n = draws.size
    var = float(np.var(draws))
    se = var * np.sqrt(2.0 / (n - 1))
    assert abs(var - dt) <= 3.0 * se
    assert abs(float(np.mean(draws))) <= 3.0 * np.sqrt(dt / n)


def test_disjoint_seedspecs_uncorrelated():
    a = N.standard_normal_table(3, 0, n_steps=2500, n=4).ravel()
    b = N.standard_normal_table(3, 1, n_steps=2500, n=4).ravel()
    r = float(np.corrcoef(a, b)[0, 1])
    assert abs(r) < 0.05


def test_replicates_change_the_stream():
    a = O.standard_normals(0, 0, 0, 8)
    b = O.standard_normals(0, 1, 0, 8)
    c = O.standard_normals(1, 0, 0, 8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derived_replicate_lanes_disjoint():
    assert N.derived_replicate(N.LANE_NOISE, 5) == 5
    assert N.derived_replicate(N.LANE_FIELDS, 5) != 5
    lanes = {N.derived_replicate(lane, 9) for lane in range(4)}
    assert len(lanes) == 4
    with pytest.raises(ParameterError):
        N.derived_replicate(0, 1 << 48)


# ---------------------------------------------------------------------------
# operators


def test_hs_norm_examples():
    single = N.NoiseOperator(3, [1.0, 0.0, 0.0], 1.0)
    assert N.hs_norm(single, 2.0) == pytest.approx(1.0, rel=1e-14)
    pair = N.NoiseOperator(2, [1.0, 1.0], 2.0)
    assert N.hs_norm(pair, 2.0) == pytest.approx(np.sqrt(2.0), rel=1e-14)


@pytest.mark.parametrize("clamp", [None, 0.5])
def test_hs_norm_takes_arrays(clamp):
    # the clamp bites on part of the norms; additive noise gives one number
    op = N.NoiseOperator(4, N.gains_inverse_k(4, 1.0), 1.0, clamp=clamp)
    norms = np.array([0.0, 0.25, 0.5, 0.75, 3.0, 40.0])
    got = np.broadcast_to(N.hs_norm(op, norms), norms.shape)
    assert np.array_equal(got, [N.hs_norm(op, float(h)) for h in norms])


def test_gain_profiles_hit_the_budget():
    for n_w, c_b in ((1, 1.0), (8, 1.0), (16, 0.25)):
        b = N.gains_inverse_k(n_w, c_b)
        assert float(np.sum(b**2)) == pytest.approx(c_b, rel=1e-13)
        s = N.gains_single_mode(n_w, c_b, mode_index=n_w)
        assert float(np.sum(s**2)) == pytest.approx(c_b, rel=1e-13)
    with pytest.raises(ParameterError):
        N.gains_single_mode(4, 1.0, mode_index=5)


def test_budget_violation_rejected():
    with pytest.raises(ParameterError):
        N.NoiseOperator(2, [1.0, 1.0], 1.0)


def test_clamped_hs_norm_stays_within_budget():
    op = N.NoiseOperator(4, N.gains_inverse_k(4, 1.0), 1.0, clamp=0.5)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        v = F.random_fields_1d(1, 8, rng, scale=float(rng.uniform(0.0, 10.0)))[0]
        assert N.hs_norm(op, float(F.norms_h(v))) <= np.sqrt(1.0) + 1e-12
    # clamp really bites for large fields
    big = F.Field1D(np.full(8, 10.0))
    assert N.hs_norm(op, float(F.norms_h(big.coeffs))) < N.hs_norm(op, 0.0)


def _one_noise_step(op, n_modes, w):
    """Terminal rows of one heat step from zero, driven by increments ``w``
    of shape (P, n_w): B w damped by the implicit step."""
    model = M.heat_model(n_modes, op)
    cfg = S.SolverConfig(dt=0.01, horizon=0.01)
    block = S.solve_block(model, cfg, F.Field1D(np.zeros(n_modes)), 0,
                          range(len(w)), increments=w[None])
    return block.paths["terminal"] * (1.0 + cfg.dt * M.linear_eigenvalues(model))


def _basis_field(cutoff, n_w, j):
    """Basis field j of the torus noise basis as a dense spectrum
    (2, n, n), checked to be a real mean-free field."""
    support, amplitudes = F.TorusSpace(cutoff).noise_basis(n_w)
    n = 2 * cutoff + 1
    flat = np.zeros(2 * n * n, dtype=np.complex128)
    flat[support] = amplitudes[j]
    return F.check_spectra(flat.reshape(2, n, n))


def _torus_noise(cutoff, op, w):
    """B w on the support of the torus noise basis, one row per row of
    ``w`` (P, n_w): the entries ``TorusSpace.add_noise`` adds to zero
    states there."""
    n = 2 * cutoff + 1
    state = np.zeros((len(w), 2, n, n), dtype=np.complex128)
    F.TorusSpace(cutoff).add_noise(state, op, w)
    support, _ = F.TorusSpace(cutoff).noise_basis(op.n_w)
    return state.reshape(len(w), -1)[:, support]


def test_apply_noise_examples():
    op = N.NoiseOperator(3, [0.7, 0.2, 0.1], 1.0)
    zero, e1 = _one_noise_step(op, 6, np.array([[0.0, 0.0, 0.0],
                                                [1.0, 0.0, 0.0]]))
    assert not np.any(zero)
    assert np.allclose(e1, [0.7, 0.0, 0.0, 0.0, 0.0, 0.0], rtol=1e-15, atol=0.0)
    _, amplitudes = F.TorusSpace(2).noise_basis(3)
    zero, e1 = _torus_noise(2, op, np.array([[0.0, 0.0, 0.0],
                                             [1.0, 0.0, 0.0]]))
    assert not np.any(zero)
    assert np.array_equal(e1, 0.7 * amplitudes[0])


def test_apply_noise_linearity():
    op = N.NoiseOperator(4, N.gains_inverse_k(4, 1.0), 1.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        w1 = rng.standard_normal(4)
        w2 = rng.standard_normal(4)
        joint, one, two = _one_noise_step(op, 8, np.array([w1 + w2, w1, w2]))
        assert np.max(np.abs(joint - one - two)) <= 1e-12
        joint, one, two = _torus_noise(3, op, np.array([w1 + w2, w1, w2]))
        assert np.max(np.abs(joint - one - two)) <= 1e-12


def test_apply_noise_rejects_dimension_mismatch():
    op = N.NoiseOperator(3, [1.0, 0.0, 0.0], 1.0)
    with pytest.raises(ParameterError):
        _one_noise_step(op, 6, np.zeros((1, 2)))


def test_2d_noise_basis_is_orthonormal_and_divergence_free():
    cutoff, n_w = 4, 8
    fields = [_basis_field(cutoff, n_w, j) for j in range(n_w)]
    for j, fj in enumerate(fields):
        assert O.divergence_linf(fj) <= 1e-12
        for i, fi in enumerate(fields):
            want = 1.0 if i == j else 0.0
            assert F.inners_h(fi, fj) == pytest.approx(want, abs=1e-12)


def test_top_raw_words_give_finite_normals():
    # The top 2^11 raw words would map to a uniform of exactly 1.0, where the
    # inverse CDF is +inf; they are clamped to the largest uniform below 1.
    top = np.array([2**64 - 1, 2**64 - 2**10, 2**64 - 2**11], dtype=np.uint64)
    z = N._normals_from_raw(top)
    assert np.all(np.isfinite(z))
    assert np.all(z == N.ndtri(1.0 - 2.0**-53))
    # every lower word keeps its unclamped normal, bitwise
    below = np.array([2**64 - 2**11 - 1, 2**64 - 2**12, 2**63, 2**11, 0],
                     dtype=np.uint64)
    u = ((below >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    assert np.all(u < 1.0 - 2.0**-53)
    assert np.array_equal(N._normals_from_raw(below), N.ndtri(u))
    assert np.all(np.isfinite(N._normals_from_raw(below)))
