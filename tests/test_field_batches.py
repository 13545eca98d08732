"""Batched random fields, norm suites, energy suites and hypothesis audits.

Each batched path is compared bitwise with a reference in ``oracles`` that
handles one field per Python iteration with numpy's single-field norms.
Counts one past ``SUITE_CHUNK`` put a one-field tail chunk behind full ones.
"""

import numpy as np
import pytest

from tci_spde import fields as F
from tci_spde import models as M
from tci_spde import noise as N

import oracles as O

CHUNK = F.SUITE_CHUNK


def _noise_1d(clamp=None):
    return N.NoiseOperator(4, N.gains_inverse_k(4, 1.0), 1.0, clamp=clamp)


def _models():
    return {
        "heat": M.heat_model(12, _noise_1d()),
        "heat_clamped": M.heat_model(12, _noise_1d(clamp=0.5)),
        "burgers": M.burgers_model(16, _noise_1d()),
        "ns2d": M.ns2d_model(4, 0.2, _noise_1d()),
    }


@pytest.mark.parametrize("count", [1, 3, CHUNK + 1])
def test_random_fields_1d_match_single_draws(count):
    batch = F.random_fields_1d(count, 9, np.random.default_rng(count))
    rng = np.random.default_rng(count)
    ref = np.stack([O.field_1d(9, rng) for _ in range(count)])
    assert np.array_equal(batch, ref)


@pytest.mark.parametrize("count", [1, 3, CHUNK + 1])
def test_random_fields_2d_match_single_draws(count):
    batch = F.random_fields_2d(count, 5, np.random.default_rng(count))
    rng = np.random.default_rng(count)
    ref = np.stack([O.field_2d(5, rng) for _ in range(count)])
    assert np.array_equal(batch, ref)


def test_random_fields_take_one_scale_per_field():
    scales = np.array([1.0, 1e-4, 3.0])
    batch_2d = F.random_fields_2d(3, 3, np.random.default_rng(1), scale=scales)
    batch_1d = F.random_fields_1d(3, 7, np.random.default_rng(2), scale=scales)
    rng_2d, rng_1d = np.random.default_rng(1), np.random.default_rng(2)
    assert np.array_equal(batch_2d, [O.field_2d(3, rng_2d, scale=s) for s in scales])
    assert np.array_equal(batch_1d, [O.field_1d(7, rng_1d, scale=s) for s in scales])


def test_single_field_draws_are_the_batch_at_count_one():
    a, b = np.random.default_rng(4), np.random.default_rng(4)
    assert np.array_equal(F.random_fields_2d(1, 6, a)[0], O.field_2d(6, b))
    assert np.array_equal(F.random_fields_1d(1, 6, a)[0], O.field_1d(6, b))


def test_check_spectra_checks_every_field_of_a_batch():
    specs = F.random_fields_2d(4, 3, np.random.default_rng(0))
    assert F.check_spectra(specs) is specs
    bad = specs.copy()
    bad[2, 0, 1, 2] += 1e-3j  # breaks the symmetry of one field only
    with pytest.raises(F.InvalidFieldError, match="Hermitian"):
        F.check_spectra(bad)
    mean = specs.copy()
    mean[3, 1, 3, 3] = 1e-3
    with pytest.raises(F.InvalidFieldError, match="mean"):
        F.check_spectra(mean)
    nan = specs.copy()
    nan[0, 0, 0, 0] = np.nan
    with pytest.raises(F.InvalidFieldError, match="non-finite"):
        F.check_spectra(nan)


@pytest.mark.parametrize("kind", ["1d", "2d"])
def test_batched_norms_match_single_field_numpy(kind):
    rng = np.random.default_rng(11)
    if kind == "1d":
        a = F.random_fields_1d(CHUNK + 1, 10, rng)
    else:
        a = F.random_fields_2d(CHUNK + 1, 4, rng)
    b = a[::-1].copy()
    space = F.space_of(a)
    assert np.array_equal(F.norms_h(a), [O.norm_h(f) for f in a])
    for w in (1.0, O.v_weights(a[0]), O.vstar_weights(a[0])):
        assert np.array_equal(space.sq_norms(a, w), [O.sq_norm(f, w) for f in a])
    assert np.array_equal(np.transpose(space.grid_moments(a)),
                          [O.grid_moments(f) for f in a])
    assert np.array_equal(F.inners_h(a, b), [O.inner_h(x, y) for x, y in zip(a, b)])
    assert np.array_equal(F.inners_h(a, b[0]), [O.inner_h(x, b[0]) for x in a])


def test_norm_terms_2d_match_per_field_norms():
    n_fields = 2 * CHUNK + 5
    terms = F._suite_terms(F.TorusSpace(3), n_fields, np.random.default_rng(5))
    ref = O.norm_terms_2d(n_fields, 3, np.random.default_rng(5))
    assert np.array_equal(np.array(terms), ref)


def test_norm_suite_2d_matches_per_field_loop():
    n_fields = CHUNK + 1
    report = F.norm_inequality_suite(F.TorusSpace(4), n_fields,
                                     np.random.default_rng(6))
    assert report == O.norm_suite("2d", n_fields, 4, np.random.default_rng(6))


def test_norm_suite_1d_matches_per_field_loop():
    n_fields = CHUNK + 1
    report = F.norm_inequality_suite(F.SineSpace(24), n_fields,
                                     np.random.default_rng(8))
    assert report == O.norm_suite("1d", n_fields, 24, np.random.default_rng(8))


def test_norm_terms_1d_match_per_field_products():
    n_fields = 2 * CHUNK + 5
    terms = F._suite_terms(F.SineSpace(24), n_fields, np.random.default_rng(7))
    ref = O.norm_terms_1d(n_fields, 24, np.random.default_rng(7))
    assert np.array_equal(np.array(terms), ref)


def test_norm_terms_1d_do_not_depend_on_the_chunk(monkeypatch):
    # 517 fields in chunks of 64 leave a 5-field tail, whose products a
    # shape-dependent BLAS kernel would round apart from one 517-row product
    chunked = F._suite_terms(F.SineSpace(32), 517, np.random.default_rng(9))
    monkeypatch.setattr(F, "SUITE_CHUNK", 517)
    assert F.suite_chunks(517) == [517]
    whole = F._suite_terms(F.SineSpace(32), 517, np.random.default_rng(9))
    assert np.array_equal(np.array(chunked), np.array(whole))


@pytest.mark.parametrize("name", ["heat", "burgers", "ns2d"])
@pytest.mark.parametrize("tol", [1e-10, 0.0])
def test_energy_suite_matches_per_field_loop(name, tol):
    # tol = 0 counts every field whose rounding residual is nonzero, so a
    # field left out of the batches changes the count.
    model = _models()[name]
    got = M.nonlinearity_energy_suite(model, CHUNK + 3, experiment_seed=2, tol=tol)
    assert got == O.energy_suite(model, CHUNK + 3, 2, tol=tol)


@pytest.mark.parametrize("name", ["heat", "heat_clamped", "burgers", "ns2d"])
def test_audit_matches_per_field_loop(name):
    model = _models()[name]
    got = M.audit_hypotheses(model, n_samples=20, experiment_seed=3)
    assert got == O.audit(model, 20, 3)
