"""Model drifts, hypothesis audits, and feasibility checks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tci_spde import fields as F
from tci_spde import models as M
from tci_spde import noise as N
from tci_spde.errors import ResolutionError

import oracles as orc


def noise_1d(n_w=4, c_b=1.0):
    return N.NoiseOperator(n_w, N.gains_inverse_k(n_w, c_b), c_b)


def noise_2d(n_w=4, c_b=0.01):
    return N.NoiseOperator(n_w, N.gains_inverse_k(n_w, c_b), c_b)


def test_heat_drift_is_the_laplacian():
    model = M.heat_model(8, noise_1d())
    v = np.array([2.0**-0.5] + [0.0] * 7)  # sin(pi x)
    out = M._drift(model, v)
    assert np.allclose(out, -np.pi**2 * v, rtol=1e-13)


def test_burgers_drift_oracle():
    # v = sin(2 pi x): Laplacian gives -4 pi^2 sin(2 pi x) and the
    # convection v dv/dx = pi sin(4 pi x), verified by hand quadrature
    model = M.burgers_model(16, noise_1d())
    coeffs = np.zeros(16)
    coeffs[1] = 2.0**-0.5
    out = M._drift(model, coeffs)
    expected = np.zeros(16)
    expected[1] = -4.0 * np.pi**2 * 2.0**-0.5
    expected[3] = np.pi * 2.0**-0.5
    assert np.max(np.abs(out - expected)) <= 1e-10


def test_burgers_drift_matches_quadrature_on_random_fields():
    model = M.burgers_model(12, noise_1d())
    rng = np.random.default_rng(4)
    n_points = 16 * 12
    for _ in range(10):
        v = F.random_fields_1d(1, 12, rng)[0]
        out = M._drift(model, v)
        vals = orc.sine_table(12, n_points) @ v
        dvals = orc.sine_derivative_values(v, n_points)
        lap = -model.space.laplacian_eigenvalues() * v
        conv = orc.sine_project(vals * dvals, 12)
        assert np.max(np.abs(out - lap - conv)) <= 1e-9


def test_ns2d_taylor_green_drift_is_purely_viscous():
    nu = 0.1
    model = M.ns2d_model(8, nu, noise_2d())
    tg = M.taylor_green_field(8, 1.0)
    out = M._drift(model, tg.spec)
    viscous = -model.space.laplacian_eigenvalues(nu) * tg.spec
    assert np.max(np.abs(out - viscous)) <= 1e-10


def triad_advection(spec):
    """-P[(u.grad)u] on one block by the direct sum over every triad
    p + q = k inside it: (u.grad)u at k is sum (u(p) . 2 pi i q) u(q)."""
    K = spec.shape[-1] // 2
    modes = range(-K, K + 1)
    adv = np.zeros_like(spec)
    for p1 in modes:
        for p2 in modes:
            up = spec[:, p1 + K, p2 + K]
            for q1 in modes:
                for q2 in modes:
                    k1, k2 = p1 + q1, p2 + q2
                    if abs(k1) > K or abs(k2) > K:
                        continue
                    slope = 2j * np.pi * (up[0] * q1 + up[1] * q2)
                    adv[:, k1 + K, k2 + K] += slope * spec[:, q1 + K, q2 + K]
    for k1 in modes:
        for k2 in modes:
            a = adv[:, k1 + K, k2 + K]
            if k1 == k2 == 0:
                a[:] = 0.0
            else:
                a -= np.array([k1, k2]) * (k1 * a[0] + k2 * a[1]) / (k1**2 + k2**2)
    return -adv


@pytest.mark.parametrize("batch", [1, 3])
def test_ns_advection_matches_triad_sum(batch):
    rng = np.random.default_rng(12 + batch)
    specs = np.stack([F.random_fields_2d(1, 3, rng)[0] for _ in range(batch)])
    out = M.ns_advection(specs, 3)
    assert out.shape == specs.shape
    for spec, got in zip(specs, out):
        ref = triad_advection(spec)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        # exactly Hermitian and mean-free, not only to rounding
        assert np.array_equal(got, np.conj(got[:, ::-1, ::-1]))
        assert np.all(got[:, 3, 3] == 0.0)


@pytest.mark.parametrize("cutoff", [8, 16])
def test_ns_advection_row_is_bitwise_the_same_alone_or_in_a_batch(cutoff):
    rng = np.random.default_rng(cutoff)
    specs = np.stack([F.random_fields_2d(1, cutoff, rng)[0] for _ in range(8)])
    batched = M.ns_advection(specs, cutoff)
    for spec, row in zip(specs, batched):
        assert np.array_equal(M.ns_advection(spec, cutoff), row)


def test_ns_advection_rejects_aliasing_grids():
    spec = F.random_fields_2d(1, 4, np.random.default_rng(1))[0]
    with pytest.raises(ResolutionError):
        M.ns_advection(spec, 4, n_grid=12)
    on_minimum = M.ns_advection(spec, 4, n_grid=13)
    assert np.max(np.abs(on_minimum - M.ns_advection(spec, 4))) <= 1e-12


def test_product_grids():
    assert [M.ns_product_grid(k) for k in (1, 3, 8, 16, 32)] == [4, 10, 25, 50, 100]
    assert M.burgers_product_grid(32) == 49


def test_burgers_product_grid_is_the_smallest_alias_free_one():
    n = 32
    coeffs = F.random_fields_1d(1, n, np.random.default_rng(6))[0]
    quartic = M.burgers_nonlinearity(coeffs, n_grid=4 * n)
    scale = np.max(np.abs(quartic))
    assert np.max(np.abs(M.burgers_nonlinearity(coeffs) - quartic)) <= 1e-12 * scale
    aliased = M.burgers_nonlinearity(coeffs, M.burgers_product_grid(n) - 1)
    assert np.max(np.abs(aliased - quartic)) > 1e-6


def test_model_constant_defaults():
    b = M.burgers_model(8, noise_1d())
    assert (b.constants.alpha, b.constants.theta, b.constants.beta) == (2.0, 1.5, 2.0)
    ns = M.ns2d_model(4, 0.2, noise_2d())
    assert ns.constants.theta == 0.2
    h = M.heat_model(8, noise_1d())
    assert h.constants.K2 == 0.0 and h.constants.K3 == 0.0


def test_rho_growth_bound():
    # rho(v) = ||v||_L4^4 <= 4 ||v||_H^2 ||v||_V^2 on random 1-D fields
    model = M.burgers_model(16, noise_1d())
    rng = np.random.default_rng(8)
    for _ in range(200):
        v = F.random_fields_1d(1, 16, rng)[0]
        space = model.space
        rho = model.rho_coefficient * float(space.grid_moments(v)[1])
        assert rho <= 4.0 * float(space.sq_norms(v)) \
            * float(space.sq_norms(v, space.laplacian_eigenvalues())) * (1.0 + 1e-10)


def test_audit_hypotheses_passes_for_all_models():
    heat = M.heat_model(16, noise_1d())
    burgers = M.burgers_model(16, noise_1d())
    ns = M.ns2d_model(6, 0.1, noise_2d())
    for model in (heat, burgers, ns):
        report = M.audit_hypotheses(model, n_samples=48, experiment_seed=0)
        assert report["pass"], report
        for part in ("hemicontinuity", "monotonicity", "coercivity",
                     "growth", "noise_bound"):
            assert report[part]["pass"], (model.kind, part, report[part])


def test_audit_is_deterministic():
    model = M.burgers_model(12, noise_1d())
    a = M.audit_hypotheses(model, n_samples=16, experiment_seed=5)
    b = M.audit_hypotheses(model, n_samples=16, experiment_seed=5)
    assert a == b
    c = M.audit_hypotheses(model, n_samples=16, experiment_seed=6)
    assert c != a


def test_heat_monotonicity_slack_is_nonnegative():
    # K2 = 0 for additive noise: slack is 2 ||v1 - v2||_V^2 >= 0
    report = M.audit_hypotheses(M.heat_model(16, noise_1d()), n_samples=32)
    assert report["monotonicity"]["worst_slack"] >= 0.0


def test_nonlinearity_energy_suites():
    burgers = M.burgers_model(16, noise_1d())
    rep1 = M.nonlinearity_energy_suite(burgers, 200, experiment_seed=0)
    assert rep1["violations"] == 0
    assert rep1["worst_energy"] <= 1e-10
    ns = M.ns2d_model(6, 0.1, noise_2d())
    rep2 = M.nonlinearity_energy_suite(ns, 100, experiment_seed=0)
    assert rep2["violations"] == 0


def test_t1_feasibility_reference_case():
    report = M.t1_feasibility(M.burgers_model(8, noise_1d()))
    assert report["feasible"]
    assert report["c_interval"] == [0.0, 1.0]
    assert report["theta_eta_minus_K3"] == pytest.approx(
        1.5 * np.sqrt(np.pi**2 - 1.0), rel=1e-13
    )


def test_t1_feasibility_rejects_bad_constants():
    model = M.heat_model(8, noise_1d())
    squeezed = dataclasses.replace(
        model, constants=dataclasses.replace(model.constants, theta=1.0, eta=1.0, K3=2.0)
    )
    report = M.t1_feasibility(squeezed)
    assert not report["feasible"]
    assert any("theta" in r for r in report["reasons"])
    assert report["theta_eta_minus_K3"] == pytest.approx(-1.0)

    odd_alpha = dataclasses.replace(
        model, constants=dataclasses.replace(model.constants, alpha=3.0)
    )
    report = M.t1_feasibility(odd_alpha)
    assert not report["feasible"]
    assert any("alpha" in r for r in report["reasons"])


def test_eta_constants():
    assert M.ETA_1D == pytest.approx(np.sqrt(np.pi**2 - 1.0), rel=1e-15)
    assert M.ETA_2D == pytest.approx(np.sqrt(2.0 * np.pi**2 - 1.0), rel=1e-15)


small_coeffs = arrays(
    np.float64,
    st.integers(min_value=1, max_value=10),
    elements=st.floats(-5.0, 5.0, allow_nan=False, width=64),
)


@given(small_coeffs)
@settings(max_examples=100, deadline=None)
def test_burgers_nonlinearity_energy_neutral(coeffs):
    model = M.burgers_model(coeffs.size, noise_1d(n_w=1))
    space = model.space
    scale = max(1.0, float(space.sq_norms(coeffs))
                * float(np.sqrt(space.sq_norms(coeffs, space.laplacian_eigenvalues()))))
    assert abs(float(M._energies(model, coeffs))) <= 1e-10 * scale
