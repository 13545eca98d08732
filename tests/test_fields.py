"""Spectral field containers, norms, and the projection operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tci_spde import fields as F
from tci_spde.errors import InvalidFieldError, ResolutionError
from tci_spde.models import ETA_1D, ETA_2D, taylor_green_field


def sin_pi_x():
    # sin(pi x) = (1/sqrt 2) e_1 in the orthonormal sine basis
    return F.Field1D([2.0**-0.5, 0.0, 0.0, 0.0])


def quadrature_norm_h(field):
    """L^2 norm on the physical grid of the L^4 norms, for Parseval checks."""
    return float(np.sqrt(F._quadrature_moments(field.space.raw(field))[0]))


def sin_2pi_x():
    return F.Field1D([0.0, 2.0**-0.5, 0.0, 0.0])


def lowest_mode_2d(amplitude=1.0):
    """Divergence-free field supported on k = (1, 0) and its mirror."""
    K = 1
    spec = np.zeros((2, 3, 3), dtype=np.complex128)
    spec[1, K + 1, K] = amplitude  # u_hat((1,0)) = (0, a), perpendicular to k
    spec[1, K - 1, K] = amplitude
    return F.Field2D(spec)


# ---------------------------------------------------------------------------
# norms


def test_norm_h_zero_field():
    assert F.norm_h(F.Field1D(np.zeros(8))) == 0.0


def test_norm_h_sine():
    assert F.norm_h(sin_pi_x()) == pytest.approx(np.sqrt(0.5), rel=1e-14)


def test_norm_h_basis_element():
    e1 = F.Field1D([1.0, 0.0, 0.0])
    assert F.norm_h(e1) == 1.0


def test_norm_v_values():
    assert F.norm_v(F.Field1D(np.zeros(4))) == 0.0
    assert F.norm_v(sin_pi_x()) == pytest.approx(np.pi / np.sqrt(2.0), rel=1e-14)
    assert F.norm_v(sin_2pi_x()) == pytest.approx(2.0 * np.pi * np.sqrt(0.5), rel=1e-14)


def test_norm_l4_sine():
    # integral of sin^4(pi x) over [0, 1] is 3/8
    assert F.norm_l4(sin_pi_x()) == pytest.approx((3.0 / 8.0) ** 0.25, rel=1e-13)
    assert F.norm_l4(F.Field1D(np.zeros(4))) == 0.0


def test_norm_l4_homogeneity():
    rng = np.random.default_rng(3)
    v = F.random_field_1d(12, rng)
    doubled = F.Field1D(2.0 * v.coeffs)
    assert F.norm_l4(doubled) == pytest.approx(2.0 * F.norm_l4(v), rel=1e-13)


def test_norm_l4_rejects_coarse_quadrature():
    quad = F.Quadrature(n_points=16)
    with pytest.raises(ResolutionError):
        F.norm_l4(F.Field1D(np.zeros(8)), quad=quad)


def test_norm_h_matches_quadrature_parseval():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = F.random_field_1d(24, rng)
        assert quadrature_norm_h(v) == pytest.approx(F.norm_h(v), rel=1e-12)
    for _ in range(20):
        u = F.random_field_2d(6, rng)
        assert quadrature_norm_h(u) == pytest.approx(F.norm_h(u), rel=1e-12)


def test_invalid_fields_rejected():
    with pytest.raises(InvalidFieldError):
        F.Field1D([1.0, np.nan])
    with pytest.raises(InvalidFieldError):
        F.Field1D(np.zeros((2, 2)))
    bad = np.zeros((2, 3, 3), dtype=np.complex128)
    bad[0, 2, 2] = 1.0j  # breaks Hermitian symmetry
    with pytest.raises(InvalidFieldError):
        F.Field2D(bad)
    mean = np.zeros((2, 3, 3), dtype=np.complex128)
    mean[0, 1, 1] = 1.0
    with pytest.raises(InvalidFieldError):
        F.Field2D(mean)


# ---------------------------------------------------------------------------
# poincare_audit


def test_poincare_audit_first_mode():
    passed, ratio = F.poincare_audit(sin_pi_x(), ETA_1D)
    assert passed
    assert ratio == pytest.approx(np.pi**2, rel=1e-13)


def test_poincare_audit_second_mode():
    passed, ratio = F.poincare_audit(sin_2pi_x(), ETA_1D)
    assert passed
    assert ratio == pytest.approx(4.0 * np.pi**2, rel=1e-13)


def test_poincare_audit_2d_lowest_mode():
    passed, ratio = F.poincare_audit(lowest_mode_2d(), ETA_2D)
    assert passed
    assert ratio == pytest.approx(4.0 * np.pi**2, rel=1e-13)


def test_poincare_audit_zero_field_rejected():
    with pytest.raises(InvalidFieldError):
        F.poincare_audit(F.Field1D(np.zeros(4)), ETA_1D)


# ---------------------------------------------------------------------------
# helmholtz projection


def _hermitian_scalar(cutoff, rng):
    n = 2 * cutoff + 1
    s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    s = 0.5 * (s + np.conj(s[::-1, ::-1]))
    s[cutoff, cutoff] = 0.0
    return s


def test_helmholtz_kills_gradient_fields():
    rng = np.random.default_rng(5)
    for cutoff in (1, 3, 6):
        k = np.arange(-cutoff, cutoff + 1, dtype=np.float64)
        k1 = k[:, None] * np.ones((1, k.size))
        k2 = np.ones((k.size, 1)) * k[None, :]
        phi = _hermitian_scalar(cutoff, rng)
        grad = F.Field2D(np.stack([1j * k1 * phi, 1j * k2 * phi]))
        out = F.helmholtz_project(grad)
        assert F.norm_h(out) <= 1e-12 * max(F.norm_h(grad), 1.0)


def test_helmholtz_fixed_point_on_divergence_free():
    tg = taylor_green_field(4, 0.7)
    assert np.array_equal(F.helmholtz_project(tg).spec, tg.spec)


def test_helmholtz_named_mixed_example():
    # u = (sin(2 pi y) + dphi/dx, dphi/dy) must project to (sin(2 pi y), 0)
    cutoff = 2
    k = np.arange(-cutoff, cutoff + 1, dtype=np.float64)
    k1 = k[:, None] * np.ones((1, k.size))
    k2 = np.ones((k.size, 1)) * k[None, :]
    phi = _hermitian_scalar(cutoff, np.random.default_rng(9))
    spec = np.stack([1j * k1 * phi, 1j * k2 * phi])
    target = np.zeros_like(spec)
    # sin(2 pi y): exponential amplitudes -i/2 at (0, 1), +i/2 at (0, -1)
    target[0, cutoff, cutoff + 1] = -0.5j
    target[0, cutoff, cutoff - 1] = 0.5j
    spec = spec + target
    out = F.helmholtz_project(F.Field2D(spec))
    assert np.max(np.abs(out.spec - target)) <= 1e-12


def test_helmholtz_idempotent_exactly():
    rng = np.random.default_rng(13)
    for _ in range(100):
        u = F.random_field_2d(int(rng.integers(1, 9)), rng)
        once = F.helmholtz_project(u)
        twice = F.helmholtz_project(once)
        assert np.array_equal(once.spec, twice.spec)


def test_helmholtz_output_divergence_free():
    rng = np.random.default_rng(17)
    for _ in range(50):
        u = F.random_field_2d(5, rng)
        out = F.helmholtz_project(u)
        assert F.divergence_linf(out) <= 1e-12 * max(1.0, float(np.max(np.abs(u.spec))))


# ---------------------------------------------------------------------------
# laplacian


def test_laplacian_eigenfunctions():
    lap1 = F.laplacian_apply(sin_pi_x())
    assert np.allclose(lap1.coeffs, -np.pi**2 * sin_pi_x().coeffs, rtol=1e-14)
    lap2 = F.laplacian_apply(sin_2pi_x())
    assert np.allclose(lap2.coeffs, -4.0 * np.pi**2 * sin_2pi_x().coeffs, rtol=1e-14)


def test_laplacian_linearity():
    rng = np.random.default_rng(23)
    a = F.random_field_1d(16, rng)
    b = F.random_field_1d(16, rng)
    combined = F.laplacian_apply(F.Field1D(2.0 * a.coeffs - 3.0 * b.coeffs))
    separate = 2.0 * F.laplacian_apply(a).coeffs - 3.0 * F.laplacian_apply(b).coeffs
    assert np.max(np.abs(combined.coeffs - separate)) <= 1e-12 * max(
        1.0, float(np.max(np.abs(separate)))
    )


def test_laplacian_2d_eigenfunction():
    u = lowest_mode_2d()
    lap = F.laplacian_apply(u)
    assert np.allclose(lap.spec, -((2.0 * np.pi) ** 2) * u.spec, rtol=1e-14)


# ---------------------------------------------------------------------------
# inequality suites (smaller draws here; acceptance runs the full 1000)


def test_norm_inequality_suite_1d_clean():
    report = F.norm_inequality_suite_1d(200, 24, np.random.default_rng(0))
    assert report["n_fields"] == 200
    for part in ("poincare", "l4_interpolation", "parseval"):
        assert report[part]["violations"] == 0
    assert report["poincare"]["worst_ratio"] >= np.pi**2 - 1e-9


def test_norm_inequality_suite_2d_clean():
    report = F.norm_inequality_suite_2d(100, 6, np.random.default_rng(0))
    for part in ("poincare", "l4_interpolation", "parseval"):
        assert report[part]["violations"] == 0
    assert report["poincare"]["worst_ratio"] >= 4.0 * np.pi**2 - 1e-9


# ---------------------------------------------------------------------------
# property tests


coeff_arrays = arrays(
    np.float64,
    st.integers(min_value=1, max_value=12),
    elements=st.floats(-50.0, 50.0, allow_nan=False, width=64),
)


@given(coeff_arrays)
@settings(max_examples=200, deadline=None)
def test_poincare_property_1d(coeffs):
    v = F.Field1D(coeffs)
    h = F.norm_h(v)
    if h == 0.0:
        return
    assert F.norm_v(v) ** 2 >= (np.pi**2) * h**2 * (1.0 - 1e-12)


@given(coeff_arrays)
@settings(max_examples=100, deadline=None)
def test_l4_interpolation_property(coeffs):
    v = F.Field1D(coeffs)
    lhs = F.norm_l4(v) ** 4
    rhs = 4.0 * F.norm_h(v) ** 2 * F.norm_v(v) ** 2
    assert lhs <= rhs * (1.0 + 1e-10) + 1e-12


@given(coeff_arrays)
@settings(max_examples=100, deadline=None)
def test_parseval_property(coeffs):
    v = F.Field1D(coeffs)
    spectral = F.norm_h(v)
    quad = quadrature_norm_h(v)
    assert abs(spectral - quad) <= 1e-12 * max(1.0, spectral)
