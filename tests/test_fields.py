"""Spectral field containers, norms, and the projection operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tci_spde import fields as F
from tci_spde.errors import InvalidFieldError
from tci_spde.models import ETA_1D, ETA_2D, taylor_green_field

import oracles as orc


def sin_pi_x():
    # sin(pi x) = (1/sqrt 2) e_1 in the orthonormal sine basis
    return F.Field1D([2.0**-0.5, 0.0, 0.0, 0.0])


def raw_of(field):
    return field.coeffs if isinstance(field, F.Field1D) else field.spec


def quadrature_norm_h(field):
    """L^2 norm on the physical grid of the L^4 norms, for Parseval checks."""
    raw = raw_of(field)
    return float(np.sqrt(F.space_of(raw).grid_moments(raw)[0]))


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
    assert F.norms_h(np.zeros(8)) == 0.0


def test_norm_h_sine():
    assert F.norms_h(sin_pi_x().coeffs) == pytest.approx(np.sqrt(0.5), rel=1e-14)


def test_norm_h_basis_element():
    e1 = F.Field1D([1.0, 0.0, 0.0])
    assert F.norms_h(e1.coeffs) == 1.0


def test_norm_v_values():
    assert F.norms_v(np.zeros(4)) == 0.0
    assert F.norms_v(sin_pi_x().coeffs) == pytest.approx(np.pi / np.sqrt(2.0), rel=1e-14)
    assert F.norms_v(sin_2pi_x().coeffs) == pytest.approx(2.0 * np.pi * np.sqrt(0.5),
                                                          rel=1e-14)


def test_norm_l4_sine():
    # integral of sin^4(pi x) over [0, 1] is 3/8
    assert F.norms_l4(sin_pi_x().coeffs) == pytest.approx((3.0 / 8.0) ** 0.25, rel=1e-13)
    assert F.norms_l4(np.zeros(4)) == 0.0


def test_norm_l4_homogeneity():
    rng = np.random.default_rng(3)
    v = F.random_fields_1d(1, 12, rng)[0]
    assert F.norms_l4(2.0 * v) == pytest.approx(2.0 * F.norms_l4(v), rel=1e-13)


def test_norm_h_matches_quadrature_parseval():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = F.Field1D(F.random_fields_1d(1, 24, rng)[0])
        assert quadrature_norm_h(v) == pytest.approx(float(F.norms_h(v.coeffs)),
                                                     rel=1e-12)
    for _ in range(20):
        u = F.Field2D(F.random_fields_2d(1, 6, rng)[0])
        assert quadrature_norm_h(u) == pytest.approx(float(F.norms_h(u.spec)),
                                                     rel=1e-12)


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
# Poincare ratio ||v||_V^2 / ||v||_H^2 on eigenfunctions


def poincare_ratio(field):
    raw = raw_of(field)
    return float((F.norms_v(raw) / F.norms_h(raw)) ** 2)


def test_poincare_audit_first_mode():
    ratio = poincare_ratio(sin_pi_x())
    assert ratio >= ETA_1D
    assert ratio == pytest.approx(np.pi**2, rel=1e-13)


def test_poincare_audit_second_mode():
    ratio = poincare_ratio(sin_2pi_x())
    assert ratio >= ETA_1D
    assert ratio == pytest.approx(4.0 * np.pi**2, rel=1e-13)


def test_poincare_audit_2d_lowest_mode():
    ratio = poincare_ratio(lowest_mode_2d())
    assert ratio >= ETA_2D
    assert ratio == pytest.approx(4.0 * np.pi**2, rel=1e-13)


# ---------------------------------------------------------------------------
# helmholtz (Leray) projection


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
        grad = F.Field2D(np.stack([1j * k1 * phi, 1j * k2 * phi])).spec
        out = F._leray(grad)
        assert F.norms_h(out) <= 1e-12 * max(F.norms_h(grad), 1.0)


def test_helmholtz_fixed_point_on_divergence_free():
    tg = taylor_green_field(4, 0.7)
    assert np.array_equal(F._leray(tg.spec), tg.spec)


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
    out = F._leray(F.Field2D(spec).spec)
    assert np.max(np.abs(out - target)) <= 1e-12


def test_helmholtz_idempotent_exactly():
    rng = np.random.default_rng(13)
    for _ in range(100):
        u = F.random_fields_2d(1, int(rng.integers(1, 9)), rng)[0]
        once = F._leray(u)
        twice = F._leray(once)
        assert np.array_equal(once, twice)


def test_helmholtz_output_divergence_free():
    rng = np.random.default_rng(17)
    for _ in range(50):
        u = F.random_fields_2d(1, 5, rng)[0]
        out = F._leray(u)
        assert orc.divergence_linf(out) <= 1e-12 * max(1.0, float(np.max(np.abs(u))))


# ---------------------------------------------------------------------------
# laplacian: mode k scaled by -(k pi)^2 or -(2 pi |k|)^2


def laplacian(raw):
    return -F.space_of(raw).laplacian_eigenvalues() * raw


def test_laplacian_eigenfunctions():
    lap1 = laplacian(sin_pi_x().coeffs)
    assert np.allclose(lap1, -np.pi**2 * sin_pi_x().coeffs, rtol=1e-14)
    lap2 = laplacian(sin_2pi_x().coeffs)
    assert np.allclose(lap2, -4.0 * np.pi**2 * sin_2pi_x().coeffs, rtol=1e-14)


def test_laplacian_linearity():
    rng = np.random.default_rng(23)
    a, b = F.random_fields_1d(2, 16, rng)
    combined = laplacian(2.0 * a - 3.0 * b)
    separate = 2.0 * laplacian(a) - 3.0 * laplacian(b)
    assert np.max(np.abs(combined - separate)) <= 1e-12 * max(
        1.0, float(np.max(np.abs(separate)))
    )


def test_laplacian_2d_eigenfunction():
    u = lowest_mode_2d().spec
    assert np.allclose(laplacian(u), -((2.0 * np.pi) ** 2) * u, rtol=1e-14)


# ---------------------------------------------------------------------------
# inequality suites (smaller draws here; acceptance runs the full 1000)


def test_norm_inequality_suite_1d_clean():
    report = F.norm_inequality_suite(F.SineSpace(24), 200, np.random.default_rng(0))
    assert report["n_fields"] == 200
    for part in ("poincare", "l4_interpolation", "parseval"):
        assert report[part]["violations"] == 0
    assert report["poincare"]["worst_ratio"] >= np.pi**2 - 1e-9


def test_norm_inequality_suite_2d_clean():
    report = F.norm_inequality_suite(F.TorusSpace(6), 100, np.random.default_rng(0))
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
    h = float(F.norms_h(coeffs))
    if h == 0.0:
        return
    assert float(F.norms_v(coeffs)) ** 2 >= (np.pi**2) * h**2 * (1.0 - 1e-12)


@given(coeff_arrays)
@settings(max_examples=100, deadline=None)
def test_l4_interpolation_property(coeffs):
    lhs = float(F.norms_l4(coeffs)) ** 4
    rhs = 4.0 * float(F.norms_h(coeffs)) ** 2 * float(F.norms_v(coeffs)) ** 2
    assert lhs <= rhs * (1.0 + 1e-10) + 1e-12


@given(coeff_arrays)
@settings(max_examples=100, deadline=None)
def test_parseval_property(coeffs):
    v = F.Field1D(coeffs)
    spectral = float(F.norms_h(v.coeffs))
    quad = quadrature_norm_h(v)
    assert abs(spectral - quad) <= 1e-12 * max(1.0, spectral)
