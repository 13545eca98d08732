"""Spectral function spaces, norms, and the projection operators."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tci_spde import fields as F
from tci_spde.errors import InvalidFieldError
from tci_spde.models import ETA_1D, ETA_2D, taylor_green_field

import oracles as orc


S4 = F.SineSpace(4)


def sin_pi_x():
    # sin(pi x) = (1/sqrt 2) e_1 in the orthonormal sine basis
    return S4.check([2.0**-0.5, 0.0, 0.0, 0.0])


def norm_h(space, raw):
    return float(np.sqrt(space.sq_norms(raw)))


def quadrature_norm_h(space, raw):
    """L^2 norm on the physical grid of the L^4 norms, for Parseval checks."""
    return float(np.sqrt(space.grid_moments(raw)[0]))


def v_sq(space, raw):
    return float(space.sq_norms(raw, space.laplacian_eigenvalues()))


def l4_fourth(space, raw):
    """int |v|^4 on the quadrature grid of the space."""
    return float(space.grid_moments(raw)[1])


def sin_2pi_x():
    return S4.check([0.0, 2.0**-0.5, 0.0, 0.0])


def lowest_mode_2d(amplitude=1.0):
    """Divergence-free field supported on k = (1, 0) and its mirror, both
    in the stored k2 = 0 column."""
    K = 1
    spec = np.zeros((2, 3, 2), dtype=np.complex128)
    spec[1, K + 1, 0] = amplitude  # u_hat((1,0)) = (0, a), perpendicular to k
    spec[1, K - 1, 0] = amplitude
    return F.TorusSpace(K).check(spec)


# ---------------------------------------------------------------------------
# norms


def test_norm_h_zero_field():
    assert norm_h(F.SineSpace(8), np.zeros(8)) == 0.0


def test_norm_h_sine():
    assert norm_h(S4, sin_pi_x()) == pytest.approx(np.sqrt(0.5), rel=1e-14)


def test_norm_h_basis_element():
    e1 = F.SineSpace(3).check([1.0, 0.0, 0.0])
    assert norm_h(F.SineSpace(3), e1) == 1.0


def test_norm_v_values():
    assert v_sq(S4, np.zeros(4)) == 0.0
    assert v_sq(S4, sin_pi_x()) == pytest.approx(np.pi**2 / 2.0, rel=1e-14)
    assert v_sq(S4, sin_2pi_x()) == pytest.approx(2.0 * np.pi**2, rel=1e-14)


def test_norm_l4_sine():
    # integral of sin^4(pi x) over [0, 1] is 3/8
    assert l4_fourth(S4, sin_pi_x()) == pytest.approx(3.0 / 8.0, rel=1e-13)
    assert l4_fourth(S4, np.zeros(4)) == 0.0


def test_norm_l4_homogeneity():
    rng = np.random.default_rng(3)
    space = F.SineSpace(12)
    v = space.draw(1, rng)[0]
    assert l4_fourth(space, 2.0 * v) == pytest.approx(16.0 * l4_fourth(space, v),
                                                      rel=1e-13)


def test_norm_h_matches_quadrature_parseval():
    rng = np.random.default_rng(11)
    for space, count in ((F.SineSpace(24), 50), (F.TorusSpace(6), 20)):
        for _ in range(count):
            v = space.check(space.draw(1, rng)[0])
            assert quadrature_norm_h(space, v) == pytest.approx(
                norm_h(space, v), rel=1e-12)


def test_invalid_fields_rejected():
    with pytest.raises(InvalidFieldError):
        F.SineSpace(2).check([1.0, np.nan])
    with pytest.raises(InvalidFieldError):
        F.SineSpace(2).check(np.zeros((2, 2)))
    bad = np.zeros((2, 3, 2), dtype=np.complex128)
    bad[0, 2, 0] = 1.0j  # (1, 0) without its conjugate at (-1, 0)
    with pytest.raises(InvalidFieldError, match="Hermitian"):
        F.TorusSpace(1).check(bad)
    mean = np.zeros((2, 3, 2), dtype=np.complex128)
    mean[0, 1, 0] = 1.0
    with pytest.raises(InvalidFieldError, match="mean"):
        F.TorusSpace(1).check(mean)
    # a valid field in the whole (2, 2K+1, 2K+1) layout is not a state
    with pytest.raises(InvalidFieldError, match="half-spectrum"):
        F.TorusSpace(1).check(orc.full_block(lowest_mode_2d()))


# ---------------------------------------------------------------------------
# Poincare ratio ||v||_V^2 / ||v||_H^2 on eigenfunctions


def poincare_ratio(space, raw):
    return v_sq(space, raw) / float(space.sq_norms(raw))


def test_poincare_audit_first_mode():
    ratio = poincare_ratio(S4, sin_pi_x())
    assert ratio >= ETA_1D
    assert ratio == pytest.approx(np.pi**2, rel=1e-13)


def test_poincare_audit_second_mode():
    ratio = poincare_ratio(S4, sin_2pi_x())
    assert ratio >= ETA_1D
    assert ratio == pytest.approx(4.0 * np.pi**2, rel=1e-13)


def test_poincare_audit_2d_lowest_mode():
    ratio = poincare_ratio(F.TorusSpace(1), lowest_mode_2d())
    assert ratio >= ETA_2D
    assert ratio == pytest.approx(4.0 * np.pi**2, rel=1e-13)


# ---------------------------------------------------------------------------
# helmholtz (Leray) projection


def _hermitian_scalar(cutoff, rng):
    """The k2 >= 0 half of a random real mean-free scalar spectrum."""
    n = 2 * cutoff + 1
    s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    s = 0.5 * (s + np.conj(s[::-1, ::-1]))
    s[cutoff, cutoff] = 0.0
    return s[:, cutoff:]


def _half_wavevectors(cutoff):
    k1 = np.arange(-cutoff, cutoff + 1, dtype=np.float64)[:, None] \
        * np.ones((1, cutoff + 1))
    k2 = np.ones((2 * cutoff + 1, 1)) * np.arange(cutoff + 1, dtype=np.float64)
    return k1, k2


def test_helmholtz_kills_gradient_fields():
    rng = np.random.default_rng(5)
    for cutoff in (1, 3, 6):
        k1, k2 = _half_wavevectors(cutoff)
        phi = _hermitian_scalar(cutoff, rng)
        space = F.TorusSpace(cutoff)
        grad = space.check(np.stack([1j * k1 * phi, 1j * k2 * phi]))
        out = F._leray(grad)
        assert norm_h(space, out) <= 1e-12 * max(norm_h(space, grad), 1.0)


def test_helmholtz_fixed_point_on_divergence_free():
    tg = taylor_green_field(4, 0.7)
    assert np.array_equal(F._leray(tg), tg)


def test_helmholtz_named_mixed_example():
    # u = (sin(2 pi y) + dphi/dx, dphi/dy) must project to (sin(2 pi y), 0)
    cutoff = 2
    k1, k2 = _half_wavevectors(cutoff)
    phi = _hermitian_scalar(cutoff, np.random.default_rng(9))
    spec = np.stack([1j * k1 * phi, 1j * k2 * phi])
    target = np.zeros_like(spec)
    # sin(2 pi y): exponential amplitudes -i/2 at (0, 1), +i/2 at the
    # unstored (0, -1)
    target[0, cutoff, 1] = -0.5j
    spec = spec + target
    out = F._leray(F.TorusSpace(cutoff).check(spec))
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


def laplacian(space, raw):
    return -space.laplacian_eigenvalues() * raw


def test_laplacian_eigenfunctions():
    lap1 = laplacian(S4, sin_pi_x())
    assert np.allclose(lap1, -np.pi**2 * sin_pi_x(), rtol=1e-14)
    lap2 = laplacian(S4, sin_2pi_x())
    assert np.allclose(lap2, -4.0 * np.pi**2 * sin_2pi_x(), rtol=1e-14)


def test_laplacian_linearity():
    rng = np.random.default_rng(23)
    space = F.SineSpace(16)
    a, b = space.draw(2, rng)
    combined = laplacian(space, 2.0 * a - 3.0 * b)
    separate = 2.0 * laplacian(space, a) - 3.0 * laplacian(space, b)
    assert np.max(np.abs(combined - separate)) <= 1e-12 * max(
        1.0, float(np.max(np.abs(separate)))
    )


def test_laplacian_2d_eigenfunction():
    u = lowest_mode_2d()
    assert np.allclose(laplacian(F.TorusSpace(1), u), -((2.0 * np.pi) ** 2) * u,
                       rtol=1e-14)


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
@example(np.array([2.12741406e-162]))
@settings(max_examples=200, deadline=None)
def test_poincare_property_1d(coeffs):
    space = F.SineSpace(len(coeffs))
    h_sq = float(space.sq_norms(coeffs))
    if h_sq == 0.0:
        return
    # In the subnormal range each term of the two kernel sums is rounded to
    # a multiple of the smallest subnormal s, which moves pi^2 ||v||_H^2 by
    # up to pi^2 s / 2 and ||v||_V^2 by up to s / 2 per mode; above that
    # range the floor is negligible.
    floor = (np.pi**2 + 1.0) * len(coeffs) * np.finfo(float).smallest_subnormal
    assert v_sq(space, coeffs) >= (np.pi**2) * h_sq * (1.0 - 1e-12) - floor


@given(coeff_arrays)
@settings(max_examples=100, deadline=None)
def test_l4_interpolation_property(coeffs):
    space = F.SineSpace(len(coeffs))
    lhs = l4_fourth(space, coeffs)
    rhs = 4.0 * float(space.sq_norms(coeffs)) * v_sq(space, coeffs)
    assert lhs <= rhs * (1.0 + 1e-10) + 1e-12


@given(coeff_arrays)
@settings(max_examples=100, deadline=None)
def test_parseval_property(coeffs):
    space = F.SineSpace(len(coeffs))
    v = space.check(coeffs)
    spectral = norm_h(space, v)
    quad = quadrature_norm_h(space, v)
    assert abs(spectral - quad) <= 1e-12 * max(1.0, spectral)
