"""Spectral function spaces for the SPDE laboratory.

One-dimensional fields live on [0, 1] with homogeneous Dirichlet
boundary conditions and are expanded in the orthonormal sine basis
e_k(x) = sqrt(2) sin(k pi x), k >= 1.  Two-dimensional fields are
real, mean-zero velocity fields on the periodic unit torus, held as
complex Fourier coefficients u_hat(k) in C^2 on the square wavevector
block |k|_inf <= cutoff with Hermitian symmetry u_hat(-k) = conj(u_hat(k)).

Norm conventions for the Gelfand triple V in H in V*:

* ``norm_h``      Parseval l2 norm of the coefficients (H = L^2),
* ``norm_v``      coefficients weighted by k*pi (1-D) or 2*pi*|k| (2-D),
* ``norm_vstar``  coefficients weighted by the inverse factors,
* ``norm_l4``     physical-space quadrature on an anti-aliased grid
                  (grid resolution at least 4x the modal resolution,
                  exact for the quartic trigonometric polynomials here).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidFieldError, ResolutionError

# Sharp Poincare constants for the squared embedding ||v||_V^2 >= C ||v||_H^2.
POINCARE_1D = np.pi**2
POINCARE_2D = 4.0 * np.pi**2

# Constants in the interpolation inequality ||v||_L4^4 <= C ||v||_H^2 ||v||_V^2.
L4_INTERPOLATION_1D = 4.0
L4_INTERPOLATION_2D = 2.0

_HERMITIAN_TOL = 1e-12


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class Quadrature:
    """Uniform-grid quadrature rule on [0, 1].

    ``midpoint`` uses nodes (j + 1/2)/n with equal weights, ``trapezoid``
    uses nodes j/(n-1) with endpoint weights halved.  Both integrate
    cos(m pi x) exactly for 0 <= m < 2 * resolution, which covers every
    quartic product of sine modes once the resolution is at least four
    times the modal cutoff.
    """

    n_points: int
    rule: str = "midpoint"

    def __post_init__(self):
        if self.rule not in ("midpoint", "trapezoid"):
            raise InvalidFieldError(f"unknown quadrature rule {self.rule!r}")
        if self.n_points < 2:
            raise ResolutionError("quadrature needs at least 2 points")

    @property
    def resolution(self) -> int:
        """Number of subintervals the rule resolves."""
        return self.n_points if self.rule == "midpoint" else self.n_points - 1

    def nodes(self) -> np.ndarray:
        if self.rule == "midpoint":
            return (np.arange(self.n_points) + 0.5) / self.n_points
        return np.linspace(0.0, 1.0, self.n_points)

    def weights(self) -> np.ndarray:
        if self.rule == "midpoint":
            return np.full(self.n_points, 1.0 / self.n_points)
        w = np.full(self.n_points, 1.0 / (self.n_points - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


def default_quadrature(n_modes: int) -> Quadrature:
    """Anti-aliased midpoint rule for fields with ``n_modes`` sine modes."""
    return Quadrature(4 * n_modes, "midpoint")


def _require_resolution(quad: Quadrature, n_modes: int):
    if quad.resolution < 4 * n_modes:
        raise ResolutionError(
            f"quadrature resolution {quad.resolution} is below the "
            f"anti-aliasing requirement 4 * n_modes = {4 * n_modes}"
        )


# ---------------------------------------------------------------------------
# 1-D fields


class Field1D:
    """Dirichlet field on [0, 1]; ``coeffs[k-1]`` multiplies sqrt(2) sin(k pi x)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidFieldError("1-D field needs a nonempty coefficient vector")
        if not np.all(np.isfinite(arr)):
            raise InvalidFieldError("1-D field has non-finite coefficients")
        self.coeffs = arr

    @property
    def n_modes(self) -> int:
        return self.coeffs.size

    def __repr__(self):
        return f"Field1D(n_modes={self.n_modes}, norm_h={norm_h(self):.4g})"


@lru_cache(maxsize=32)
def _sine_table(n_modes: int, n_points: int, rule: str):
    """Evaluation matrix E[j, k-1] = sqrt(2) sin(k pi x_j) on the quadrature grid."""
    quad = Quadrature(n_points, rule)
    x = quad.nodes()
    k = np.arange(1, n_modes + 1)
    return np.sqrt(2.0) * np.sin(np.pi * np.outer(x, k))


def evaluate_1d(field: Field1D, quad: Quadrature | None = None) -> np.ndarray:
    """Point values of the field on the quadrature grid."""
    if quad is None:
        quad = default_quadrature(field.n_modes)
    table = _sine_table(field.n_modes, quad.n_points, quad.rule)
    return table @ field.coeffs


def evaluate_derivative_1d(field: Field1D, quad: Quadrature | None = None) -> np.ndarray:
    """Point values of d/dx of the field on the quadrature grid."""
    if quad is None:
        quad = default_quadrature(field.n_modes)
    x = quad.nodes()
    k = np.arange(1, field.n_modes + 1)
    table = np.sqrt(2.0) * (k * np.pi) * np.cos(np.pi * np.outer(x, k))
    return table @ field.coeffs


def project_1d(values: np.ndarray, n_modes: int, quad: Quadrature) -> np.ndarray:
    """Sine coefficients of grid data: c_k = integral of f * sqrt(2) sin(k pi x).

    Exact for trigonometric polynomials resolved by the grid; used by the
    Burgers nonlinearity, whose integrands stay within the exact range.
    """
    table = _sine_table(n_modes, quad.n_points, quad.rule)
    return table.T @ (quad.weights() * values)


# ---------------------------------------------------------------------------
# 2-D fields


class Field2D:
    """Mean-zero velocity field on the unit torus.

    ``spec[c, i, j]`` is the complex amplitude of component ``c`` at
    wavevector (i - cutoff, j - cutoff); the k = 0 amplitude must vanish
    and the array must satisfy Hermitian symmetry so the field is real.
    """

    __slots__ = ("spec", "cutoff")

    def __init__(self, spec):
        arr = np.asarray(spec, dtype=np.complex128)
        if arr.ndim != 3 or arr.shape[0] != 2 or arr.shape[1] != arr.shape[2]:
            raise InvalidFieldError("2-D field spectrum must have shape (2, n, n)")
        if arr.shape[1] % 2 != 1:
            raise InvalidFieldError("2-D spectrum needs an odd side (modes -K..K)")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise InvalidFieldError("2-D field has non-finite coefficients")
        cutoff = arr.shape[1] // 2
        scale = np.max(np.abs(arr)) + 1.0
        mirrored = np.conj(arr[:, ::-1, ::-1])
        if np.max(np.abs(arr - mirrored)) > _HERMITIAN_TOL * scale:
            raise InvalidFieldError("2-D field violates Hermitian symmetry")
        if np.max(np.abs(arr[:, cutoff, cutoff])) > _HERMITIAN_TOL * scale:
            raise InvalidFieldError("2-D field has a nonzero mean mode")
        self.spec = arr
        self.cutoff = cutoff

    def coeff(self, k1: int, k2: int) -> np.ndarray:
        """Complex 2-vector amplitude at wavevector (k1, k2)."""
        K = self.cutoff
        if abs(k1) > K or abs(k2) > K:
            raise InvalidFieldError(f"wavevector ({k1}, {k2}) outside cutoff {K}")
        return self.spec[:, k1 + K, k2 + K]

    def __repr__(self):
        return f"Field2D(cutoff={self.cutoff}, norm_h={norm_h(self):.4g})"


@lru_cache(maxsize=32)
def _wavegrids(cutoff: int):
    k = np.arange(-cutoff, cutoff + 1, dtype=np.float64)
    k1 = k[:, None] + np.zeros((1, k.size))
    k2 = np.zeros((k.size, 1)) + k[None, :]
    ksq = k1**2 + k2**2
    return k1, k2, ksq


def hermitian_symmetrize(spec: np.ndarray) -> np.ndarray:
    """Project a square spectral block onto the Hermitian (real-field) part;
    the last two axes are the wavenumbers."""
    return 0.5 * (spec + np.conj(spec[..., ::-1, ::-1]))


def helmholtz_project(field: Field2D) -> Field2D:
    """Leray projection onto divergence-free fields: u_hat -= k (k.u_hat)/|k|^2."""
    k1, k2, ksq = _wavegrids(field.cutoff)
    ksq_safe = np.where(ksq == 0.0, 1.0, ksq)
    dot = (k1 * field.spec[0] + k2 * field.spec[1]) / ksq_safe
    # divergence at rounding level counts as zero, so projecting twice
    # returns the first output bitwise instead of churning last-ulp noise
    amp = np.abs(field.spec[0]) + np.abs(field.spec[1])
    dot[np.abs(dot) <= 16.0 * np.finfo(np.float64).eps * amp] = 0.0
    out = field.spec.copy()
    out[0] -= k1 * dot
    out[1] -= k2 * dot
    K = field.cutoff
    out[:, K, K] = 0.0
    return Field2D(out)


def divergence_linf(field: Field2D) -> float:
    """Max spectral divergence |k . u_hat(k)|, zero for divergence-free fields."""
    k1, k2, _ = _wavegrids(field.cutoff)
    return float(np.max(np.abs(k1 * field.spec[0] + k2 * field.spec[1])))


def half_to_grid(half: np.ndarray, n_grid: int) -> np.ndarray:
    """Real point values on the n_grid x n_grid torus grid, nodes j/n_grid.

    ``half`` holds the k2 >= 0 half of Hermitian spectral blocks, shape
    (..., 2K+1, K+1): entry [i, j] is the amplitude at (i - K, j).  Leading
    axes hold independent fields; each goes through its own real inverse
    transform, so its values do not depend on the rest of the batch.
    """
    cutoff = half.shape[-1] - 1
    if n_grid < 2 * cutoff + 1:
        raise ResolutionError(
            f"grid {n_grid} cannot represent modes up to cutoff {cutoff}"
        )
    buf = np.zeros(half.shape[:-2] + (n_grid, n_grid // 2 + 1),
                   dtype=np.complex128)
    buf[..., :cutoff + 1, :cutoff + 1] = half[..., cutoff:, :]
    buf[..., n_grid - cutoff:, :cutoff + 1] = half[..., :cutoff, :]
    return np.fft.irfft2(buf, s=(n_grid, n_grid), norm="forward")


def grid_to_half(values: np.ndarray, cutoff: int) -> np.ndarray:
    """The k2 >= 0 half (..., 2K+1, K+1) of the spectral blocks of real grid
    data (inverse of ``half_to_grid`` on band-limited data); modes beyond
    the cutoff are dropped."""
    n_grid = values.shape[-1]
    spec = np.fft.rfft2(values, norm="forward")
    return np.concatenate((spec[..., n_grid - cutoff:, :cutoff + 1],
                           spec[..., :cutoff + 1, :cutoff + 1]), axis=-2)


def half_to_full(half: np.ndarray) -> np.ndarray:
    """Mean-free Hermitian block (..., 2K+1, 2K+1) from its k2 >= 0 half.

    The k2 = 0 column is symmetrized and its k = 0 entry zeroed; the k2 < 0
    columns are the conjugate flip of the k2 > 0 ones, so the result is
    exactly Hermitian.
    """
    cutoff = half.shape[-1] - 1
    out = np.empty(half.shape[:-1] + (2 * cutoff + 1,), dtype=np.complex128)
    out[..., cutoff:] = half
    col = half[..., :, 0]
    out[..., :, cutoff] = 0.5 * (col + np.conj(col[..., ::-1]))
    out[..., cutoff, cutoff] = 0.0
    out[..., :, :cutoff] = np.conj(out[..., ::-1, :cutoff:-1])
    return out


def to_grid_2d(field: Field2D, n_grid: int) -> np.ndarray:
    """Real point values, shape (2, n_grid, n_grid), nodes j/n_grid."""
    return half_to_grid(field.spec[:, :, field.cutoff:], n_grid)


def default_grid_2d(cutoff: int) -> int:
    """Quadrature grid for the L^4 norms: the smallest even grid on which
    quartic torus quadrature is alias-free.

    Quadratic products (the advection kernel) need only 3K+1 points; see
    ``models.ns_product_grid``.
    """
    return 4 * cutoff + 4


# ---------------------------------------------------------------------------
# norms and inner products


def _weights_v(field) -> np.ndarray:
    if isinstance(field, Field1D):
        return np.pi * np.arange(1, field.n_modes + 1, dtype=np.float64)
    _, _, ksq = _wavegrids(field.cutoff)
    return 2.0 * np.pi * np.sqrt(ksq)


def norm_h(field) -> float:
    """L^2 norm via Parseval."""
    if isinstance(field, Field1D):
        return float(np.linalg.norm(field.coeffs))
    return float(np.linalg.norm(field.spec))


def inner_h(a, b) -> float:
    """L^2 inner product of two fields of matching type and resolution."""
    if isinstance(a, Field1D):
        if a.n_modes != b.n_modes:
            raise InvalidFieldError("mode count mismatch in inner product")
        return float(np.dot(a.coeffs, b.coeffs))
    if a.cutoff != b.cutoff:
        raise InvalidFieldError("cutoff mismatch in inner product")
    return float(np.real(np.sum(np.conj(a.spec) * b.spec)))


def norm_v(field) -> float:
    """Dirichlet energy norm ||grad v||_{L^2}."""
    w = _weights_v(field)
    if isinstance(field, Field1D):
        return float(np.linalg.norm(w * field.coeffs))
    return float(np.sqrt(np.sum((w**2) * np.abs(field.spec[0]) ** 2)
                         + np.sum((w**2) * np.abs(field.spec[1]) ** 2)))


def norm_vstar(field) -> float:
    """Dual norm; spectral weights are the reciprocals of the V weights."""
    if isinstance(field, Field1D):
        w = 1.0 / (np.pi * np.arange(1, field.n_modes + 1, dtype=np.float64))
        return float(np.linalg.norm(w * field.coeffs))
    _, _, ksq = _wavegrids(field.cutoff)
    wsq = np.where(ksq == 0.0, 0.0, 1.0 / ((2.0 * np.pi) ** 2 * np.where(ksq == 0, 1, ksq)))
    return float(np.sqrt(np.sum(wsq * np.abs(field.spec[0]) ** 2)
                         + np.sum(wsq * np.abs(field.spec[1]) ** 2)))


def norm_l4(field, quad: Quadrature | None = None, n_grid: int | None = None) -> float:
    """L^4 norm by physical-space quadrature on an anti-aliased grid."""
    if isinstance(field, Field1D):
        if quad is None:
            quad = default_quadrature(field.n_modes)
        _require_resolution(quad, field.n_modes)
        vals = evaluate_1d(field, quad)
        return float(np.dot(quad.weights(), vals**4) ** 0.25)
    if n_grid is None:
        n_grid = default_grid_2d(field.cutoff)
    if n_grid < 4 * field.cutoff + 1:
        raise ResolutionError(
            f"2-D grid {n_grid} is below the quartic anti-aliasing "
            f"requirement {4 * field.cutoff + 1}"
        )
    vals = to_grid_2d(field, n_grid)
    speed_sq = vals[0] ** 2 + vals[1] ** 2
    return float(np.mean(speed_sq**2) ** 0.25)


def norm_h_quadrature(field, quad: Quadrature | None = None,
                      n_grid: int | None = None) -> float:
    """L^2 norm via the physical grid, for Parseval cross-checks."""
    if isinstance(field, Field1D):
        if quad is None:
            quad = default_quadrature(field.n_modes)
        _require_resolution(quad, field.n_modes)
        vals = evaluate_1d(field, quad)
        return float(np.sqrt(np.dot(quad.weights(), vals**2)))
    if n_grid is None:
        n_grid = default_grid_2d(field.cutoff)
    vals = to_grid_2d(field, n_grid)
    return float(np.sqrt(np.mean(vals[0] ** 2 + vals[1] ** 2)))


def poincare_audit(field, eta: float):
    """Check ||v||_V^2 >= eta * ||v||_H^2 for a single nonzero field.

    Returns (passed, ratio) where ratio = ||v||_V^2 / ||v||_H^2.  The squared
    convention is deliberate: it is the form the coercivity bookkeeping
    actually consumes, and the usual eta values pass under it.
    """
    h = norm_h(field)
    if h == 0.0:
        raise InvalidFieldError("poincare ratio is undefined for the zero field")
    ratio = (norm_v(field) / h) ** 2
    return bool(ratio >= eta), float(ratio)


def laplacian_apply(field):
    """Laplacian in spectral form: mode k scaled by -(k pi)^2 or -(2 pi |k|)^2."""
    if isinstance(field, Field1D):
        k = np.arange(1, field.n_modes + 1, dtype=np.float64)
        return Field1D(-((k * np.pi) ** 2) * field.coeffs)
    _, _, ksq = _wavegrids(field.cutoff)
    return Field2D(-((2.0 * np.pi) ** 2) * ksq * field.spec)


# ---------------------------------------------------------------------------
# seeded random fields (audits and inequality suites)


def random_field_1d(n_modes: int, rng: np.random.Generator,
                    envelope: float = -1.5, scale: float = 1.0) -> Field1D:
    """Gaussian coefficients under a k^envelope spectral decay."""
    k = np.arange(1, n_modes + 1, dtype=np.float64)
    return Field1D(scale * rng.standard_normal(n_modes) * k**envelope)


def random_field_2d(cutoff: int, rng: np.random.Generator,
                    envelope: float = -1.5, scale: float = 1.0,
                    divergence_free: bool = True) -> Field2D:
    """Random Hermitian spectrum under a |k|^envelope decay."""
    n = 2 * cutoff + 1
    raw = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    _, _, ksq = _wavegrids(cutoff)
    env = np.where(ksq == 0.0, 0.0, np.sqrt(np.where(ksq == 0, 1, ksq)) ** envelope)
    spec = hermitian_symmetrize(scale * env * raw)
    spec[:, cutoff, cutoff] = 0.0
    field = Field2D(spec)
    return helmholtz_project(field) if divergence_free else field


# ---------------------------------------------------------------------------
# norm inequality suites

_PARSEVAL_TOL = 1e-12
_POINCARE_TOL = 1e-12


def norm_inequality_suite_1d(n_fields: int, n_modes: int,
                             rng: np.random.Generator) -> dict:
    """Poincare, L^4 interpolation and Parseval checks on random 1-D fields.

    Returns violation counts and worst margins; every margin is
    nonnegative when the implementation is sound.
    """
    k = np.arange(1, n_modes + 1, dtype=np.float64)
    coeffs = rng.standard_normal((n_fields, n_modes)) * k**-1.5
    quad = default_quadrature(n_modes)
    table = _sine_table(n_modes, quad.n_points, quad.rule)
    vals = coeffs @ table.T
    w = quad.weights()

    h_sq = np.sum(coeffs**2, axis=1)
    v_sq = np.sum((coeffs * (np.pi * k)) ** 2, axis=1)
    l4_4 = (vals**4) @ w
    h_sq_quad = (vals**2) @ w

    poincare_margin = v_sq - POINCARE_1D * h_sq
    interp_margin = L4_INTERPOLATION_1D * h_sq * v_sq - l4_4
    parseval_err = np.abs(h_sq_quad - h_sq) / (1.0 + h_sq)

    return {
        "n_fields": int(n_fields),
        "poincare": {
            "violations": int(np.sum(poincare_margin < -_POINCARE_TOL * v_sq)),
            "worst_ratio": float(np.min(v_sq / h_sq)),
            "bound": float(POINCARE_1D),
        },
        "l4_interpolation": {
            "violations": int(np.sum(interp_margin < 0.0)),
            "worst_margin": float(np.min(interp_margin)),
            "constant": L4_INTERPOLATION_1D,
        },
        "parseval": {
            "violations": int(np.sum(parseval_err > _PARSEVAL_TOL)),
            "worst_error": float(np.max(parseval_err)),
            "tolerance": _PARSEVAL_TOL,
        },
    }


def norm_inequality_suite_2d(n_fields: int, cutoff: int,
                             rng: np.random.Generator) -> dict:
    """Same checks as the 1-D suite, on divergence-free torus fields."""
    worst_ratio = np.inf
    worst_interp = np.inf
    worst_parseval = 0.0
    viol_p = viol_i = viol_q = 0
    for _ in range(n_fields):
        f = random_field_2d(cutoff, rng)
        h_sq = norm_h(f) ** 2
        if h_sq == 0.0:
            continue
        v_sq = norm_v(f) ** 2
        l4_4 = norm_l4(f) ** 4
        q_sq = norm_h_quadrature(f) ** 2

        ratio = v_sq / h_sq
        interp = L4_INTERPOLATION_2D * h_sq * v_sq - l4_4
        perr = abs(q_sq - h_sq) / (1.0 + h_sq)

        worst_ratio = min(worst_ratio, ratio)
        worst_interp = min(worst_interp, interp)
        worst_parseval = max(worst_parseval, perr)
        viol_p += ratio < POINCARE_2D * (1.0 - _POINCARE_TOL)
        viol_i += interp < 0.0
        viol_q += perr > _PARSEVAL_TOL

    return {
        "n_fields": int(n_fields),
        "poincare": {
            "violations": int(viol_p),
            "worst_ratio": float(worst_ratio),
            "bound": float(POINCARE_2D),
        },
        "l4_interpolation": {
            "violations": int(viol_i),
            "worst_margin": float(worst_interp),
            "constant": L4_INTERPOLATION_2D,
        },
        "parseval": {
            "violations": int(viol_q),
            "worst_error": float(worst_parseval),
            "tolerance": _PARSEVAL_TOL,
        },
    }
