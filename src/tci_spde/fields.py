"""Spectral function spaces for the SPDE laboratory.

One-dimensional fields live on [0, 1] with homogeneous Dirichlet
boundary conditions and are expanded in the orthonormal sine basis
e_k(x) = sqrt(2) sin(k pi x), k >= 1.  Two-dimensional fields are
real, mean-zero velocity fields on the periodic unit torus, held as
complex Fourier coefficients u_hat(k) in C^2 on the square wavevector
block |k|_inf <= cutoff with Hermitian symmetry u_hat(-k) = conj(u_hat(k)).
``SineSpace`` and ``TorusSpace`` are the one place that knows how the
states of each space are stored; the other modules go through them.
Each space also embeds the noise, B w for w in U = R^{n_w}
(``add_noise``): U-coordinate j feeds sine mode j, or the j-th field of
the torus's divergence-free basis (``TorusSpace.noise_basis``).

Norms of the Gelfand triple V in H in V*.  Each space has one kernel,
``sq_norms(raw, weights)``, the weighted sum sum_k w_k |x_k|^2 per state,
and every norm of the package is that kernel (or its square root):

* sine fields:  one BLAS dot product dot(w * x, x) per state,
* torus fields: one pairwise sum of w |x|^2 over the flattened (2, n, n)
  block,

with the weights

* H   w = 1 (Parseval, H = L^2; ``norms_h`` is its square root),
* V   w = laplacian_eigenvalues(): (k pi)^2 on the sine modes,
      (2 pi)^2 |k|^2 on the torus,
* V*  w = 1 / laplacian_eigenvalues() (0 at k = 0),

so the solver's norm paths, the functionals, the suites and the audit take
the same bits for the same state.  ``grid_moments`` gives int |v|^2 and
int |v|^4 by physical-space quadrature on an anti-aliased grid (4N
midpoints, or 4K+4 points per torus axis), exact for the quartic
trigonometric polynomials here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidFieldError, ParameterError, ResolutionError
from .noise import NoiseOperator

# Sharp Poincare constants for the squared embedding ||v||_V^2 >= C ||v||_H^2.
POINCARE_1D = np.pi**2
POINCARE_2D = 4.0 * np.pi**2

# Constants in the interpolation inequality ||v||_L4^4 <= C ||v||_H^2 ||v||_V^2.
L4_INTERPOLATION_1D = 4.0
L4_INTERPOLATION_2D = 2.0

_HERMITIAN_TOL = 1e-12


# ---------------------------------------------------------------------------
# quadrature


def midpoint_nodes(n_points: int) -> np.ndarray:
    """Midpoint rule nodes (j + 1/2)/n on [0, 1].

    With the equal weights 1/n the rule integrates cos(m pi x) exactly for
    0 <= m < 2n, which covers every quartic product of sine modes once n is
    at least four times the modal cutoff.
    """
    return (np.arange(n_points) + 0.5) / n_points


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
        norm = float(norms_h(self.coeffs))
        return f"Field1D(n_modes={self.n_modes}, norm_h={norm:.4g})"


# ---------------------------------------------------------------------------
# 2-D fields


def check_spectra(spec: np.ndarray) -> np.ndarray:
    """Validate torus spectra of shape (..., 2, n, n) and return them.

    Leading axes hold independent fields.  Each block must be finite,
    Hermitian (u_hat(-k) = conj(u_hat(k)), so the field is real) and free
    of a mean mode; the tolerance scales with each block's own largest
    amplitude.  Raises InvalidFieldError otherwise.
    """
    if spec.ndim < 3 or spec.shape[-3] != 2 or spec.shape[-2] != spec.shape[-1]:
        raise InvalidFieldError("2-D field spectrum must have shape (2, n, n)")
    if spec.shape[-1] % 2 != 1:
        raise InvalidFieldError("2-D spectrum needs an odd side (modes -K..K)")
    if not np.all(np.isfinite(spec)):
        raise InvalidFieldError("2-D field has non-finite coefficients")
    cutoff = spec.shape[-1] // 2
    blocks = (-3, -2, -1)
    scale = np.max(np.abs(spec), axis=blocks) + 1.0
    mirrored = np.conj(spec[..., ::-1, ::-1])
    if np.any(np.max(np.abs(spec - mirrored), axis=blocks) > _HERMITIAN_TOL * scale):
        raise InvalidFieldError("2-D field violates Hermitian symmetry")
    if np.any(np.max(np.abs(spec[..., cutoff, cutoff]), axis=-1)
              > _HERMITIAN_TOL * scale):
        raise InvalidFieldError("2-D field has a nonzero mean mode")
    return spec


class Field2D:
    """Mean-zero velocity field on the unit torus.

    ``spec[c, i, j]`` is the complex amplitude of component ``c`` at
    wavevector (i - cutoff, j - cutoff); the k = 0 amplitude must vanish
    and the array must satisfy Hermitian symmetry so the field is real
    (``check_spectra``).
    """

    __slots__ = ("spec", "cutoff")

    def __init__(self, spec):
        arr = np.asarray(spec, dtype=np.complex128)
        if arr.ndim != 3:
            raise InvalidFieldError("2-D field spectrum must have shape (2, n, n)")
        self.spec = check_spectra(arr)
        self.cutoff = arr.shape[1] // 2

    def __repr__(self):
        norm = float(norms_h(self.spec))
        return f"Field2D(cutoff={self.cutoff}, norm_h={norm:.4g})"


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


def _leray(spec: np.ndarray) -> np.ndarray:
    """Leray projection of spectra (..., 2, n, n), elementwise per field."""
    K = spec.shape[-1] // 2
    k1, k2, ksq = _wavegrids(K)
    ksq_safe = np.where(ksq == 0.0, 1.0, ksq)
    u1, u2 = spec[..., 0, :, :], spec[..., 1, :, :]
    dot = (k1 * u1 + k2 * u2) / ksq_safe
    # divergence at rounding level counts as zero, so projecting twice
    # returns the first output bitwise instead of churning last-ulp noise
    amp = np.abs(u1) + np.abs(u2)
    dot[np.abs(dot) <= 16.0 * np.finfo(np.float64).eps * amp] = 0.0
    out = spec.copy()
    out[..., 0, :, :] -= k1 * dot
    out[..., 1, :, :] -= k2 * dot
    out[..., K, K] = 0.0
    return out


def half_to_grid(half: np.ndarray, n_grid: int) -> np.ndarray:
    """Real point values on the n_grid x n_grid torus grid, nodes j/n_grid.

    ``half`` holds the k2 >= 0 half of Hermitian spectral blocks, shape
    (..., 2K+1, K+1): entry [i, j] is the amplitude at (i - K, j).  Leading
    axes hold independent fields; each goes through its own real inverse
    transform, so its values do not depend on the rest of the batch.

    The 1-D transforms are those of ``irfft2`` on the zero-padded block
    (``ifft`` along axis -2, then ``irfft`` along the last axis), with the
    all-zero columns k2 > K left out of the first pass, so the values equal
    ``irfft2``'s bitwise.
    """
    cutoff = half.shape[-1] - 1
    if n_grid < 2 * cutoff + 1:
        raise ResolutionError(
            f"grid {n_grid} cannot represent modes up to cutoff {cutoff}"
        )
    cols = np.zeros(half.shape[:-2] + (n_grid, cutoff + 1), dtype=np.complex128)
    cols[..., :cutoff + 1, :] = half[..., cutoff:, :]
    cols[..., n_grid - cutoff:, :] = half[..., :cutoff, :]
    cols = np.fft.ifft(cols, axis=-2, norm="forward")
    return np.fft.irfft(cols, n_grid, axis=-1, norm="forward")


def grid_to_half(values: np.ndarray, cutoff: int) -> np.ndarray:
    """The k2 >= 0 half (..., 2K+1, K+1) of the spectral blocks of real grid
    data (inverse of ``half_to_grid`` on band-limited data); modes beyond
    the cutoff are dropped.

    The 1-D transforms are those of ``rfft2`` (``rfft`` along the last
    axis, then ``fft`` along axis -2), with the second pass run on the K+1
    kept columns only, so the result equals ``rfft2``'s bitwise.
    """
    n_grid = values.shape[-1]
    cols = np.fft.rfft(values, axis=-1, norm="forward")[..., :cutoff + 1]
    spec = np.fft.fft(cols, axis=-2, norm="forward")
    return np.concatenate((spec[..., n_grid - cutoff:, :],
                           spec[..., :cutoff + 1, :]), axis=-2)


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


def default_grid_2d(cutoff: int) -> int:
    """Quadrature grid for the L^4 norms: the smallest even grid on which
    quartic torus quadrature is alias-free.

    Quadratic products (the advection kernel) need only 3K+1 points; see
    ``models.ns_product_grid``.
    """
    return 4 * cutoff + 4


# ---------------------------------------------------------------------------
# norms and inner products
#
# ``norms_h`` and ``inners_h`` take raw coefficients whose leading axes
# hold independent fields: real (..., N) sine coefficients or complex
# (..., 2, n, n) torus spectra.  Each field gets its own BLAS dot products
# and its own pairwise sums, so its norm is the same bits alone or in any
# batch.


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, one BLAS call per field (a stack of
    vector-vector matmuls), each equal to ``np.dot`` on that field alone."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _sums(x: np.ndarray, n_axes: int) -> np.ndarray:
    """Sums over the last ``n_axes`` axes, flattened into the one pairwise
    sum that ``np.sum`` takes over a single contiguous field."""
    return x.reshape(x.shape[:x.ndim - n_axes] + (-1,)).sum(axis=-1)


def norms_h(raw: np.ndarray) -> np.ndarray:
    """L^2 norms via Parseval, per field."""
    return np.sqrt(space_of(raw).sq_norms(raw))


def inners_h(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^2 inner products per field; ``b`` may broadcast against ``a``."""
    return space_of(a).inners(a, b)


# ---------------------------------------------------------------------------
# seeded random fields (audits and inequality suites)


def random_fields_1d(count: int, n_modes: int, rng: np.random.Generator,
                     envelope: float = -1.5, scale=1.0) -> np.ndarray:
    """``count`` sine-coefficient vectors, shape (count, n_modes): Gaussian
    coefficients under a k^envelope spectral decay.  ``scale`` is one number
    or one per field.  Drawn in one call, they are the numbers that
    ``count`` successive single draws from ``rng`` give."""
    k = np.arange(1, n_modes + 1, dtype=np.float64)
    return (np.reshape(scale, (-1, 1)) * rng.standard_normal((count, n_modes))
            * k**envelope)


def random_fields_2d(count: int, cutoff: int, rng: np.random.Generator,
                     envelope: float = -1.5, scale=1.0,
                     divergence_free: bool = True) -> np.ndarray:
    """``count`` random Hermitian spectra under a |k|^envelope decay, shape
    (count, 2, n, n), Leray projected unless ``divergence_free`` is off.
    ``scale`` is one number or one per field.  Each field takes the real
    and then the imaginary parts of its amplitudes from ``rng``, so one
    call draws what ``count`` successive single draws would."""
    n = 2 * cutoff + 1
    normals = rng.standard_normal((count, 2, 2, n, n))
    raw = normals[:, 0] + 1j * normals[:, 1]
    _, _, ksq = _wavegrids(cutoff)
    env = np.where(ksq == 0.0, 0.0, np.sqrt(np.where(ksq == 0, 1, ksq)) ** envelope)
    spec = hermitian_symmetrize(np.reshape(scale, (-1, 1, 1, 1)) * env * raw)
    spec[..., cutoff, cutoff] = 0.0
    return check_spectra(_leray(spec) if divergence_free else spec)


# ---------------------------------------------------------------------------
# norm inequality suites

_PARSEVAL_TOL = 1e-12
_POINCARE_TOL = 1e-12

# Fields per batch in the norm and energy suites.  A code constant: it
# bounds the batch temporaries (at K = 8 one chunk's L^4 grid values take
# 1.3 MB) whatever the field count, and the chunks, hence the BLAS calls,
# are the same on every run.
SUITE_CHUNK = 64


def suite_chunks(n_fields: int) -> list:
    """Sizes of the consecutive ``SUITE_CHUNK``-field batches of a suite."""
    return [min(SUITE_CHUNK, n_fields - start)
            for start in range(0, n_fields, SUITE_CHUNK)]


def _suite_terms(space, n_fields: int, rng: np.random.Generator):
    """Per-field ||v||_H^2, ||v||_V^2, int |v|^4 and quadrature ||v||_H^2 of
    ``n_fields`` random fields of ``space``, drawn ``SUITE_CHUNK`` at a
    time; one grid transform per chunk serves both quadratures, and a
    field's terms do not depend on its chunk."""
    lam = space.laplacian_eigenvalues()
    terms = []
    for count in suite_chunks(n_fields):
        raw = space.draw(count, rng)
        m2, m4 = space.grid_moments(raw)
        terms.append((space.sq_norms(raw), space.sq_norms(raw, lam), m4, m2))
    return [np.concatenate(col) for col in zip(*terms)]


def norm_inequality_suite(space, n_fields: int, rng: np.random.Generator) -> dict:
    """Poincare, L^4 interpolation and Parseval checks on random fields of
    ``space`` (divergence-free on the torus), on squared norms and grid
    moments; fields with zero H-norm are skipped.

    Returns violation counts and worst margins; every margin is
    nonnegative when the implementation is sound.
    """
    h_sq, v_sq, l4_4, q_sq = _suite_terms(space, n_fields, rng)
    keep = h_sq != 0.0
    h_sq, v_sq, l4_4, q_sq = h_sq[keep], v_sq[keep], l4_4[keep], q_sq[keep]

    ratio = v_sq / h_sq
    interp = space.l4_interpolation * h_sq * v_sq - l4_4
    perr = np.abs(q_sq - h_sq) / (1.0 + h_sq)

    return {
        "n_fields": int(n_fields),
        "poincare": {
            "violations": int(np.sum(ratio < space.poincare * (1.0 - _POINCARE_TOL))),
            "worst_ratio": float(np.min(ratio, initial=np.inf)),
            "bound": float(space.poincare),
        },
        "l4_interpolation": {
            "violations": int(np.sum(interp < 0.0)),
            "worst_margin": float(np.min(interp, initial=np.inf)),
            "constant": space.l4_interpolation,
        },
        "parseval": {
            "violations": int(np.sum(perr > _PARSEVAL_TOL)),
            "worst_error": float(np.max(perr, initial=0.0)),
            "tolerance": _PARSEVAL_TOL,
        },
    }


# ---------------------------------------------------------------------------
# function spaces
#
# The two spaces own the storage of their states: a sine state is a real
# vector of n_modes coefficients, a torus state a complex (2, n, n) spectral
# block, and arrays of states carry them on leading axes.  Other modules
# reach the storage through ``ModelSpec.space`` or ``space_of``.


@dataclass(frozen=True)
class SineSpace:
    """Dirichlet sine modes e_1..e_N on [0, 1] (heat and Burgers)."""

    n_modes: int

    poincare = POINCARE_1D
    l4_interpolation = L4_INTERPOLATION_1D

    def laplacian_eigenvalues(self, viscosity: float = 1.0) -> np.ndarray:
        """viscosity * (pi k)^2 per mode."""
        k = np.arange(1, self.n_modes + 1, dtype=np.float64)
        return viscosity * (np.pi * k) ** 2

    def raw(self, field) -> np.ndarray:
        """The coefficients of ``field``, which must be a field of this space."""
        if not isinstance(field, Field1D) or field.n_modes != self.n_modes:
            raise InvalidFieldError(f"expected a 1-D field with {self.n_modes} modes")
        return field.coeffs

    def sq_norms(self, raw: np.ndarray, weights=None) -> np.ndarray:
        """sum_k w_k x_k^2 per state of ``raw`` (..., N), as the BLAS dot
        product dot(w * x, x), the value ``np.dot`` gives.  ``weights``
        (default 1) broadcasts against ``raw``: one (N,) vector, or a stack
        of m on a leading axis, (m, 1, N) for states (P, N), which gives
        an (m, P) result."""
        return _row_dots(raw if weights is None else weights * raw, raw)

    def inners(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _row_dots(a, b)

    @lru_cache(maxsize=32)
    def table(self, n_points: int) -> np.ndarray:
        """Evaluation matrix E[j, k-1] = sqrt(2) sin(k pi x_j) on the
        ``n_points`` midpoint nodes; cached by value (the space is a frozen
        value), and shared, so callers must not write to it."""
        x = midpoint_nodes(n_points)
        k = np.arange(1, self.n_modes + 1)
        return np.sqrt(2.0) * np.sin(np.pi * np.outer(x, k))

    def grid_moments(self, raw: np.ndarray):
        """Per-field (int v^2, int v^4) by the midpoint rule on 4N nodes,
        one matrix-vector product per field serving both."""
        n_points = 4 * self.n_modes
        vals = np.matmul(self.table(n_points), raw[..., None])[..., 0]
        w = np.full(n_points, 1.0 / n_points)
        return _row_dots(w, vals**2), _row_dots(w, vals**4)

    def draw(self, count: int, rng: np.random.Generator, scale=1.0) -> np.ndarray:
        return random_fields_1d(count, self.n_modes, rng, scale=scale)

    def add_noise(self, state: np.ndarray, op: NoiseOperator, w: np.ndarray):
        """Add B w to the states (P, N) in place, ``w`` of shape (P, n_w) with
        any clamp applied; the noise reaches the first n_w modes."""
        state[:, :op.n_w] += op.gains * w


@dataclass(frozen=True)
class TorusSpace:
    """Mean-free Fourier modes |k|_inf <= cutoff on the unit torus (ns2d)."""

    cutoff: int

    poincare = POINCARE_2D
    l4_interpolation = L4_INTERPOLATION_2D

    def laplacian_eigenvalues(self, viscosity: float = 1.0) -> np.ndarray:
        """(viscosity (2 pi)^2) |k|^2 per wavevector."""
        return viscosity * (2.0 * np.pi) ** 2 * _wavegrids(self.cutoff)[2]

    def raw(self, field) -> np.ndarray:
        """The spectrum of ``field``, which must be a field of this space."""
        if not isinstance(field, Field2D) or field.cutoff != self.cutoff:
            raise InvalidFieldError(f"expected a 2-D field with cutoff {self.cutoff}")
        return field.spec

    def sq_norms(self, raw: np.ndarray, weights=None) -> np.ndarray:
        """sum_k w(k) |u_hat(k)|^2 per state of ``raw`` (..., 2, n, n), as
        one pairwise sum over the flattened block.  ``weights`` (default 1)
        broadcasts against ``raw``: one (n, n) array per wavevector, or a
        stack of m on a leading axis, (m, 1, 1, n, n) for states
        (P, 2, n, n), which gives an (m, P) result."""
        p = np.abs(raw) ** 2
        return _sums(p if weights is None else weights * p, 3)

    def inners(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _sums(np.conj(a) * b, 3).real

    def grid_moments(self, raw: np.ndarray):
        """Per-field (int |v|^2, int |v|^4) on the ``default_grid_2d`` grid,
        one real inverse transform per field serving both."""
        n_grid = default_grid_2d(self.cutoff)
        vals = half_to_grid(raw[..., self.cutoff:], n_grid)
        speed_sq = vals[..., 0, :, :] ** 2 + vals[..., 1, :, :] ** 2
        n_points = n_grid * n_grid
        return _sums(speed_sq, 2) / n_points, _sums(speed_sq**2, 2) / n_points

    def draw(self, count: int, rng: np.random.Generator, scale=1.0) -> np.ndarray:
        return random_fields_2d(count, self.cutoff, rng, scale=scale)

    @lru_cache(maxsize=32)
    def noise_basis(self, n_w: int):
        """The first n_w orthonormal divergence-free real basis fields,
        spectrally; cached by value (cutoff, n_w), and shared, so callers
        must not write to it.

        Wavevectors are enumerated over the half-space (k1 > 0, or k1 = 0
        and k2 > 0) sorted by (|k|^2, k1, k2); each contributes a cosine and
        a sine field polarized along k-perp.  Returns the support, the
        sorted flat indices into a (2, n, n) block of the entries some field
        is non-zero at, and the (n_w, support) amplitudes of the fields
        there.
        """
        cutoff = self.cutoff
        half = sorted((k1 * k1 + k2 * k2, k1, k2) for k1 in range(cutoff + 1)
                      for k2 in range(-cutoff, cutoff + 1) if k1 > 0 or k2 > 0)
        if n_w > 2 * len(half):
            raise ParameterError(
                f"n_w = {n_w} exceeds the {2 * len(half)} divergence-free "
                f"modes available at cutoff {cutoff}"
            )
        n = 2 * cutoff + 1
        out = np.zeros((n_w, 2, n, n), dtype=np.complex128)
        for j in range(n_w):
            _, k1, k2 = half[j // 2]
            norm = np.hypot(k1, k2)
            d = np.array([-k2 / norm, k1 / norm])
            amp = d / np.sqrt(2.0) if j % 2 == 0 else -1j * d / np.sqrt(2.0)
            out[j, :, k1 + cutoff, k2 + cutoff] = amp
            out[j, :, -k1 + cutoff, -k2 + cutoff] = np.conj(amp)
        flat = out.reshape(n_w, -1)
        support = np.flatnonzero(np.any(flat != 0.0, axis=0))
        return support, flat[:, support]

    def add_noise(self, state: np.ndarray, op: NoiseOperator, w: np.ndarray):
        """Add B w to the contiguous states (P, 2, n, n) in place, ``w`` of
        shape (P, n_w) with any clamp applied: U-coordinate j feeds basis
        field j (``noise_basis``), and only the support of the basis
        changes."""
        support, amplitudes = self.noise_basis(op.n_w)
        state.reshape(len(state), -1)[:, support] += np.tensordot(
            op.gains * w, amplitudes, axes=(-1, 0))


def space_of(raw: np.ndarray):
    """The space of raw states (one, or many on leading axes)."""
    if np.iscomplexobj(raw):
        return TorusSpace(raw.shape[-1] // 2)
    return SineSpace(raw.shape[-1])
