"""Cylindrical Wiener increments and diagonal noise operators.

The driving noise lives on U = R^{n_w}.  Increment generation is
counter-based: the triple (experiment_seed, replicate, step) addresses a
fixed block of a Philox stream, so any replicate or step can be produced
out of order, in parallel, bitwise identically.  Normals come from the
inverse CDF applied to 53-bit uniforms, one raw draw per normal, which
keeps the stream position a pure function of the counter.

Noise operators are diagonal in the field basis: U-coordinate j feeds
mode j with gain b_j, optionally scaled by a bounded clamp g(||v||_H).
The squared Hilbert-Schmidt norm is then g(||v||_H)^2 sum_j b_j^2 and is
capped by the declared budget C_B.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import ParameterError

_MASK64 = (1 << 64) - 1
_RAWS_PER_TICK = 4  # Philox-4x64 emits four 64-bit words per counter tick

# Replicate-space lanes: high bits of the replicate index partition the
# stream space between the solver noise and auxiliary consumers, so audits
# and control ensembles never collide with trajectory increments.
LANE_NOISE = 0
LANE_FIELDS = 1
LANE_CONTROL = 2
LANE_REFINED = 3


def derived_replicate(lane: int, index: int) -> int:
    if not 0 <= index < (1 << 48):
        raise ParameterError("replicate index must lie in [0, 2^48)")
    return (lane << 48) | index


def _philox(experiment_seed: int, replicate: int) -> np.random.Philox:
    key = (int(experiment_seed) & _MASK64) | ((int(replicate) & _MASK64) << 64)
    return np.random.Philox(key=key)


def generator(experiment_seed: int, replicate: int) -> np.random.Generator:
    """Seeded generator for non-counter consumers (field draws, controls)."""
    return np.random.Generator(_philox(experiment_seed, replicate))


# Largest uniform passed to the inverse CDF.  The top raw words (2^53 - 1
# after the shift) map to (2^53 - 1/2) 2^-53, which rounds to exactly 1.0,
# where ndtri is +inf; every other word maps below this cap.
_U_MAX = 1.0 - 2.0**-53


def _normals_from_raw(raw: np.ndarray) -> np.ndarray:
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(np.minimum(u, _U_MAX, out=u))


def _blocks_per_step(n: int) -> int:
    return -(-n // _RAWS_PER_TICK)


def standard_normal_table(experiment_seed: int, replicate: int,
                          n_steps: int, n: int) -> np.ndarray:
    """All step blocks at once, shape (n_steps, n): row s holds the n
    normals of the (experiment_seed, replicate, step s) block, which starts
    s * ceil(n / 4) counter ticks into the stream."""
    width = _blocks_per_step(n) * _RAWS_PER_TICK
    bg = _philox(experiment_seed, replicate)
    raw = np.asarray(bg.random_raw(n_steps * width), dtype=np.uint64)
    return _normals_from_raw(raw).reshape(n_steps, width)[:, :n]


# ---------------------------------------------------------------------------
# gain profiles


def gains_inverse_k(n_w: int, c_b: float) -> np.ndarray:
    """b_k proportional to 1/k, normalized so sum b_k^2 = C_B."""
    k = np.arange(1, n_w + 1, dtype=np.float64)
    b = 1.0 / k
    return b * np.sqrt(c_b / np.sum(b**2))


def gains_single_mode(n_w: int, c_b: float, mode_index: int = 1) -> np.ndarray:
    """All of the budget on one U-coordinate (1-based index)."""
    if not 1 <= mode_index <= n_w:
        raise ParameterError(f"mode_index must lie in [1, {n_w}]")
    b = np.zeros(n_w)
    b[mode_index - 1] = np.sqrt(c_b)
    return b


# ---------------------------------------------------------------------------
# noise operators


def _basis_2d(cutoff: int, n_w: int):
    """First n_w orthonormal divergence-free real basis fields, spectrally.

    Wavevectors are enumerated over the half-space (k1 > 0, or k1 = 0 and
    k2 > 0) sorted by (|k|^2, k1, k2); each contributes a cosine and a sine
    field polarized along k-perp.  Returns the support, the sorted flat
    indices into a (2, n, n) block of the entries some field is non-zero
    at, and the (n_w, support) amplitudes of the fields there.
    """
    half = []
    for k1 in range(0, cutoff + 1):
        for k2 in range(-cutoff, cutoff + 1):
            if k1 == 0 and k2 <= 0:
                continue
            half.append((k1 * k1 + k2 * k2, k1, k2))
    half.sort()
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
    return support, flat[:, support].copy()


@dataclass(frozen=True)
class NoiseOperator:
    """Diagonal map from U = R^{n_w} into the field space.

    ``clamp`` of None means additive noise (g identically 1); a positive
    clamp R gives the bounded multiplicative factor g(s) = R / max(R, s).
    A 2-D operator keeps its basis sparsely: ``support`` holds the flat
    indices into the (2, n, n) spectral block that the noise reaches and
    ``amplitudes`` the (n_w, support) values of the basis fields there.
    """

    n_w: int
    gains: np.ndarray
    c_b: float
    clamp: float | None = None
    kind: str = "1d"
    cutoff: int | None = None
    support: np.ndarray | None = field(default=None, init=False, repr=False)
    amplitudes: np.ndarray | None = field(default=None, init=False,
                                          repr=False)

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=np.float64)
        if gains.shape != (self.n_w,):
            raise ParameterError("gains must have shape (n_w,)")
        if np.any(gains < 0.0) or not np.all(np.isfinite(gains)):
            raise ParameterError("gains must be finite and nonnegative")
        if self.c_b <= 0.0:
            raise ParameterError("C_B must be positive")
        if float(np.sum(gains**2)) > self.c_b * (1.0 + 1e-12):
            raise ParameterError(
                f"sum of squared gains {np.sum(gains**2):.6g} exceeds the "
                f"Hilbert-Schmidt budget C_B = {self.c_b:.6g}"
            )
        if self.clamp is not None and self.clamp <= 0.0:
            raise ParameterError("clamp must be positive when present")
        object.__setattr__(self, "gains", gains)
        if self.kind == "2d":
            if self.cutoff is None:
                raise ParameterError("2-D noise needs the field cutoff")
            support, amplitudes = _basis_2d(self.cutoff, self.n_w)
            object.__setattr__(self, "support", support)
            object.__setattr__(self, "amplitudes", amplitudes)
        elif self.kind != "1d":
            raise ParameterError(f"unknown noise kind {self.kind!r}")

    def g(self, h_norm):
        """Clamp factor for an H-norm, or elementwise for an array of them."""
        if self.clamp is None:
            return 1.0
        return self.clamp / np.maximum(self.clamp, h_norm)


def noise_operator_1d(n_w: int, gains, c_b: float,
                      clamp: float | None = None) -> NoiseOperator:
    return NoiseOperator(n_w=n_w, gains=np.asarray(gains, dtype=np.float64),
                         c_b=c_b, clamp=clamp, kind="1d")


def noise_operator_2d(n_w: int, gains, c_b: float, cutoff: int,
                      clamp: float | None = None) -> NoiseOperator:
    return NoiseOperator(n_w=n_w, gains=np.asarray(gains, dtype=np.float64),
                         c_b=c_b, clamp=clamp, kind="2d", cutoff=cutoff)


def increment_table(op: NoiseOperator, dt: float, experiment_seed: int,
                    replicate: int, n_steps: int) -> np.ndarray:
    """All Wiener increments of one trajectory in U: row s is sqrt(dt) times
    the ``standard_normal_table`` row of step s."""
    z = standard_normal_table(experiment_seed, replicate, n_steps, op.n_w)
    return np.sqrt(dt) * z


def hs_norm(op: NoiseOperator, h_norm):
    """Hilbert-Schmidt norm ||B(v)||_{L2(U;H)} at a state of H-norm ``h_norm``,
    or elementwise for an array of them (one number for additive noise)."""
    return np.sqrt(np.sum(op.gains**2)) * op.g(h_norm)


def support_values(op: NoiseOperator, w: np.ndarray) -> np.ndarray:
    """B w (g factor excluded) on the support of a 2-D operator, shape
    (..., len(op.support)) for ``w`` of shape (..., n_w); every other
    spectral entry of B w is zero."""
    return np.tensordot(op.gains * w, op.amplitudes, axes=(-1, 0))
