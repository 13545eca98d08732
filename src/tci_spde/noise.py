"""Cylindrical Wiener increments and diagonal noise operators.

The driving noise lives on U = R^{n_w}.  Increment generation is
counter-based: the triple (experiment_seed, replicate, step) addresses a
fixed block of a Philox stream, so any replicate or step can be produced
out of order, in parallel, bitwise identically.  Normals come from the
inverse CDF applied to 53-bit uniforms, one raw draw per normal, which
keeps the stream position a pure function of the counter.

A noise operator is the U side of B alone: U-coordinate j has gain b_j,
optionally scaled by a bounded clamp g(||v||_H), and the squared
Hilbert-Schmidt norm g(||v||_H)^2 sum_j b_j^2 is capped by the declared
budget C_B.  Which field feeds coordinate j is the space's business:
``fields.SineSpace`` and ``fields.TorusSpace`` embed B w into their states.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class NoiseOperator:
    """Diagonal map from U = R^{n_w}: U-coordinate j has gain b_j.

    ``clamp`` of None means additive noise (g identically 1); a positive
    clamp R gives the bounded multiplicative factor g(s) = R / max(R, s).
    The operator knows nothing of the field space: each space embeds
    B w into its states (``SineSpace.add_noise``, ``TorusSpace.add_noise``).
    """

    n_w: int
    gains: np.ndarray
    c_b: float
    clamp: float | None = None

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

    def g(self, h_norm):
        """Clamp factor for an H-norm, or elementwise for an array of them."""
        if self.clamp is None:
            return 1.0
        return self.clamp / np.maximum(self.clamp, h_norm)


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
