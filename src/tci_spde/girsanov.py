"""Girsanov shifts and shared-noise couplings.

A deterministic shift h: [0, T] -> U tilts the driving Wiener process;
the shifted process X and the unshifted process Y are driven by the same
increments, which realizes a coupling of the shifted law Q and the base
law P.  The density of Q against P along the path is

    log M_T = sum_k <h(t_k), dW_k> - 1/2 int ||h||_U^2 dt,

where dW are increments of the original process; under the shifted
simulation these are the drawn increments plus h dt.  The relative
entropy is H(Q | P) = 1/2 int ||h||^2 dt, exactly, since h is
deterministic.  ``coupled_ensemble`` reads both legs and the pairings
sum_k <h(t_k), dW_k> off one shifted ``solver.ensemble`` pass, and
``contraction_report`` checks the resulting squared-gap bound
E_Q sup_t ||X - Y||_H^2 <= C(T, K2, C_B) int ||h||^2 dt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._stats import mean_and_stderr
from .errors import ParameterError
from .models import ModelSpec
from .solver import SolverConfig, ensemble


@dataclass(frozen=True)
class ShiftFunction:
    """Piecewise-constant Cameron-Martin shift sampled on the step grid.

    ``values[i]`` is h(t_i); the dynamics use the left endpoint of each
    step, the entropy uses the trapezoid rule over the grid samples.
    """

    values: np.ndarray
    dt: float

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 2:
            raise ParameterError("shift values must be (n_steps + 1, n_w)")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("shift values must be finite")
        if self.dt <= 0.0:
            raise ParameterError("shift dt must be positive")
        object.__setattr__(self, "values", arr)

    @property
    def n_w(self) -> int:
        return self.values.shape[1]

    @property
    def horizon(self) -> float:
        return (self.values.shape[0] - 1) * self.dt

    def dynamic_rows(self) -> np.ndarray:
        return self.values[:-1]


def shift_from_descriptor(desc: dict, n_w: int, cfg: SolverConfig) -> ShiftFunction:
    """Build a shift from {"type", "mode_index", "amplitude"}.

    The direction is the U-coordinate ``mode_index`` (1-based).  ``constant``
    and ``mode`` hold the amplitude fixed; ``ramp`` scales it by t / T.
    """
    kind = desc.get("type", "constant")
    amplitude = float(desc.get("amplitude", 1.0))
    mode_index = int(desc.get("mode_index", 1))
    if kind not in ("constant", "ramp", "mode"):
        raise ParameterError(f"unknown shift type {kind!r}")
    if not 1 <= mode_index <= n_w:
        raise ParameterError(f"shift mode_index must lie in [1, {n_w}]")
    M = cfg.n_steps
    t = cfg.dt * np.arange(M + 1)
    profile = amplitude * (t / cfg.horizon) if kind == "ramp" \
        else np.full(M + 1, amplitude)
    values = np.zeros((M + 1, n_w))
    values[:, mode_index - 1] = profile
    return ShiftFunction(values=values, dt=cfg.dt)


def shift_entropy(h: ShiftFunction) -> float:
    """Relative entropy H(Q | P) = 1/2 int_0^T ||h(s)||_U^2 ds (trapezoid)."""
    s = np.sum(h.values**2, axis=1)
    integral = h.dt * (0.5 * s[0] + float(np.sum(s[1:-1])) + 0.5 * s[-1])
    return 0.5 * integral


def _check_shift(model: ModelSpec, cfg: SolverConfig, h: ShiftFunction):
    if h.n_w != model.noise.n_w:
        raise ParameterError("shift dimension disagrees with the noise")
    if abs(h.horizon - cfg.horizon) > 1e-9 or abs(h.dt - cfg.dt) > 1e-15:
        raise ParameterError("shift grid disagrees with the solver grid")


def coupled_ensemble(model: ModelSpec, cfg: SolverConfig, x0, h: ShiftFunction,
                     n_replicates: int, experiment_seed: int) -> dict:
    """Replicate arrays for the coupling checks, from one shifted
    ``solver.ensemble`` pass: each replicate's increment table is drawn
    once and drives both legs and its log-density.  ``shifted`` and
    ``unshifted`` hold per-replicate path summaries on which any
    functional can be evaluated.
    """
    _check_shift(model, cfg, h)
    rows = h.dynamic_rows()
    ens = ensemble(model, cfg, x0, experiment_seed, range(n_replicates),
                   shift=rows)
    i_left = h.dt * float(np.sum(rows**2))
    # log M_T with the draws read under the base measure; subtracting half
    # the left-rule integral (the variance of the pairing) makes E exp(.) = 1
    # exactly.
    return {"sup_gap_sq": ens.sup_gap_sq,
            "log_rn": ens.pairing + i_left - shift_entropy(h),
            "log_rn_base_view": ens.pairing - 0.5 * i_left,
            "shifted": ens.paths[:n_replicates],
            "unshifted": ens.paths[n_replicates:],
            "n_replicates": int(n_replicates),
            "experiment_seed": int(experiment_seed)}


def contraction_report(model: ModelSpec, h: ShiftFunction, coupled: dict,
                       c_t2: float) -> dict:
    """Girsanov coupling audit of the ``coupled_ensemble`` ``coupled`` of
    shift ``h``: martingale normalization, entropy identity, and the
    squared-gap contraction bound with the T2 constant ``c_t2``.

    Verdicts are one-sided at three standard errors; the gap bound compares
    mean + 3 stderr against C(T, K2, C_B) int ||h||^2 dt.
    """
    entropy = shift_entropy(h)
    cost = 2.0 * entropy
    bound = c_t2 * cost

    gap_mean, gap_se = mean_and_stderr(coupled["sup_gap_sq"])
    mart_mean, mart_se = mean_and_stderr(np.exp(coupled["log_rn_base_view"]))
    ent_mean, ent_se = mean_and_stderr(coupled["log_rn"])

    return {
        "model": model.kind,
        "n_replicates": int(coupled["n_replicates"]),
        "experiment_seed": int(coupled["experiment_seed"]),
        "shift_entropy": float(entropy),
        "girsanov_cost": float(cost),
        "martingale": {
            "mean": float(mart_mean),
            "stderr": float(mart_se),
            "expected": 1.0,
            "pass": bool(abs(mart_mean - 1.0) <= 3.0 * mart_se),
        },
        "entropy_identity": {
            "mean": float(ent_mean),
            "stderr": float(ent_se),
            "expected": float(entropy),
            "pass": bool(abs(ent_mean - entropy) <= 3.0 * ent_se),
        },
        "sup_gap_sq": {"mean": float(gap_mean), "stderr": float(gap_se)},
        "t2_constant": float(c_t2),
        "bound": float(bound),
        "margin": float(bound - (gap_mean + 3.0 * gap_se)),
        "pass": bool(gap_mean + 3.0 * gap_se <= bound),
    }
