"""Girsanov shifts and shared-noise couplings.

A deterministic shift h: [0, T] -> U tilts the driving Wiener process;
the shifted process X and the unshifted process Y are driven by the same
increments, which realizes a coupling of the shifted law Q and the base
law P.  The density of Q against P along the path is

    log M_T = sum_k <h(t_k), dW_k> - 1/2 int ||h||_U^2 dt,

where dW are increments of the original process; under the shifted
simulation these are the drawn increments plus h dt.  The relative
entropy is H(Q | P) = 1/2 int ||h||^2 dt, exactly, since h is
deterministic.  A shift is its (n_steps + 1, n_w) array of values
h(t_k) on the solver grid, with the solver's dt: the dynamics read rows
0..n_steps-1, the trapezoid entropy all of them.  ``coupled_ensemble``
reads both legs and the pairings sum_k <h(t_k), dW_k> off one shifted
``solver.ensemble`` pass and computes H(Q | P) once, and
``contraction_report`` checks the resulting squared-gap bound
E_Q sup_t ||X - Y||_H^2 <= C(T, K2, C_B) int ||h||^2 dt.
"""

from __future__ import annotations

import numpy as np

from ._stats import mean_and_stderr, verdict
from .errors import ParameterError
from .models import ModelSpec
from .solver import SolverConfig, ensemble


def shift_from_descriptor(desc: dict, n_w: int, cfg: SolverConfig) -> np.ndarray:
    """The (n_steps + 1, n_w) values h(t_k) on the grid of ``cfg`` of the
    shift {"type", "mode_index", "amplitude"}.

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
    return values


def shift_entropy(h: np.ndarray, dt: float) -> float:
    """Relative entropy H(Q | P) = 1/2 int_0^T ||h(s)||_U^2 ds of the grid
    values ``h``, by the trapezoid rule over all n_steps + 1 of them."""
    s = np.sum(h**2, axis=1)
    integral = dt * (0.5 * s[0] + float(np.sum(s[1:-1])) + 0.5 * s[-1])
    return 0.5 * integral


def coupled_ensemble(model: ModelSpec, cfg: SolverConfig, x0, h: np.ndarray,
                     n_replicates: int, experiment_seed: int) -> dict:
    """Replicate arrays for the coupling checks, from one ``solver.ensemble``
    pass shifted by the (n_steps + 1, n_w) values ``h``: each replicate's
    increments are drawn once and drive both legs and, through the pairing
    that the step loop sums, its log-density.  ``shifted`` and
    ``unshifted`` hold per-replicate path summaries on which any functional
    can be evaluated; ``shift_entropy`` is H(Q | P), read by every check.
    """
    ens = ensemble(model, cfg, x0, experiment_seed, range(n_replicates),
                   shift=h)
    i_left = cfg.dt * float(np.sum(h[:-1]**2))
    entropy = shift_entropy(h, cfg.dt)
    # log M_T with the draws read under the base measure; subtracting half
    # the left-rule integral (the variance of the pairing) makes E exp(.) = 1
    # exactly.
    return {"sup_gap_sq": ens.sup_gap_sq,
            "log_rn": ens.pairing + i_left - entropy,
            "log_rn_base_view": ens.pairing - 0.5 * i_left,
            "shift_entropy": entropy,
            "shifted": ens.paths[:n_replicates],
            "unshifted": ens.paths[n_replicates:],
            "n_replicates": int(n_replicates),
            "experiment_seed": int(experiment_seed)}


def contraction_report(model: ModelSpec, coupled: dict, c_t2: float) -> dict:
    """Girsanov coupling audit of the ``coupled_ensemble`` ``coupled``:
    martingale normalization, entropy identity, and the squared-gap
    contraction bound with the T2 constant ``c_t2``.

    The martingale and entropy verdicts are ``two_sided`` and the gap
    against C(T, K2, C_B) int ||h||^2 dt is ``upper`` (``_stats.verdict``).
    """
    entropy = coupled["shift_entropy"]
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
        "martingale": {"mean": float(mart_mean), "stderr": float(mart_se),
                       **verdict(mart_mean, mart_se, 1.0, "two_sided")},
        "entropy_identity": {
            "mean": float(ent_mean), "stderr": float(ent_se),
            **verdict(ent_mean, ent_se, entropy, "two_sided")},
        "sup_gap_sq": {"mean": float(gap_mean), "stderr": float(gap_se)},
        "t2_constant": float(c_t2),
        **verdict(gap_mean, gap_se, bound, "upper"),
    }
