"""Monte Carlo concentration checks and empirical Wasserstein distances.

Lipschitz functionals of trajectories turn path laws into scalar
ensembles; exponential moments, Gaussian tails and empirical W2 of those
ensembles witness the transportation inequalities one-sidedly.
``functional_ensemble`` and ``moment_report`` are statistics over
``solver.ensemble`` passes; the checks are statistics over values (or a
coupled ensemble) the caller has already solved, with constants the
caller has already computed.  All
statistical verdicts are one-sided at three standard errors; exponential
moments use max-subtraction and report an infinite flag instead of
clipping when the exponent range is unrepresentable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fields as fs
from .constants import gaussian_moment_pair
from ._stats import fsum_mean, mean_and_stderr, wilson_upper
from .errors import ParameterError
from .girsanov import ShiftFunction, shift_entropy
from .models import ModelSpec
from .noise import LANE_REFINED, derived_replicate
from .solver import SolverConfig, ensemble

_EXP_RANGE = 700.0


# ---------------------------------------------------------------------------
# Lipschitz functionals of trajectories


@dataclass(frozen=True)
class FunctionalSpec:
    """A scalar functional of a trajectory with a declared Lipschitz bound.

    ``metric`` names the path distance the bound refers to: ``L2_V_path``
    is the L^2-in-time V-norm of the difference, ``uniform_H`` the sup-in-
    time H-norm.  ``probe`` carries the dual element of a linear probe.
    """

    kind: str
    lipschitz_constant: float
    metric: str
    probe: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("l2_V_path_norm", "sup_H_norm",
                             "terminal_H_norm", "linear_probe"):
            raise ParameterError(f"unknown functional kind {self.kind!r}")
        if self.metric not in ("L2_V_path", "uniform_H"):
            raise ParameterError(f"unknown metric {self.metric!r}")
        if self.lipschitz_constant <= 0.0:
            raise ParameterError("lipschitz_constant must be positive")
        if self.kind == "linear_probe" and self.probe is None:
            raise ParameterError("linear_probe needs a probe element")

    def values(self, paths: np.ndarray) -> np.ndarray:
        """The functional on every row of a path-summary array
        (``solver.solve_block``)."""
        if self.kind == "l2_V_path_norm":
            return np.sqrt(paths["v_energy_total"])
        if self.kind == "sup_H_norm":
            return np.array(paths["sup_h_total"])
        last = paths["terminal"]
        if self.kind == "terminal_H_norm":
            return fs.norms_h(last)
        return fs.inners_h(last, self.probe)


def l2_v_path_functional() -> FunctionalSpec:
    return FunctionalSpec("l2_V_path_norm", 1.0, "L2_V_path")


def sup_h_functional() -> FunctionalSpec:
    return FunctionalSpec("sup_H_norm", 1.0, "uniform_H")


def terminal_h_functional() -> FunctionalSpec:
    return FunctionalSpec("terminal_H_norm", 1.0, "uniform_H")


def linear_probe_functional(probe) -> FunctionalSpec:
    """<g, u_T> with Lipschitz constant ||g||_H for the uniform_H metric;
    ``probe`` is the raw state g."""
    raw = np.asarray(probe)
    norm = float(fs.norms_h(raw))
    if norm <= 0.0:
        raise ParameterError("probe element must be nonzero")
    return FunctionalSpec("linear_probe", norm, "uniform_H", probe=raw)


# ---------------------------------------------------------------------------
# scalar ensembles


def functional_ensemble(model: ModelSpec, cfg: SolverConfig, x0,
                        functional: FunctionalSpec, n_replicates: int,
                        experiment_seed: int) -> np.ndarray:
    """The values of one functional on independent replicates 0..n-1, from
    one ``solver.ensemble`` pass."""
    return functional.values(
        ensemble(model, cfg, x0, experiment_seed, range(n_replicates)).paths)


def _ensemble_values(values) -> np.ndarray:
    """Replicate values as a 1-D float array of at least two finite entries."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size < 2:
        raise ParameterError("need at least two replicate values")
    if not np.all(np.isfinite(values)):
        raise ParameterError("ensemble values must be finite")
    return values


# ---------------------------------------------------------------------------
# exponential moments and tails


def exp_moment_empirical(values, lam: float) -> dict:
    """(1/M) sum exp(lam (v_i - mean)) with a jackknife standard error.

    Stabilized by max-subtraction; when lam times the value range exceeds
    the representable exponent the estimate is flagged infinite rather
    than silently clipped.
    """
    values = _ensemble_values(values)
    m_count = values.size
    mean = fsum_mean(values)
    dev = values - mean
    x = lam * dev
    if float(np.max(x) - np.min(x)) > _EXP_RANGE:
        return {"lambda": float(lam), "estimate": math.inf,
                "stderr": math.inf, "infinite": True, "n": int(m_count)}
    shift = float(np.max(x))
    terms = np.exp(x - shift)
    total = math.fsum(terms)
    estimate = math.exp(shift) * (total / m_count)

    # Exact leave-one-out estimates in O(M): dropping sample i recenters
    # the remaining values by dev_i / (M - 1).
    recenter = np.exp(lam * dev / (m_count - 1))
    loo = math.exp(shift) * recenter * (total - terms) / (m_count - 1)
    loo_mean = fsum_mean(loo)
    stderr = math.sqrt((m_count - 1) / m_count
                       * math.fsum((loo - loo_mean) ** 2))
    return {"lambda": float(lam), "estimate": float(estimate),
            "stderr": float(stderr), "infinite": False, "n": int(m_count)}


def bobkov_gotze_check(values, lip: float, C: float, lambda_grid) -> dict:
    """Centered exponential moments of the values of a functional with
    Lipschitz constant ``lip`` against exp(C lam^2 L^2 / 2).

    A violation is declared only when the estimate exceeds the bound by
    more than three standard errors; the Gaussian equality case must pass.
    """
    if C <= 0.0:
        raise ParameterError("C must be positive")
    values = _ensemble_values(values)
    entries = []
    for lam in lambda_grid:
        res = exp_moment_empirical(values, lam)
        bound = math.exp(0.5 * C * lam * lam * lip * lip)
        ok = (not res["infinite"]
              and res["estimate"] <= bound + 3.0 * res["stderr"])
        entries.append({
            "lambda": float(lam),
            "estimate": res["estimate"],
            "stderr": res["stderr"],
            "infinite": res["infinite"],
            "bound": float(bound),
            "margin": float(bound - res["estimate"]),
            "pass": bool(ok),
        })
    return {"C": float(C), "lipschitz_constant": float(lip),
            "entries": entries,
            "pass": bool(all(ent["pass"] for ent in entries))}


def gaussian_tail_check(values, lip: float, C: float, r_grid) -> dict:
    """Empirical upper tails of F - mean, for the values of a functional F
    with Lipschitz constant ``lip``, against exp(-r^2 / (2 C L^2)).

    The verdict compares a Wilson upper confidence limit (z = 3) for the
    tail probability with the Gaussian bound.
    """
    if C <= 0.0:
        raise ParameterError("C must be positive")
    values = _ensemble_values(values)
    dev = values - fsum_mean(values)
    n = values.size
    entries = []
    for r in r_grid:
        if r < 0.0:
            raise ParameterError("tail radii must be nonnegative")
        count = int(np.sum(dev >= r))
        upper = wilson_upper(count, n)
        bound = math.exp(-r * r / (2.0 * C * lip * lip))
        entries.append({
            "r": float(r),
            "count": count,
            "empirical": count / n,
            "wilson_upper": float(upper),
            "bound": float(bound),
            "pass": bool(upper <= bound),
        })
    return {"C": float(C), "lipschitz_constant": float(lip), "n": int(n),
            "entries": entries,
            "pass": bool(all(ent["pass"] for ent in entries))}


def check_lambda0(lambda0: float, lambda0_max: float):
    """Raise unless lambda0 lies in the admissible interval (0, lambda0_max)."""
    if not 0.0 < lambda0 < lambda0_max:
        raise ParameterError(f"lambda0 must lie in (0, {lambda0_max:.6g})")


def exp_moment_check(model: ModelSpec, values, c: float, lambda0: float,
                     lambda0_max: float, f_int: float, x0_sq: float,
                     experiment_seed: int) -> dict:
    """E exp(c lambda0 theta int ||X||_V^2 dt) against its closed-form bound
    exp(lambda0 (f_int + x0_sq)), from l2_V_path_norm ``values``.

    lambda0 must lie below ``lambda0_max``, the smaller (moment-lemma)
    bound of ``constants.admissible_ranges``; ``f_int`` is int f~ dt and
    ``x0_sq`` is ||x0||_H^2.  The verdict is conservative, estimate plus
    three standard errors against the bound.
    """
    check_lambda0(lambda0, lambda0_max)
    values = _ensemble_values(values)
    a, bound = gaussian_moment_pair(c, lambda0, model.constants.theta, f_int,
                                    x0_sq)
    exponent = a * values**2
    if float(np.max(exponent)) > _EXP_RANGE:
        estimate, stderr, infinite = math.inf, math.inf, True
    else:
        estimate, stderr = mean_and_stderr(np.exp(exponent))
        infinite = False
    ok = (not infinite) and estimate + 3.0 * stderr <= bound
    return {
        "model": model.kind,
        "c": float(c),
        "lambda0": float(lambda0),
        "lambda0_max_lemma": float(lambda0_max),
        "a": float(a),
        "n_replicates": int(values.size),
        "experiment_seed": int(experiment_seed),
        "estimate": float(estimate),
        "stderr": float(stderr),
        "infinite": bool(infinite),
        "f_tilde_integral": float(f_int),
        "x0_h_norm_sq": float(x0_sq),
        "bound": float(bound),
        "margin": float(bound - (estimate + 3.0 * stderr)),
        "pass": bool(ok),
    }


# ---------------------------------------------------------------------------
# empirical Wasserstein-2


def w2_sorted_1d(a, b) -> float:
    """Exact W2 between equal-size 1-D empirical laws (sorted pairing)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size or a.size == 0:
        raise ParameterError("samples must be 1-D and of equal size")
    diff = np.sort(a) - np.sort(b)
    return math.sqrt(float(np.mean(diff**2)))


def w2_small_cloud(a, b) -> float:
    """Exact W2 between small equal-size point clouds in R^d.

    Solves the optimal assignment on squared distances; instances beyond
    n = 256 or d = 8 are refused (use w2_sorted_1d on scalar functionals
    for large ensembles).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] == 0:
        raise ParameterError("clouds must have identical (n, d) shapes")
    n, d = a.shape
    if n > 256 or d > 8:
        raise ParameterError(
            "cloud too large for exact assignment (n <= 256, d <= 8); "
            "use w2_sorted_1d on scalar functionals instead")
    # scipy.optimize costs most of the package import time and ~24 MB, and
    # only this function needs it.
    from scipy.optimize import linear_sum_assignment

    cost = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    return math.sqrt(float(np.mean(cost[rows, cols])))


def t2_chain_check(model: ModelSpec, h: ShiftFunction,
                   functional: FunctionalSpec, coupled: dict,
                   c_t2: float) -> dict:
    """W2 of functional marginals against L sqrt(2 C H(Q | P)), from the
    ``girsanov.coupled_ensemble`` ``coupled`` of shift ``h`` and the T2
    constant ``c_t2``.

    One-Lipschitz functionals cannot expand W2, so the image-measure
    distance is a sound one-sided witness of the path-space inequality.
    """
    fx = functional.values(coupled["shifted"])
    fy = functional.values(coupled["unshifted"])
    entropy = shift_entropy(h)
    w2 = w2_sorted_1d(fx, fy)
    lip = functional.lipschitz_constant
    bound = lip * math.sqrt(2.0 * c_t2 * entropy)
    _, se_x = mean_and_stderr(fx)
    _, se_y = mean_and_stderr(fy)
    combined = math.sqrt(se_x**2 + se_y**2)
    return {
        "model": model.kind,
        "functional": functional.kind,
        "lipschitz_constant": float(lip),
        "n_replicates": int(coupled["n_replicates"]),
        "experiment_seed": int(coupled["experiment_seed"]),
        "shift_entropy": float(entropy),
        "w2_empirical": float(w2),
        "t2_constant": float(c_t2),
        "bound": float(bound),
        "combined_stderr": float(combined),
        "margin": float(bound - w2),
        "pass": bool(w2 <= bound + 3.0 * combined),
    }


# ---------------------------------------------------------------------------
# moment stability


def _moment_pass(model, cfg, x0, experiment_seed, p, replicates,
                 record_rep=None):
    ens = ensemble(model, cfg, x0, experiment_seed, replicates,
                   record_rep=record_rep)
    arr = np.stack([ens.paths["sup_h_total"] ** p,
                    ens.paths["v_energy_total"]], axis=1)
    sup_mean, sup_se = mean_and_stderr(arr[:, 0])
    v_mean, v_se = mean_and_stderr(arr[:, 1])
    return {
        "dt": float(cfg.dt),
        "sup_h_moment": {"mean": float(sup_mean), "stderr": float(sup_se)},
        "v_energy": {"mean": float(v_mean), "stderr": float(v_se)},
        "finite": bool(np.all(np.isfinite(arr))),
    }, ens.trajectories[0] if ens.trajectories else None


def moment_report(model: ModelSpec, cfg: SolverConfig, x0,
                  n_replicates: int = 256, experiment_seed: int = 0,
                  p: float = 2.0, refine: bool = True):
    """E sup_t ||X||_H^p and E int ||X||_V^2 dt with a dt-refinement flag.

    The refined pass halves dt on a fresh replicate lane; stability means
    both moments stay within a factor of two of the base pass.  Returns
    (report, trajectory): the trajectory is replicate 0's norm path,
    recorded without states as row 0 of the base pass.
    """
    if n_replicates < 2:
        raise ParameterError("need at least two replicates")
    base, first = _moment_pass(model, cfg, x0, experiment_seed, p,
                               list(range(n_replicates)), record_rep=0)
    report = {
        "model": model.kind,
        "p": float(p),
        "n_replicates": int(n_replicates),
        "experiment_seed": int(experiment_seed),
        "base": base,
    }
    if not refine:
        report["pass"] = base["finite"]
        return report, first
    fine_cfg = SolverConfig(dt=cfg.dt / 2.0, horizon=cfg.horizon,
                            snapshot_stride=cfg.snapshot_stride)
    fine, _ = _moment_pass(model, fine_cfg, x0, experiment_seed, p,
                           [derived_replicate(LANE_REFINED, r)
                            for r in range(n_replicates)])

    def _stable(key):
        lo, hi = sorted((base[key]["mean"], fine[key]["mean"]))
        return hi <= 2.0 * lo + 1e-12

    stable = _stable("sup_h_moment") and _stable("v_energy")
    report["refined"] = fine
    report["stable_under_refinement"] = bool(stable)
    report["pass"] = bool(base["finite"] and fine["finite"] and stable)
    return report, first
