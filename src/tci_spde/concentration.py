"""Monte Carlo concentration checks and empirical Wasserstein distances.

Lipschitz functionals of trajectories turn path laws into scalar
ensembles; exponential moments, Gaussian tails and empirical W2 of those
ensembles witness the transportation inequalities one-sidedly.
``functional_ensemble`` and ``moment_report`` are statistics over
``solver.ensemble`` passes; the checks are statistics over values (or a
coupled ensemble) the caller has already solved, with constants the
caller has already computed.  Exponential moments use max-subtraction
and report an infinite flag instead of clipping when the exponent range
is unrepresentable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import exp_or_inf
from ._stats import fsum_mean, mean_and_stderr, verdict, wilson_upper
from .errors import ParameterError
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

    def values(self, paths: np.ndarray, space) -> np.ndarray:
        """The functional on every row of a path-summary array
        (``solver.solve_block``) of states of ``space``."""
        if self.kind == "l2_V_path_norm":
            return np.sqrt(paths["v_energy_total"])
        if self.kind == "sup_H_norm":
            return np.array(paths["sup_h_total"])
        last = paths["terminal"]
        if self.kind == "terminal_H_norm":
            return np.sqrt(space.sq_norms(last))
        return space.inners(last, self.probe)


def l2_v_path_functional() -> FunctionalSpec:
    return FunctionalSpec("l2_V_path_norm", 1.0, "L2_V_path")


def sup_h_functional() -> FunctionalSpec:
    return FunctionalSpec("sup_H_norm", 1.0, "uniform_H")


def terminal_h_functional() -> FunctionalSpec:
    return FunctionalSpec("terminal_H_norm", 1.0, "uniform_H")


def linear_probe_functional(probe, space) -> FunctionalSpec:
    """<g, u_T> with Lipschitz constant ||g||_H for the uniform_H metric;
    ``probe`` is the raw state g, checked as a state of ``space``."""
    raw = space.check(probe)
    norm = math.sqrt(float(space.sq_norms(raw)))
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
        ensemble(model, cfg, x0, experiment_seed, range(n_replicates)).paths,
        model.space)


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

    Each entry is an ``excess`` verdict (``_stats.verdict``), so the
    Gaussian equality case passes.
    """
    if C <= 0.0:
        raise ParameterError("C must be positive")
    values = _ensemble_values(values)
    entries = []
    for lam in lambda_grid:
        res = exp_moment_empirical(values, lam)
        bound = exp_or_inf(0.5 * C * lam * lam * lip * lip)
        entries.append({
            "lambda": float(lam),
            "estimate": res["estimate"],
            "stderr": res["stderr"],
            "infinite": res["infinite"],
            **verdict(res["estimate"], res["stderr"], bound, "excess"),
        })
    return {"C": float(C), "lipschitz_constant": float(lip),
            "entries": entries,
            "pass": bool(all(ent["pass"] for ent in entries))}


def gaussian_tail_check(values, lip: float, C: float, r_grid) -> dict:
    """Empirical upper tails of F - mean, for the values of a functional F
    with Lipschitz constant ``lip``, against exp(-r^2 / (2 C L^2)).

    The verdict compares a Wilson upper confidence limit (z = ``Z``) for the
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


def exp_moment_check(values, a: float, bound: float) -> dict:
    """E exp(c lambda0 theta int ||X||_V^2 dt) against exp(lambda0 (int f~
    dt + ||x0||_H^2)), from l2_V_path_norm ``values``: (a, bound) is the
    Gaussian moment pair of ``constants.t1_constants``; ``upper`` verdict."""
    values = _ensemble_values(values)
    exponent = a * values**2
    if float(np.max(exponent)) > _EXP_RANGE:
        estimate, stderr, infinite = math.inf, math.inf, True
    else:
        estimate, stderr = mean_and_stderr(np.exp(exponent))
        infinite = False
    return {"a": float(a), "n_replicates": int(values.size),
            "estimate": float(estimate), "stderr": float(stderr),
            "infinite": bool(infinite),
            **verdict(estimate, stderr, bound, "upper")}


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


def t2_chain_check(model: ModelSpec, functional: FunctionalSpec,
                   coupled: dict, c_t2: float) -> dict:
    """W2 of functional marginals against L sqrt(2 C H(Q | P)), from the
    ``girsanov.coupled_ensemble`` ``coupled``, which carries H(Q | P), and
    the T2 constant ``c_t2``.

    One-Lipschitz functionals cannot expand W2, so the image-measure
    distance is a sound one-sided witness of the path-space inequality;
    the verdict is ``excess`` on the combined standard error of the two
    marginal means.
    """
    fx = functional.values(coupled["shifted"], model.space)
    fy = functional.values(coupled["unshifted"], model.space)
    entropy = coupled["shift_entropy"]
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
        "combined_stderr": float(combined),
        **verdict(w2, combined, bound, "excess"),
    }


# ---------------------------------------------------------------------------
# moment stability


def _moment_pass(model, cfg, x0, experiment_seed, p, replicates,
                 record=False):
    ens = ensemble(model, cfg, x0, experiment_seed, replicates, record=record)
    arr = np.stack([ens.paths["sup_h_total"] ** p,
                    ens.paths["v_energy_total"]], axis=1)
    sup_mean, sup_se = mean_and_stderr(arr[:, 0])
    v_mean, v_se = mean_and_stderr(arr[:, 1])
    return {
        "dt": float(cfg.dt),
        "sup_h_moment": {"mean": float(sup_mean), "stderr": float(sup_se)},
        "v_energy": {"mean": float(v_mean), "stderr": float(v_se)},
        "finite": bool(np.all(np.isfinite(arr))),
    }, ens


def moment_report(model: ModelSpec, cfg: SolverConfig, x0,
                  n_replicates: int = 256, experiment_seed: int = 0,
                  p: float = 2.0):
    """E sup_t ||X||_H^p and E int ||X||_V^2 dt, and their stability under
    dt-refinement.

    The refined pass halves dt on a fresh replicate lane; stability means
    both moments stay within a factor of two of the base pass.  Returns
    (report, block): ``block`` is the base pass's Block, whose ``paths``
    row 0 and ``norms`` are replicate 0's.
    """
    if n_replicates < 2:
        raise ParameterError("need at least two replicates")
    base, ens = _moment_pass(model, cfg, x0, experiment_seed, p,
                             list(range(n_replicates)), record=True)
    report = {
        "model": model.kind,
        "p": float(p),
        "n_replicates": int(n_replicates),
        "experiment_seed": int(experiment_seed),
        "base": base,
    }
    fine_cfg = SolverConfig(dt=cfg.dt / 2.0, horizon=cfg.horizon)
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
    return report, ens
