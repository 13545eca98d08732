"""Monte Carlo concentration checks and empirical Wasserstein distances.

Lipschitz functionals of trajectories turn path laws into scalar
ensembles; exponential moments, Gaussian tails and empirical W2 of those
ensembles witness the transportation inequalities one-sidedly.  All
statistical verdicts are one-sided at three standard errors; exponential
moments use max-subtraction and report an infinite flag instead of
clipping when the exponent range is unrepresentable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._stats import fsum_mean, mean_and_stderr, wilson_upper
from .errors import ParameterError
from .fields import _wavegrids
from .girsanov import ShiftFunction, coupled_ensemble, shift_entropy
from .models import ModelSpec
from .noise import LANE_REFINED, derived_replicate
from .solver import SolverConfig, Trajectory, map_blocks, solve_block

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

    def __call__(self, traj: Trajectory) -> float:
        return float(self.values(traj.summary())[0])

    def values(self, paths: np.ndarray) -> np.ndarray:
        """The functional on every row of a path-summary array
        (``solver.solve_block``, ``Trajectory.summary``)."""
        if self.kind == "l2_V_path_norm":
            return np.sqrt(paths["v_energy_total"])
        if self.kind == "sup_H_norm":
            return np.array(paths["sup_h_total"])
        last = paths["terminal"].reshape(len(paths), -1)
        if self.kind == "terminal_H_norm":
            return np.sqrt(_sq_norms(last))
        probe = self.probe.ravel()
        if last.dtype.kind == "c":
            return np.real(np.sum(np.conj(probe) * last, axis=1))
        return np.matmul(last[:, None, :], probe[:, None])[:, 0, 0]


def _sq_norms(rows: np.ndarray) -> np.ndarray:
    """Squared H-norm of each row of flattened raw states; a real row's is
    its BLAS dot product, the value ``np.dot`` gives."""
    if rows.dtype.kind == "c":
        return np.sum(np.abs(rows) ** 2, axis=1)
    return np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]


def _state_h_norm(state: np.ndarray) -> float:
    return math.sqrt(float(_sq_norms(state.reshape(1, -1))[0]))


def l2_v_path_functional() -> FunctionalSpec:
    return FunctionalSpec("l2_V_path_norm", 1.0, "L2_V_path")


def sup_h_functional() -> FunctionalSpec:
    return FunctionalSpec("sup_H_norm", 1.0, "uniform_H")


def terminal_h_functional() -> FunctionalSpec:
    return FunctionalSpec("terminal_H_norm", 1.0, "uniform_H")


def linear_probe_functional(probe) -> FunctionalSpec:
    """<g, u_T> with Lipschitz constant ||g||_H for the uniform_H metric."""
    raw = np.asarray(getattr(probe, "coeffs", getattr(probe, "spec", probe)))
    norm = _state_h_norm(raw)
    if norm <= 0.0:
        raise ParameterError("probe element must be nonzero")
    return FunctionalSpec("linear_probe", norm, "uniform_H", probe=raw)


def _path_v_weights(states: np.ndarray) -> np.ndarray:
    if states.dtype.kind == "c":
        cutoff = (states.shape[-1] - 1) // 2
        return 4.0 * math.pi**2 * _wavegrids(cutoff)[2]
    k = np.arange(1, states.shape[-1] + 1, dtype=np.float64)
    return (k * math.pi) ** 2


def trajectory_from_states(times: np.ndarray, states: np.ndarray,
                           kind: str) -> Trajectory:
    """Wrap raw snapshots, recomputing the running V-energy and sup-H norm."""
    times = np.asarray(times, dtype=np.float64)
    states = np.asarray(states)
    if times.ndim != 1 or times.shape[0] != states.shape[0]:
        raise ParameterError("times and states disagree")
    w = _path_v_weights(states)
    p = np.abs(states) ** 2 if states.dtype.kind == "c" else states**2
    axes = tuple(range(1, states.ndim))
    h_sq = np.sum(p, axis=axes)
    if states.dtype.kind == "c":
        v_sq = np.sum(w[None, None, :, :] * p, axis=axes)
    else:
        v_sq = np.sum(w[None, :] * p, axis=axes)
    dt = np.diff(times)
    v_energy = np.concatenate(
        [[0.0], np.cumsum(0.5 * dt * (v_sq[:-1] + v_sq[1:]))])
    return Trajectory(times=times, states=states, h_sq=h_sq, v_sq=v_sq,
                      v_energy=v_energy,
                      sup_h_norm=np.maximum.accumulate(np.sqrt(h_sq)), kind=kind)


def metric_distance(metric: str, a: Trajectory, b: Trajectory) -> float:
    """Path distance between two trajectories on the same time grid."""
    if a.states.shape != b.states.shape or not np.allclose(a.times, b.times):
        raise ParameterError("trajectories live on different grids")
    diff = a.states - b.states
    p = np.abs(diff) ** 2 if diff.dtype.kind == "c" else diff**2
    axes = tuple(range(1, diff.ndim))
    if metric == "uniform_H":
        return math.sqrt(float(np.max(np.sum(p, axis=axes))))
    if metric != "L2_V_path":
        raise ParameterError(f"unknown metric {metric!r}")
    w = _path_v_weights(a.states)
    if diff.dtype.kind == "c":
        v_sq = np.sum(w[None, None, :, :] * p, axis=axes)
    else:
        v_sq = np.sum(w[None, :] * p, axis=axes)
    dt = np.diff(a.times)
    return math.sqrt(float(np.sum(0.5 * dt * (v_sq[:-1] + v_sq[1:]))))


def lipschitz_audit(functional: FunctionalSpec, pairs) -> dict:
    """|F(u) - F(v)| <= L d(u, v) over trajectory pairs; lists violations."""
    worst = -math.inf
    violations = 0
    n = 0
    for a, b in pairs:
        gap = abs(functional(a) - functional(b))
        dist = functional.lipschitz_constant * metric_distance(
            functional.metric, a, b)
        margin = gap - dist
        worst = max(worst, margin)
        if margin > 1e-9 * max(1.0, dist):
            violations += 1
        n += 1
    return {"kind": functional.kind, "n_pairs": n,
            "violations": violations, "worst_margin": worst,
            "pass": violations == 0}


# ---------------------------------------------------------------------------
# scalar ensembles


@dataclass
class Ensemble:
    """Replicate values of one functional under a fixed experiment seed."""

    values: np.ndarray
    functional: FunctionalSpec | None
    experiment_seed: int
    replicates: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.replicates = np.asarray(self.replicates, dtype=np.int64)
        if self.values.ndim != 1 or self.values.shape != self.replicates.shape:
            raise ParameterError("values and replicates disagree")
        if not np.all(np.isfinite(self.values)):
            raise ParameterError("ensemble values must be finite")


def _path_block(replicates, model, cfg, x0, experiment_seed) -> np.ndarray:
    return solve_block(model, cfg, x0, experiment_seed, replicates).paths


def _ensemble_paths(model, cfg, x0, experiment_seed, replicates) -> np.ndarray:
    """Path summaries of independent replicates, stepped in blocks."""
    return np.concatenate(map_blocks(
        partial(_path_block, model=model, cfg=cfg, x0=x0,
                experiment_seed=experiment_seed), replicates))


def functional_ensemble(model: ModelSpec, cfg: SolverConfig, x0,
                        functional: FunctionalSpec, n_replicates: int,
                        experiment_seed: int) -> Ensemble:
    """Independent replicates of one functional, parallel over blocks."""
    reps = list(range(n_replicates))
    paths = _ensemble_paths(model, cfg, x0, experiment_seed, reps)
    return Ensemble(values=functional.values(paths), functional=functional,
                    experiment_seed=experiment_seed,
                    replicates=np.asarray(reps))


def ensemble_to_csv(e: Ensemble, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "seed", "functional", "value"])
        kind = e.functional.kind if e.functional is not None else ""
        for rep, val in zip(e.replicates, e.values):
            writer.writerow([int(rep), e.experiment_seed, kind, repr(float(val))])


def _ensemble_values(e) -> np.ndarray:
    values = np.asarray(getattr(e, "values", e), dtype=np.float64)
    if values.ndim != 1 or values.size < 2:
        raise ParameterError("need at least two replicate values")
    return values


# ---------------------------------------------------------------------------
# exponential moments and tails


def exp_moment_empirical(e, lam: float) -> dict:
    """(1/M) sum exp(lam (v_i - mean)) with a jackknife standard error.

    Stabilized by max-subtraction; when lam times the value range exceeds
    the representable exponent the estimate is flagged infinite rather
    than silently clipped.
    """
    values = _ensemble_values(e)
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


def bobkov_gotze_check(e, C: float, lambda_grid) -> dict:
    """Centered exponential moments against exp(C lam^2 L^2 / 2).

    A violation is declared only when the estimate exceeds the bound by
    more than three standard errors; the Gaussian equality case must pass.
    """
    if C <= 0.0:
        raise ParameterError("C must be positive")
    values = _ensemble_values(e)
    lip = e.functional.lipschitz_constant if getattr(e, "functional", None) \
        else 1.0
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


def gaussian_tail_check(e, C: float, r_grid) -> dict:
    """Empirical upper tails of F - mean against exp(-r^2 / (2 C L^2)).

    The verdict compares a Wilson upper confidence limit (z = 3) for the
    tail probability with the Gaussian bound.
    """
    if C <= 0.0:
        raise ParameterError("C must be positive")
    values = _ensemble_values(e)
    lip = e.functional.lipschitz_constant if getattr(e, "functional", None) \
        else 1.0
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


def exp_moment_check(model: ModelSpec, cfg: SolverConfig, x0, c: float,
                     lambda0: float, n_replicates: int = 2048,
                     experiment_seed: int = 0,
                     ensemble: Ensemble | None = None) -> dict:
    """E exp(c lambda0 theta int ||X||_V^2 dt) against its closed-form bound.

    (c, lambda0) must sit inside the admissible range with the smaller
    (moment-lemma) lambda0 bound; the verdict is conservative, estimate
    plus three standard errors against the bound.  A precomputed
    l2_V_path_norm ensemble may be passed to avoid re-solving.
    """
    from .constants import admissible_ranges

    cons = model.constants
    ranges = admissible_ranges(cons.theta, cons.eta, cons.K3,
                               model.noise.c_b, c)
    if not 0.0 < lambda0 < ranges["lambda0_max_lemma"]:
        raise ParameterError(
            f"lambda0 must lie in (0, {ranges['lambda0_max_lemma']:.6g})")
    a = c * lambda0 * cons.theta
    if ensemble is None:
        ens = functional_ensemble(model, cfg, x0, l2_v_path_functional(),
                                  n_replicates, experiment_seed)
    else:
        if ensemble.functional is None \
                or ensemble.functional.kind != "l2_V_path_norm":
            raise ParameterError("ensemble must carry l2_V_path_norm values")
        ens = ensemble
        n_replicates = ens.values.size
        experiment_seed = ens.experiment_seed
    exponent = a * ens.values**2
    if float(np.max(exponent)) > _EXP_RANGE:
        estimate, stderr, infinite = math.inf, math.inf, True
    else:
        estimate, stderr = mean_and_stderr(np.exp(exponent))
        infinite = False
    f_int = model.f_tilde * cfg.horizon
    x0_sq = _state_h_norm(np.asarray(
        getattr(x0, "coeffs", getattr(x0, "spec", x0)))) ** 2
    bound = math.exp(lambda0 * (f_int + x0_sq))
    ok = (not infinite) and estimate + 3.0 * stderr <= bound
    return {
        "model": model.kind,
        "c": float(c),
        "lambda0": float(lambda0),
        "lambda0_max_lemma": ranges["lambda0_max_lemma"],
        "a": float(a),
        "n_replicates": int(n_replicates),
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


def t2_chain_check(model: ModelSpec, cfg: SolverConfig, x0,
                   h: ShiftFunction, functional: FunctionalSpec,
                   n_replicates: int = 2048, experiment_seed: int = 0,
                   t2: dict | None = None, ensemble: dict | None = None) -> dict:
    """W2 of functional marginals against L sqrt(2 C H(Q | P)).

    One-Lipschitz functionals cannot expand W2, so the image-measure
    distance is a sound one-sided witness of the path-space inequality.
    """
    from .constants import t2_constant

    if ensemble is None:
        ensemble = coupled_ensemble(model, cfg, x0, h, n_replicates,
                                    experiment_seed)
    if t2 is None:
        t2 = t2_constant(horizon=cfg.horizon, K2=model.constants.K2,
                         C_B=model.noise.c_b, C1=model.constants.C1)
    fx = functional.values(ensemble["shifted"])
    fy = functional.values(ensemble["unshifted"])
    entropy = shift_entropy(h)
    w2 = w2_sorted_1d(fx, fy)
    lip = functional.lipschitz_constant
    bound = lip * math.sqrt(2.0 * t2["value"] * entropy)
    _, se_x = mean_and_stderr(fx)
    _, se_y = mean_and_stderr(fy)
    combined = math.sqrt(se_x**2 + se_y**2)
    return {
        "model": model.kind,
        "functional": functional.kind,
        "lipschitz_constant": float(lip),
        "n_replicates": int(ensemble["n_replicates"]),
        "experiment_seed": int(ensemble["experiment_seed"]),
        "shift_entropy": float(entropy),
        "w2_empirical": float(w2),
        "t2_constant": float(t2["value"]),
        "bound": float(bound),
        "combined_stderr": float(combined),
        "margin": float(bound - w2),
        "pass": bool(w2 <= bound + 3.0 * combined),
    }


# ---------------------------------------------------------------------------
# moment stability


def _moment_pass(model, cfg, x0, experiment_seed, p, replicates) -> dict:
    paths = _ensemble_paths(model, cfg, x0, experiment_seed, replicates)
    arr = np.stack([paths["sup_h_total"] ** p, paths["v_energy_total"]], axis=1)
    sup_mean, sup_se = mean_and_stderr(arr[:, 0])
    v_mean, v_se = mean_and_stderr(arr[:, 1])
    return {
        "dt": float(cfg.dt),
        "sup_h_moment": {"mean": float(sup_mean), "stderr": float(sup_se)},
        "v_energy": {"mean": float(v_mean), "stderr": float(v_se)},
        "finite": bool(np.all(np.isfinite(arr))),
    }


def moment_report(model: ModelSpec, cfg: SolverConfig, x0,
                  n_replicates: int = 256, experiment_seed: int = 0,
                  p: float = 2.0, refine: bool = True) -> dict:
    """E sup_t ||X||_H^p and E int ||X||_V^2 dt with a dt-refinement flag.

    The refined pass halves dt on a fresh replicate lane; stability means
    both moments stay within a factor of two of the base pass.
    """
    if n_replicates < 2:
        raise ParameterError("need at least two replicates")
    base = _moment_pass(model, cfg, x0, experiment_seed, p,
                        list(range(n_replicates)))
    report = {
        "model": model.kind,
        "p": float(p),
        "n_replicates": int(n_replicates),
        "experiment_seed": int(experiment_seed),
        "base": base,
    }
    if not refine:
        report["pass"] = base["finite"]
        return report
    fine_cfg = SolverConfig(dt=cfg.dt / 2.0, horizon=cfg.horizon,
                            dealias=cfg.dealias,
                            snapshot_stride=cfg.snapshot_stride)
    fine = _moment_pass(model, fine_cfg, x0, experiment_seed, p,
                        [derived_replicate(LANE_REFINED, r)
                         for r in range(n_replicates)])

    def _stable(key):
        lo, hi = sorted((base[key]["mean"], fine[key]["mean"]))
        return hi <= 2.0 * lo + 1e-12

    stable = _stable("sup_h_moment") and _stable("v_energy")
    report["refined"] = fine
    report["stable_under_refinement"] = bool(stable)
    report["pass"] = bool(base["finite"] and fine["finite"] and stable)
    return report
