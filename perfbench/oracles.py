"""Output checks computed apart from the program.

Nothing here imports ``tci_spde``: every expected value comes from a closed
form, from re-reading the CSV files the CLI wrote, or from an exact identity
of the method.  Each check returns ``(name, ok, detail)``.
"""

from __future__ import annotations

import csv
import math

import numpy as np


def discrete_ou_v_energy(lam: float, b: float, dt: float, n_steps: int) -> float:
    """E of the trapezoid V-energy of the semi-implicit scalar OU recursion.

    u_{n+1} = (u_n + b dW_n) / (1 + dt lam) from u_0 = 0 has
    E ||u_n||_V^2 = e_n = lam b^2 dt sum_{j=1..n} (1 + dt lam)^{-2j},
    and the solver integrates with the trapezoid rule, so the mean is
    sum_m dt/2 (e_m + e_{m+1}) (Lord, Powell & Shardlow 2014, ch. 10).
    """
    r = (1.0 + dt * lam) ** -2
    partial = np.cumsum(r ** np.arange(1, n_steps + 1))
    e = lam * b * b * dt * np.concatenate([[0.0], partial])
    return float(0.5 * dt * np.sum(e[:-1] + e[1:]))


def mean_stderr(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def within_stderr(name: str, mean: float, stderr: float, expected: float,
                  k: float = 4.0):
    z = (mean - expected) / stderr
    return name, abs(z) <= k, f"mean {mean:.6g} expected {expected:.6g} z {z:+.2f}"


def z_in_range(name: str, mean: float, stderr: float, expected: float,
               lo: float, hi: float):
    z = (mean - expected) / stderr
    return (name, lo <= z <= hi,
            f"mean {mean:.6g} expected {expected:.6g} z {z:+.2f} in [{lo:g}, {hi:g}]")


def lognormal_weight_z(variance: float, n_replicates: int, n_draws: int,
                       rng) -> np.ndarray:
    """Draws of z = (mean - 1) / stderr for the mean of ``n_replicates``
    weights exp(N(-variance/2, variance)), the exact law of the martingale
    check when the shift is deterministic.  The law is skewed: a large
    weight raises the mean and its stderr together, so z has a long
    negative tail and a short positive one."""
    out = []
    for lo in range(0, n_draws, 50000):
        size = min(50000, n_draws - lo)
        w = np.exp(math.sqrt(variance) * rng.standard_normal((size, n_replicates))
                   - 0.5 * variance)
        se = w.std(axis=1, ddof=1) / math.sqrt(n_replicates)
        out.append((w.mean(axis=1) - 1.0) / se)
    return np.concatenate(out)


def close(name: str, got: float, want: float, rel: float):
    err = abs(got - want) / max(abs(want), 1e-300)
    return name, err <= rel, f"got {got!r} want {want!r} rel {err:.2e} (tol {rel:g})"


def equal(name: str, got, want):
    return name, got == want, f"got {got!r} want {want!r}"


def read_columns(path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {key: [row[i] for row in body] for i, key in enumerate(header)}


def trapezoid_v_energy(times, norm_v) -> float:
    t = np.asarray(times, dtype=np.float64)
    v_sq = np.asarray(norm_v, dtype=np.float64) ** 2
    return float(np.sum(0.5 * np.diff(t) * (v_sq[:-1] + v_sq[1:])))


def w2_sorted(a, b) -> float:
    """W2 between two equal-size 1-D samples by the sorted pairing."""
    diff = np.sort(np.asarray(a, dtype=np.float64)) - np.sort(
        np.asarray(b, dtype=np.float64))
    return math.sqrt(float(np.mean(diff ** 2)))


def coupled_legs(path) -> tuple[list[float], list[float]]:
    """Shifted and unshifted functional values of a verify-t2 ensemble.csv."""
    cols = read_columns(path)
    legs = {"shifted": [], "unshifted": []}
    for functional, value in zip(cols["functional"], cols["value"]):
        legs[functional.rsplit("[", 1)[1].rstrip("]")].append(float(value))
    return legs["shifted"], legs["unshifted"]


def semi_implicit_decay_rate(rate: float, dt: float, horizon: float) -> float:
    """Measured decay rate of a mode damped by 1/(1 + dt rate) per step."""
    return round(horizon / dt) * math.log1p(dt * rate) / horizon


def semi_implicit_heat_error(x0: float, dt: float, horizon: float) -> float:
    """|x0 (1 + pi^2 dt)^{-T/dt} - x0 e^{-pi^2 T}| for the first sine mode."""
    n = round(horizon / dt)
    return abs(x0 * (1.0 + math.pi ** 2 * dt) ** -n
               - x0 * math.exp(-math.pi ** 2 * horizon))


def suite_violations(suite: dict) -> int:
    return sum(int(sub["violations"]) for sub in suite.values()
               if isinstance(sub, dict) and "violations" in sub)


def verdicts(node, path=""):
    """Every ``pass`` flag of a report as (dotted path, bool)."""
    if isinstance(node, dict):
        for key, val in node.items():
            sub = f"{path}.{key}" if path else key
            if key == "pass":
                yield path, bool(val)
            else:
                yield from verdicts(val, sub)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from verdicts(item, f"{path}[{i}]")
