"""Order-independent summary statistics for Monte Carlo ensembles, and
the one rule by which they become verdicts.

Sums use ``math.fsum`` over replicate-indexed arrays, so aggregates do
not depend on how the replicates were scheduled across workers.
"""

from __future__ import annotations

import math

import numpy as np

Z = 3.0  # standard errors behind every Monte Carlo verdict


def fsum_mean(values) -> float:
    arr = np.asarray(values, dtype=np.float64)
    try:
        return math.fsum(arr) / arr.size
    except OverflowError:  # finite values whose sum overflows
        s = float(np.max(np.abs(arr)))
        return math.fsum(arr / s) / arr.size * s


def mean_and_stderr(values) -> tuple[float, float]:
    """Sample mean (``fsum_mean``) and standard error of the mean; the
    error is inf when the sample variance exceeds the float range."""
    arr = np.asarray(values, dtype=np.float64)
    n = arr.size
    mean = fsum_mean(arr)
    if n < 2:
        return mean, float("inf")
    with np.errstate(over="ignore"):
        dev_sq = (arr - mean) ** 2
    try:
        var = math.fsum(dev_sq) / (n - 1)
    except OverflowError:  # finite squares whose sum overflows
        var = math.inf
    return mean, math.sqrt(var / n)


def wilson_upper(count: int, n: int, z: float = Z) -> float:
    """Upper Wilson score bound for a binomial proportion."""
    if n <= 0:
        return 1.0
    p = count / n
    denom = 1.0 + z**2 / n
    center = p + z**2 / (2.0 * n)
    radius = z * math.sqrt(p * (1.0 - p) / n + z**2 / (4.0 * n**2))
    return min(1.0, (center + radius) / denom)


def verdict(estimate: float, stderr: float, bound: float, rule: str) -> dict:
    """The report keys of an estimate checked against ``bound`` at ``Z``
    standard errors.  ``two_sided``: |estimate - bound| <= Z stderr, with
    the bound reported as ``expected``.  ``upper``, a pass needs evidence:
    estimate + Z stderr <= bound, with margin bound - (estimate + Z stderr).
    ``excess``, only a significant excess fails: estimate <= bound + Z
    stderr, with margin bound - estimate.  A one-sided rule fails a
    non-finite estimate."""
    if rule == "two_sided":
        return {"expected": float(bound),
                "pass": bool(abs(estimate - bound) <= Z * stderr)}
    finite = math.isfinite(estimate)
    if rule == "upper":
        return {"bound": float(bound),
                "margin": float(bound - (estimate + Z * stderr)),
                "pass": bool(finite and estimate + Z * stderr <= bound)}
    if rule == "excess":
        return {"bound": float(bound), "margin": float(bound - estimate),
                "pass": bool(finite and estimate <= bound + Z * stderr)}
    raise ValueError(f"unknown verdict rule {rule!r}")
