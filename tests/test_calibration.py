"""Size of the Monte Carlo verdicts: how often each fails when the claim it
checks holds exactly, over many seeds, against the rate its ``Z``
standard errors promise."""

import math
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np
import pytest

from tci_spde._stats import Z
from tci_spde.concentration import (bobkov_gotze_check, gaussian_tail_check,
                                    sup_h_functional, t2_chain_check)
from tci_spde.config import parse_config
from tci_spde.girsanov import contraction_report

SEEDS = 1000
DEFAULTS = parse_config({})
DEFAULT_LAMBDA_GRID = DEFAULTS.lambda_grid
ONE_SIDED = 1.0 - NormalDist().cdf(Z)  # 0.135% at Z = 3


def binomial_bound(n: int, p: float, alpha: float = 1e-3) -> int:
    """The smallest k with P(Binomial(n, p) > k) <= alpha."""
    k, cdf = -1, 0.0
    while 1.0 - cdf > alpha:
        k += 1
        cdf += math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
    return k


def test_bobkov_gotze_size_on_the_gaussian_equality_case():
    # N(0, 1) values of a 1-Lipschitz functional meet exp(C lam^2 L^2 / 2)
    # with equality at C = 1; each entry is an `excess` verdict
    failures = np.zeros(len(DEFAULT_LAMBDA_GRID), dtype=int)
    for seed in range(SEEDS):
        values = np.random.default_rng(seed).standard_normal(256)
        report = bobkov_gotze_check(values, 1.0, 1.0, DEFAULT_LAMBDA_GRID)
        failures += [not ent["pass"] for ent in report["entries"]]
    assert failures.max() <= binomial_bound(SEEDS, ONE_SIDED), failures


def test_gaussian_tail_size_on_the_gaussian_case():
    # N(0, 1) values of a 1-Lipschitz functional have tails below
    # exp(-r^2 / (2 C L^2)) at C = 1; each entry compares a Wilson upper
    # limit at Z with that bound
    failures = np.zeros(len(DEFAULTS.r_grid), dtype=int)
    for seed in range(SEEDS):
        values = np.random.default_rng(seed).standard_normal(256)
        report = gaussian_tail_check(values, 1.0, 1.0, DEFAULTS.r_grid)
        failures += [not ent["pass"] for ent in report["entries"]]
    assert failures.max() <= binomial_bound(SEEDS, ONE_SIDED), failures


@pytest.mark.parametrize("m", [64, 256])
def test_t2_chain_size_when_the_bound_is_the_true_w2(m):
    # sup_H_norm legs N(1, 1) and N(0, 1) are exactly W2 = 1 apart, and
    # L sqrt(2 C H) = 1 at L = C = 1, H = 0.5; the verdict is `excess`
    model = SimpleNamespace(kind="heat", space=None)
    failures = 0
    for seed in range(SEEDS):
        shifted, unshifted = np.random.default_rng(seed).standard_normal((2, m))
        coupled = {"shifted": {"sup_h_total": shifted + 1.0},
                   "unshifted": {"sup_h_total": unshifted},
                   "shift_entropy": 0.5, "n_replicates": m,
                   "experiment_seed": seed}
        report = t2_chain_check(model, sup_h_functional(), coupled, 1.0)
        failures += not report["pass"]
    assert failures <= binomial_bound(SEEDS, ONE_SIDED), failures


@pytest.mark.xfail(strict=True, reason=(
    "the martingale check fails more than ten times as often as its "
    "nominal 0.27% on lognormal weights at R = 64 (FOUND in CHANGES.md)"))
def test_martingale_size_on_exact_lognormal_weights():
    # exp(a W_T - a^2 T / 2) with a^2 T = 1 has mean 1 exactly; the
    # martingale verdict is `two_sided` at Z standard errors
    failures = 0
    for seed in range(SEEDS):
        log_w = np.random.default_rng(seed).standard_normal(64) - 0.5
        coupled = {"shift_entropy": 0.5, "sup_gap_sq": np.zeros(64),
                   "log_rn": log_w + 1.0, "log_rn_base_view": log_w,
                   "n_replicates": 64, "experiment_seed": seed}
        report = contraction_report(SimpleNamespace(kind="heat"), coupled, 1.0)
        failures += not report["martingale"]["pass"]
    assert failures <= binomial_bound(SEEDS, 2.0 * ONE_SIDED), failures
