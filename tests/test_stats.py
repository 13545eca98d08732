"""The one verdict rule of the Monte Carlo checks (``_stats.verdict``)."""

import math

import pytest

from tci_spde._stats import Z, verdict, wilson_upper

INF = math.inf
BOUND, SE = 2.0, 0.25


# The inline expressions each rule replaced, written out at three
# standard errors: the martingale and entropy identity (two_sided), the
# contraction gap and exp_moment (upper), Bobkov-Gotze and the T2 chain
# (excess); exp_moment and Bobkov-Gotze also failed an infinite estimate.
def two_sided(est, se, bound):
    return {"expected": float(bound),
            "pass": bool(abs(est - bound) <= 3.0 * se)}


def upper(est, se, bound):
    return {"bound": float(bound), "margin": float(bound - (est + 3.0 * se)),
            "pass": bool(math.isfinite(est) and est + 3.0 * se <= bound)}


def excess(est, se, bound):
    return {"bound": float(bound), "margin": float(bound - est),
            "pass": bool(math.isfinite(est) and est <= bound + 3.0 * se)}


RULES = {"two_sided": two_sided, "upper": upper, "excess": excess}

CASES = {
    "bound_minus_Z_se": (BOUND - Z * SE, SE, BOUND),
    "bound_plus_Z_se": (BOUND + Z * SE, SE, BOUND),
    "just_below": (math.nextafter(BOUND - Z * SE, -INF), SE, BOUND),
    "just_above": (math.nextafter(BOUND + Z * SE, INF), SE, BOUND),
    "infinite_estimate": (INF, SE, BOUND),
    "negative_infinite_estimate": (-INF, SE, BOUND),
    "infinite_stderr": (BOUND, INF, BOUND),
    "infinite_bound": (BOUND, SE, INF),
    "infinite_stderr_and_bound": (BOUND, INF, INF),
}


def same(got, want):
    """Equal keys and values, types included, with NaN equal to NaN."""
    assert set(got) == set(want)
    for key, val in want.items():
        assert type(got[key]) is type(val), key
        assert got[key] == val or (math.isnan(got[key]) and math.isnan(val)), \
            (key, got[key], val)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("rule", RULES)
def test_verdict_evaluates_the_inline_rule(rule, case):
    est, se, bound = CASES[case]
    same(verdict(est, se, bound, rule), RULES[rule](est, se, bound))


def test_verdict_values_at_the_edges():
    # the edges are inclusive
    assert verdict(BOUND + Z * SE, SE, BOUND, "two_sided")["pass"]
    assert verdict(BOUND - Z * SE, SE, BOUND, "two_sided")["pass"]
    assert verdict(BOUND - Z * SE, SE, BOUND, "upper") == {
        "bound": BOUND, "margin": 0.0, "pass": True}
    assert verdict(BOUND + Z * SE, SE, BOUND, "excess") == {
        "bound": BOUND, "margin": -Z * SE, "pass": True}
    assert not verdict(math.nextafter(BOUND + Z * SE, INF), SE, BOUND,
                       "excess")["pass"]
    # a one-sided rule fails an infinite estimate, even below an infinite
    # bound, and the two-sided rule fails it at a finite stderr
    for rule in ("upper", "excess"):
        assert not verdict(INF, INF, INF, rule)["pass"]
        assert not verdict(-INF, SE, BOUND, rule)["pass"]
    assert not verdict(INF, SE, BOUND, "two_sided")["pass"]
    # an exp_moment with infinite stderr and bound passes with a NaN margin
    got = verdict(BOUND, INF, INF, "upper")
    assert got["pass"] and got["bound"] == INF and math.isnan(got["margin"])
    assert verdict(BOUND, SE, INF, "excess") == {
        "bound": INF, "margin": INF, "pass": True}


def test_verdict_refuses_an_unknown_rule():
    with pytest.raises(ValueError, match="unknown verdict rule"):
        verdict(1.0, 0.1, 1.0, "lower")


def test_wilson_upper_defaults_to_Z():
    assert Z == 3.0
    assert wilson_upper(3, 100) == wilson_upper(3, 100, Z)
