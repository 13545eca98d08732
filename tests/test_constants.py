"""Constant formulas against closed forms and a brute-force grid oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tci_spde import constants as C
from tci_spde.errors import InfeasibleError, ParameterError

from oracles import t2_grid_oracle

ETA_1D = math.sqrt(math.pi**2 - 1.0)
ETA_2D = math.sqrt(2.0 * math.pi**2 - 1.0)


# ---------------------------------------------------------------------------
# T2 constant


def test_t2_equals_4cb_when_k2_vanishes():
    for c_b in (1.0, 2.5):
        res = C.t2_constant(horizon=1.0, K2=0.0, C_B=c_b)
        assert res["value"] == pytest.approx(4.0 * c_b, rel=1e-4)
        assert not res["warnings"]


def test_t2_frozen_reference_value():
    res = C.t2_constant(horizon=1.0, K2=1.0, C_B=1.0, C1=2.0)
    assert res["value"] == pytest.approx(11522468543.495598, rel=1e-9)


def test_t2_matches_grid_oracle_on_random_parameters():
    rng = np.random.default_rng(0)
    for _ in range(10):
        horizon = float(rng.uniform(0.1, 3.0))
        k2 = float(rng.uniform(-1.0, 2.0))
        c_b = float(rng.uniform(0.1, 10.0))
        c1 = float(rng.uniform(0.5, 3.0))
        oracle = t2_grid_oracle(horizon, k2, c_b, c1)
        value = C.t2_constant(horizon, k2, c_b, c1)["value"]
        assert value == pytest.approx(oracle, rel=1e-6)


def test_t2_homogeneity_in_cb():
    base = C.t2_constant(horizon=2.0, K2=1.3, C_B=1.0, C1=1.5)["value"]
    doubled = C.t2_constant(horizon=2.0, K2=1.3, C_B=2.0, C1=1.5)["value"]
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_t2_argmin_reproduces_value():
    res = C.t2_constant(horizon=1.5, K2=0.8, C_B=3.0, C1=2.0)
    arg = res["argmin"]
    assert 0.0 < arg["eps1"] and 0.0 < arg["eps2"]
    assert arg["eps1"] + arg["eps2"] < 1.0
    again = C.t2_objective(arg["eps1"], arg["eps2"], 1.5, 0.8, 3.0, 2.0)
    assert again == res["value"]  # bitwise: the value is the objective there


def test_t2_negative_k2_clamped_with_warning():
    res = C.t2_constant(horizon=1.0, K2=-5.0, C_B=1.0)
    clamped = C.t2_constant(horizon=1.0, K2=0.0, C_B=1.0)
    assert res["value"] == clamped["value"]
    assert res["warnings"]


def test_t2_objective_overflow_is_inf():
    assert C.t2_objective(1e-9, 1e-9, 10.0, 5.0, 1.0) == math.inf


def test_t2_overflow_is_inf_without_a_warning():
    for args in ((1.0, 1e300, 1.0, 2.0), (1e300, 1e10, 1.0, 2.0),
                 (1.0, 1e160, 1.0, 1e-3)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert C.t2_constant(*args)["value"] == math.inf


def log_objective(eps1, eps2, a, c1):
    """log(t2_objective / C_B) at T = 1, K2 = a: an independent copy."""
    rem = (1.0 - eps2) - eps1
    return -np.log(eps1) - np.log(rem) + a * (eps2 + c1 * c1) / (rem * eps2)


@given(st.floats(0.0, 50.0), st.floats(0.1, 3.0), st.floats(1e-6, 1.0 - 1e-6))
@settings(max_examples=100, deadline=None)
def test_t2_inner_eps1_is_no_worse_than_a_dense_grid(a, c1, eps2):
    s = 1.0 - eps2
    closed = C._inner_eps1(eps2, a, c1 * c1)
    assert 0.0 < closed < s
    grid = s * np.concatenate([np.linspace(0.0, 1.0, 4001)[1:-1],
                               np.geomspace(1e-12, 1e-3, 400),
                               1.0 - np.geomspace(1e-9, 1e-3, 400)])
    best = float(np.min(log_objective(grid, eps2, a, c1)))
    at_closed = float(log_objective(np.array([closed]), eps2, a, c1)[0])
    assert at_closed <= best + 1e-12 * max(1.0, abs(best))


@given(
    st.floats(0.1, 3.0),
    st.floats(-1.0, 2.0),
    st.floats(0.1, 5.0),
    st.floats(0.5, 2.5),
    st.floats(0.05, 0.5),
)
@settings(max_examples=25, deadline=None)
def test_t2_monotonicity(horizon, k2, c_b, c1, bump):
    base = C.t2_constant(horizon, k2, c_b, c1)["value"]
    slack = 1e-9 * base
    assert C.t2_constant(horizon + bump, k2, c_b, c1)["value"] >= base - slack
    assert C.t2_constant(horizon, k2, c_b + bump, c1)["value"] >= base - slack
    if k2 >= 0.0:
        assert C.t2_constant(horizon, k2 + bump, c_b, c1)["value"] >= base - slack


# ---------------------------------------------------------------------------
# T1 constant


def test_t1_frozen_values():
    # e / (0.75 sqrt(pi)) with the +1 exponent folded in
    assert C.t1_constant(1.0, 0.5, 1.5, 0.0) == pytest.approx(
        2.044835057018323, rel=1e-13
    )
    assert C.t1_constant(0.3, 0.5, 1.5, 1.0) == pytest.approx(
        12.419774670302285, rel=1e-13
    )


def test_t1_quadratic_in_mu_moment():
    base = C.t1_constant(0.3, 0.5, 1.5, 1.0, mu_moment=1.0)
    doubled = C.t1_constant(0.3, 0.5, 1.5, 1.0, mu_moment=2.0)
    assert doubled == pytest.approx(4.0 * base, rel=1e-14)


def test_t1_strictly_decreasing_in_c():
    values = [C.t1_constant(0.3, c, 1.5, 1.0) for c in np.linspace(0.05, 0.95, 19)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_t1_unique_interior_minimum_in_lambda0():
    # with f~ = 3 the stationary point 1/(2 f~) sits inside the lemma range
    ranges = C.admissible_ranges(1.5, ETA_1D, 0.0, 1.0, c=0.5)
    top = ranges["lambda0_max_lemma"]
    grid = np.linspace(1e-4, top, 400)
    values = np.array([C.t1_constant(lam, 0.5, 1.5, 3.0) for lam in grid])
    drops = np.diff(values) < 0.0
    switch = np.nonzero(~drops)[0]
    assert switch.size > 0 and drops[0] and not drops[-1]
    assert np.all(~drops[switch[0]:])  # decreasing then increasing: one switch
    interior = grid[int(np.argmin(values))]
    assert 1e-4 < interior < top
    assert interior == pytest.approx(1.0 / 6.0, rel=0.02)


def test_t1_parameter_errors_name_the_range():
    with pytest.raises(ParameterError, match="lambda0"):
        C.t1_constant(0.0, 0.5, 1.5, 0.0)
    with pytest.raises(ParameterError, match="c must lie"):
        C.t1_constant(0.3, 1.5, 1.5, 0.0)
    with pytest.raises(ParameterError, match="mu_moment"):
        C.t1_constant(0.3, 0.5, 1.5, 0.0, mu_moment=0.5)
    with pytest.raises(ParameterError, match="f_tilde"):
        C.t1_constant(0.3, 0.5, 1.5, -1.0)


# ---------------------------------------------------------------------------
# CCR constant and the Gaussian moment pair


def test_ccr_frozen_values():
    assert C.ccr_constant(1.0, 1.0) == pytest.approx(0.7668131463818711, rel=1e-15)
    assert C.ccr_constant(0.5, 1.0) == pytest.approx(1.5336262927637423, rel=1e-15)
    assert C.ccr_constant(1.0, 2.0) == pytest.approx(3.0672525855274846, rel=1e-15)


def test_ccr_rejects_small_b():
    with pytest.raises(ParameterError):
        C.ccr_constant(1.0, 0.99)
    with pytest.raises(ParameterError):
        C.ccr_constant(0.0, 1.0)


@given(st.floats(1e-3, 1e3), st.floats(1.0, 50.0))
@settings(max_examples=100, deadline=None)
def test_ccr_times_a_is_a_free(a, b):
    assert C.ccr_constant(a, b) * a == pytest.approx(
        C.ccr_constant(1.0, b), rel=1e-13
    )


def test_gaussian_moment_pair():
    assert C.gaussian_moment_pair(0.5, 0.0, 1.5, 1.0, 0.0) == (0.0, 1.0)
    a, b = C.gaussian_moment_pair(0.5, 0.3, 1.5, 1.0, 0.0)
    assert a == pytest.approx(0.225, rel=1e-15)
    assert b == pytest.approx(math.exp(0.3), rel=1e-15)
    _, b2 = C.gaussian_moment_pair(0.5, 0.3, 1.5, 1.0, 2.0)
    assert b2 == pytest.approx(math.exp(0.9), rel=1e-14)


# ---------------------------------------------------------------------------
# admissible ranges


def test_t1_constants_compose_the_t1_formulas():
    # lambda0 defaults to half of lambda0_max_lemma, mu_moment to
    # exp(lambda0 ||x0||_H^2); D is the CCR constant of the moment pair
    ranges = C.admissible_ranges(1.5, ETA_1D, 0.0, 1.0, 0.5)
    lam = 0.5 * ranges["lambda0_max_lemma"]
    mu = math.exp(lam * 0.25)
    a, b = C.gaussian_moment_pair(0.5, lam, 1.5, 1.0, 0.25)
    assert C.t1_constants(1.5, ETA_1D, 0.0, 1.0, 0.5, 1.0, 0.25) == {
        "ranges": ranges, "lambda0": lam, "c": 0.5, "mu_moment": mu,
        "C_T1": C.t1_constant(lam, 0.5, 1.5, 1.0, mu),
        "gaussian_moment": {"a": a, "b": b}, "D": C.ccr_constant(a, b)}
    given = C.t1_constants(1.5, ETA_1D, 0.0, 1.0, 0.5, 1.0, 0.25,
                           lambda0=0.1, mu_moment=2.0)
    assert (given["lambda0"], given["mu_moment"]) == (0.1, 2.0)
    assert given["C_T1"] == C.t1_constant(0.1, 0.5, 1.5, 1.0, 2.0)


def test_admissible_ranges_reference():
    r = C.admissible_ranges(1.5, ETA_1D, 0.0, 1.0, c=0.5)
    assert r["c_max"] == 1.0
    assert r["lambda0_max_lemma"] == pytest.approx(0.345375541816997, rel=1e-13)
    assert r["lambda0_max_theorem"] == pytest.approx(1.1168205401510087, rel=1e-13)
    assert r["lambda0_max_lemma"] < r["lambda0_max_theorem"]


def test_admissible_ranges_ns_reference():
    r = C.admissible_ranges(0.1, ETA_2D, 0.0, 0.01, c=0.5)
    assert r["lambda0_max_theorem"] == pytest.approx(10.82220194847689, rel=1e-13)


def test_admissible_ranges_infeasible():
    with pytest.raises(InfeasibleError):
        C.admissible_ranges(1.0, 1.0, 2.0, 1.0)
    with pytest.raises(InfeasibleError):
        C.admissible_ranges(1.5, ETA_1D, 0.0, 1.0, c=1.5)
    with pytest.raises(ParameterError):
        C.admissible_ranges(1.5, ETA_1D, -0.5, 1.0)
