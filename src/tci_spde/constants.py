"""Closed-form and optimized constants for the transportation inequalities.

The quadratic-cost constant is the infimum over eps1, eps2 > 0 with
r = 1 - eps1 - eps2 > 0 of

    C_B / (eps1 r) * exp((eps2 + C1^2) a / (r eps2)),   a = max(K2, 0) T;

everything else here is a direct formula.  The log-objective is jointly
convex: -log eps1 and -log r are, and the last term is a/r +
a C1^2/(r eps2), with 1/(x y) convex on x, y > 0 (Hessian determinant
3/(x^4 y^4) > 0) composed with an affine map.  So its minimum over eps1
is convex in eps2 (Boyd & Vandenberghe, Convex Optimization, 3.2.5), and
one deterministic golden-section search over eps2 finds the infimum.  At
fixed eps2, with s = 1 - eps2, A = a (eps2 + C1^2)/eps2 and b = 3s + A,
the eps1-derivative vanishes where 2 eps1^2 - b eps1 + s^2 = 0, whose one
root in (0, s) is taken as 2 s^2 / (b (1 + sqrt(1 - 8 (s/b)^2))) so that
b^2 cannot overflow.  ``exp_or_inf`` is the one overflow rule of every
closed-form bound.
"""

from __future__ import annotations

import math

from .errors import InfeasibleError, ParameterError

_EPS_FLOOR = 1e-12
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def exp_or_inf(x: float) -> float:
    """math.exp(x), or +inf for x > 709 where it would overflow."""
    return math.inf if x > 709.0 else math.exp(x)


def t2_objective(eps1: float, eps2: float, horizon: float, K2: float,
                 C_B: float, C1: float = 2.0) -> float:
    """The quantity under the infimum; +inf outside the open triangle."""
    rem = 1.0 - eps1 - eps2
    if eps1 <= 0.0 or eps2 <= 0.0 or rem <= 0.0:
        return math.inf
    exponent = (eps2 + C1 * C1) * max(K2, 0.0) * horizon / (rem * eps2)
    return C_B / (eps1 * rem) * exp_or_inf(exponent)


def _inner_eps1(eps2: float, a: float, c1_sq: float) -> float:
    """The eps1 that minimizes the objective at fixed eps2 (module
    docstring); 0.0 where A overflows."""
    s = 1.0 - eps2
    b = 3.0 * s + a * (eps2 + c1_sq) / eps2
    return 2.0 * s * s / (b * (1.0 + math.sqrt(1.0 - 8.0 * (s / b) ** 2)))


def _golden_min(f, lo: float, hi: float, iters: int = 120) -> float:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return c if fc <= fd else d


def t2_constant(horizon: float, K2: float, C_B: float, C1: float = 2.0) -> dict:
    """Evaluate the quadratic-cost constant and its argmin.

    K2 < 0 is clamped to zero in the exponential factor (the raw infimum
    would degenerate to zero, which is not a usable constant); the clamp
    is reported in ``warnings``.
    """
    if horizon <= 0.0:
        raise ParameterError("horizon must be positive")
    if C_B <= 0.0:
        raise ParameterError("C_B must be positive")
    if C1 <= 0.0:
        raise ParameterError("C1 must be positive")
    warnings = []
    k2p = max(K2, 0.0)
    if K2 < 0.0:
        warnings.append("K2 < 0 clamped to 0 in the exponential factor")

    a = k2p * horizon
    c1_sq = C1 * C1

    def reduced(eps2):
        # the log-objective at the inner minimum, less the constant log C_B
        eps1 = _inner_eps1(eps2, a, c1_sq)
        rem = 1.0 - eps1 - eps2
        if eps1 <= 0.0 or rem <= 0.0:
            return math.inf
        return (a * (eps2 + c1_sq) / (rem * eps2)
                - math.log(eps1) - math.log(rem))

    eps2 = _golden_min(reduced, _EPS_FLOOR, 1.0 - _EPS_FLOOR)
    eps1 = _inner_eps1(eps2, a, c1_sq)
    value = t2_objective(eps1, eps2, horizon, k2p, C_B, C1)
    return {
        "value": float(value),
        "argmin": {"eps1": eps1, "eps2": eps2},
        "horizon": float(horizon),
        "K2": float(K2),
        "C_B": float(C_B),
        "C1": float(C1),
        "warnings": warnings,
    }


def t1_constant(lambda0: float, c: float, theta: float,
                f_tilde_integral: float, mu_moment: float = 1.0) -> float:
    """exp(2 lambda0 f~ + 1) / (c lambda0 theta sqrt(pi)) * mu_moment^2."""
    if lambda0 <= 0.0:
        raise ParameterError("lambda0 must be positive")
    if not 0.0 < c < 1.0:
        raise ParameterError("c must lie in (0, 1)")
    if theta <= 0.0:
        raise ParameterError("theta must be positive")
    if f_tilde_integral < 0.0:
        raise ParameterError("f_tilde_integral must be nonnegative")
    if mu_moment < 1.0:
        raise ParameterError("mu_moment must be at least 1")
    return (exp_or_inf(2.0 * lambda0 * f_tilde_integral + 1.0)
            / (c * lambda0 * theta * math.sqrt(math.pi))
            * mu_moment * mu_moment)


def gaussian_moment_pair(c: float, lambda0: float, theta: float,
                         f_tilde_integral: float,
                         x0_h_norm_sq: float) -> tuple[float, float]:
    """(a, b) of the exponential moment bound E exp(a sup ||X||^2) <= b."""
    if lambda0 < 0.0:
        raise ParameterError("lambda0 must be nonnegative")
    if not 0.0 < c < 1.0:
        raise ParameterError("c must lie in (0, 1)")
    if theta <= 0.0:
        raise ParameterError("theta must be positive")
    if f_tilde_integral < 0.0:
        raise ParameterError("f_tilde_integral must be nonnegative")
    if x0_h_norm_sq < 0.0:
        raise ParameterError("x0_h_norm_sq must be nonnegative")
    a = c * lambda0 * theta
    b = exp_or_inf(lambda0 * (f_tilde_integral + x0_h_norm_sq))
    return a, b


def ccr_constant(a: float, b: float) -> float:
    """Gaussian-concentration constant D = b^2 e / (2 a sqrt(pi))."""
    if a <= 0.0:
        raise ParameterError("a must be positive")
    if b < 1.0:
        raise ParameterError("b must be at least 1")
    return b * b * math.e / (2.0 * a * math.sqrt(math.pi))


def admissible_ranges(theta: float, eta: float, K3: float, C_B: float,
                      c: float = 0.5) -> dict:
    """Admissible c-interval and both lambda0 upper bounds.

    Two denominators are in play (2 C_B + theta eta for the moment lemma,
    2 C_B for the inequality itself); both are returned and downstream
    defaults take the smaller.
    """
    if theta <= 0.0 or eta <= 0.0:
        raise ParameterError("theta and eta must be positive")
    if K3 < 0.0:
        raise ParameterError("K3 must be nonnegative")
    if C_B <= 0.0:
        raise ParameterError("C_B must be positive")
    te = theta * eta
    if te - K3 <= 0.0:
        raise InfeasibleError(
            f"theta*eta = {te:.6g} does not exceed K3 = {K3:.6g}")
    c_max = 1.0 - K3 / te
    if not 0.0 < c < c_max:
        raise InfeasibleError(f"c = {c:.6g} must lie in (0, {c_max:.6g})")
    num = (1.0 - c) * te - K3
    return {
        "c": float(c),
        "c_max": float(c_max),
        "lambda0_max_lemma": float(num / (2.0 * C_B + te)),
        "lambda0_max_theorem": float(num / (2.0 * C_B)),
    }


# the constants-record keys that t1_constants takes, by the same names
T1_INPUTS = ("theta", "eta", "K3", "C_B", "c", "f_tilde_integral",
             "x0_h_norm_sq", "lambda0", "mu_moment")


def t1_constants(theta: float, eta: float, K3: float, C_B: float, c: float,
                 f_tilde_integral: float, x0_h_norm_sq: float,
                 lambda0: float | None = None,
                 mu_moment: float | None = None) -> dict:
    """The T1 report keys: the admissible ranges, lambda0 (default half of
    lambda0_max_lemma; one outside (0, lambda0_max_lemma) is refused), c,
    mu_moment (default exp(lambda0 x0_h_norm_sq)), C_T1, the Gaussian
    moment pair and D (None where a underflows to zero)."""
    ranges = admissible_ranges(theta, eta, K3, C_B, c)
    top = ranges["lambda0_max_lemma"]
    if lambda0 is None:
        lambda0 = 0.5 * top
    if not 0.0 < lambda0 < top:
        raise ParameterError(f"lambda0 must lie in (0, {top:.6g})")
    if mu_moment is None:
        mu_moment = exp_or_inf(lambda0 * x0_h_norm_sq)
    a, b = gaussian_moment_pair(c, lambda0, theta, f_tilde_integral,
                                x0_h_norm_sq)
    return {"ranges": ranges, "lambda0": float(lambda0), "c": float(c),
            "mu_moment": float(mu_moment),
            "C_T1": t1_constant(lambda0, c, theta, f_tilde_integral,
                                mu_moment),
            "gaussian_moment": {"a": float(a), "b": float(b)},
            "D": ccr_constant(a, b) if a > 0.0 else None}
