"""SPDE model definitions and hypothesis audits.

Three models share the variational skeleton dX = A(t, X) dt + B(t, X) dW:

* ``heat``     A(v) = Laplace(v)                        (monotone)
* ``burgers``  A(v) = Laplace(v) + v v_x                (locally monotone)
* ``ns2d``     A(v) = nu Laplace(v) - P[(v.grad)v]      (locally monotone)

Every model carries the structural constants of the variational framework
(coercivity theta, embedding eta, monotonicity and growth constants) plus
a noise operator.  The nonlinearities evaluate their quadratic products on
one grid each, the smallest alias-free one (``burgers_product_grid``,
``ns_product_grid``), for the solver and the audits alike.
``audit_hypotheses`` probes the hypotheses numerically on seeded random
fields, as array arithmetic on the space's norm kernels; violations become
report entries, not errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError
from . import fields as fs
from .fields import Field2D, SineSpace, TorusSpace
from .noise import NoiseOperator, hs_norm, generator, derived_replicate, LANE_FIELDS

ETA_1D = math.sqrt(math.pi**2 - 1.0)
ETA_2D = math.sqrt(2.0 * math.pi**2 - 1.0)


@dataclass(frozen=True)
class AssumptionConstants:
    """Constants appearing in the coercivity, monotonicity and growth bounds."""

    alpha: float
    theta: float
    eta: float
    K2: float = 0.0
    K3: float = 0.0
    K4: float = 0.0
    K2_tilde: float | None = None
    K4_tilde: float | None = None
    beta: float = 0.0

    def __post_init__(self):
        if self.theta <= 0.0:
            raise ParameterError("theta must be positive")
        if self.eta <= 0.0:
            raise ParameterError("eta must be positive")
        if self.alpha <= 1.0:
            raise ParameterError("alpha must exceed 1")


@dataclass(frozen=True)
class ModelSpec:
    """One concrete SPDE: drift family, resolution, constants, noise."""

    kind: str
    constants: AssumptionConstants
    noise: NoiseOperator
    n_modes: int | None = None
    cutoff: int | None = None
    viscosity: float | None = None
    f_tilde: float = 0.0
    local_rho: str | None = None
    rho_coefficient: float = 1.0

    def __post_init__(self):
        if self.kind not in ("heat", "burgers", "ns2d"):
            raise ParameterError(f"unknown model kind {self.kind!r}")
        if self.kind == "ns2d":
            if self.cutoff is None or self.viscosity is None:
                raise ParameterError("ns2d needs a cutoff and a viscosity")
            if self.viscosity <= 0.0:
                raise ParameterError("viscosity must be positive")
            # raises unless the torus basis has n_w fields at this cutoff
            self.space.noise_basis(self.noise.n_w)
        else:
            if self.n_modes is None:
                raise ParameterError(f"{self.kind} needs n_modes")
            if self.noise.n_w > self.n_modes:
                raise ParameterError("1-D noise must fit inside the mode count")
        if self.f_tilde < 0.0:
            raise ParameterError("f_tilde must be nonnegative")

    @property
    def space(self) -> SineSpace | TorusSpace:
        """The function space of the model's states."""
        if self.kind == "ns2d":
            return TorusSpace(self.cutoff)
        return SineSpace(self.n_modes)

    @property
    def locally_monotone(self) -> bool:
        return self.local_rho is not None


def heat_model(n_modes: int, noise: NoiseOperator, theta: float = 1.5,
               f_tilde: float | None = None) -> ModelSpec:
    """Stochastic heat equation on (0, 1) with Dirichlet boundary.

    Coercivity holds with any theta <= 2 and f_tilde = C_B; the default
    theta matches the locally monotone models so constants are comparable.
    With a clamped multiplicative noise the Lipschitz constant of B feeds
    the monotonicity constant K2 = C_B / clamp^2.
    """
    if not 0.0 < theta <= 2.0:
        raise ParameterError("heat coercivity needs 0 < theta <= 2")
    K2 = 0.0 if noise.clamp is None else noise.c_b / noise.clamp**2
    constants = AssumptionConstants(alpha=2.0, theta=theta, eta=ETA_1D,
                                    K2=K2, K3=0.0, K4=1.0)
    return ModelSpec(kind="heat", constants=constants, noise=noise,
                     n_modes=n_modes,
                     f_tilde=noise.c_b if f_tilde is None else f_tilde)


def burgers_model(n_modes: int, noise: NoiseOperator,
                  K2_tilde: float = 1.0, K4_tilde: float = 2.0,
                  f_tilde: float | None = None) -> ModelSpec:
    """Stochastic Burgers equation; locally monotone with rho(v) = ||v||_L4^4."""
    constants = AssumptionConstants(alpha=2.0, theta=1.5, eta=ETA_1D,
                                    K3=0.0, K2_tilde=K2_tilde,
                                    K4_tilde=K4_tilde, beta=2.0)
    return ModelSpec(kind="burgers", constants=constants, noise=noise,
                     n_modes=n_modes, local_rho="l4_fourth_power",
                     f_tilde=noise.c_b if f_tilde is None else f_tilde)


def ns2d_model(cutoff: int, viscosity: float, noise: NoiseOperator,
               K2_tilde: float = 1.0, K4_tilde: float | None = None) -> ModelSpec:
    """2-D Navier-Stokes on the torus, mean-free and Leray projected.

    The model is unforced, so the coercivity schedule is f_tilde = C_B.
    The local monotonicity weight keeps the shape ||v||_L4^4 but carries
    the coefficient 27/(32 nu^3) that the interpolation estimate for the
    advection term produces; the growth constant 8 covers the squared
    triangle bound on nu*Laplace + advection for nu <= 1/3.
    """
    constants = AssumptionConstants(alpha=2.0, theta=viscosity, eta=ETA_2D,
                                    K3=0.0, K2_tilde=K2_tilde,
                                    K4_tilde=8.0 if K4_tilde is None else K4_tilde,
                                    beta=2.0)
    return ModelSpec(kind="ns2d", constants=constants, noise=noise,
                     cutoff=cutoff, viscosity=viscosity,
                     local_rho="l4_fourth_power",
                     rho_coefficient=27.0 / (32.0 * viscosity**3),
                     f_tilde=noise.c_b)


# ---------------------------------------------------------------------------
# nonlinearities (raw coefficient arrays; shared with the solver)


def burgers_product_grid(n_modes: int) -> int:
    """Smallest midpoint grid on which the Burgers product is alias-free.

    Projecting v v_x onto the sine modes integrates trigonometric terms of
    degree up to 3N, and the midpoint rule on n nodes integrates cos(m pi x)
    exactly only for m < 2n, so n must exceed 3N/2.  The L^4 norms keep the
    quartic 4N quadrature (``SineSpace.grid_moments``).
    """
    return 3 * n_modes // 2 + 1


def ns_product_grid(cutoff: int) -> int:
    """Smallest 5-smooth grid side n >= 3K+1: quadratic products of modes
    |k|_inf <= K are then alias-free on the retained block (Orszag's
    two-thirds rule), and the transform length factors into 2, 3 and 5.
    The L^4 norms keep the quartic grid ``fields.default_grid_2d``."""
    n = 3 * cutoff + 1
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


@lru_cache(maxsize=16)
def _burgers_workspace(n_modes: int, n_grid: int):
    x = fs.midpoint_nodes(n_grid)
    k = np.arange(1, n_modes + 1)
    eval_t = SineSpace(n_modes).table(n_grid)
    deriv_t = np.sqrt(2.0) * (np.pi * k) * np.cos(np.pi * np.outer(x, k))
    proj_t = eval_t.T / n_grid
    return eval_t, deriv_t, proj_t


def burgers_nonlinearity(coeffs: np.ndarray, n_grid: int | None = None) -> np.ndarray:
    """Sine coefficients of v v_x, evaluated on a midpoint grid of ``n_grid``
    nodes (default ``burgers_product_grid``, the smallest alias-free one).

    Leading axes of ``coeffs`` hold independent fields; each one goes
    through its own matrix-vector products, so a field's result does not
    depend on what else is in the batch.
    """
    n_modes = coeffs.shape[-1]
    if n_grid is None:
        n_grid = burgers_product_grid(n_modes)
    eval_t, deriv_t, proj_t = _burgers_workspace(n_modes, n_grid)
    col = coeffs[..., None]
    prod = np.matmul(eval_t, col) * np.matmul(deriv_t, col)
    return np.matmul(proj_t, prod)[..., 0]


@lru_cache(maxsize=16)
def _ns_workspace(cutoff: int):
    """2 pi k1, 2 pi k2, k1, k2 and |k|^2 (1 at k = 0) on the k2 >= 0 half."""
    k1, k2, ksq = (g[:, cutoff:] for g in fs._wavegrids(cutoff))
    ksq_safe = np.where(ksq == 0.0, 1.0, ksq)
    return 2.0 * np.pi * k1, 2.0 * np.pi * k2, k1, k2, ksq_safe


def ns_advection(spec: np.ndarray, cutoff: int,
                 n_grid: int | None = None) -> np.ndarray:
    """Leray-projected advection -P[(u.grad)u] on the spectral block.

    ``spec`` has shape (..., 2, n, n); leading axes hold independent fields.
    The kernel uses the rotational form (u.grad)u = grad(|u|^2/2) + w u_perp
    with w = d1 u2 - d2 u1 and u_perp = (-u2, u1).  The projection removes
    the gradient exactly, so the result is P[w (u2, -u1)]: one real inverse
    transform of (u2, -u1, w), one pointwise product and one real forward
    transform on an ``n_grid`` grid (default ``ns_product_grid``), all on
    the k2 >= 0 half of the block, whose conjugate flip gives the rest.
    """
    if n_grid is None:
        n_grid = ns_product_grid(cutoff)
    if n_grid < 3 * cutoff + 1:
        from .errors import ResolutionError
        raise ResolutionError(
            f"grid {n_grid} aliases quadratic products at cutoff {cutoff}"
        )
    tk1, tk2, k1, k2, ksq_safe = _ns_workspace(cutoff)
    u1 = spec[..., 0, :, cutoff:]
    u2 = spec[..., 1, :, cutoff:]
    half = np.empty(u1.shape[:-2] + (3,) + u1.shape[-2:], dtype=np.complex128)
    half[..., 0, :, :] = u2
    np.negative(u1, out=half[..., 1, :, :])
    half[..., 2, :, :] = 1j * (tk1 * u2 - tk2 * u1)
    grid = fs.half_to_grid(half, n_grid)
    out = fs.grid_to_half(grid[..., 2:, :, :] * grid[..., :2, :, :], cutoff)
    dot = (k1 * out[..., 0, :, :] + k2 * out[..., 1, :, :]) / ksq_safe
    out[..., 0, :, :] -= k1 * dot
    out[..., 1, :, :] -= k2 * dot
    return fs.half_to_full(out)


def linear_eigenvalues(model: ModelSpec) -> np.ndarray:
    """Spectral eigenvalues of the implicit (linear) drift part; 1-D models
    have no viscosity."""
    if model.viscosity is None:
        return model.space.laplacian_eigenvalues()
    return model.space.laplacian_eigenvalues(model.viscosity)


def explicit_drift(model: ModelSpec, state: np.ndarray) -> np.ndarray | None:
    """Non-implicit drift term (the nonlinearity) on raw coefficients, on
    the kernel's alias-free product grid; a leading axis of ``state``
    holds independent fields."""
    if model.kind == "heat":
        return None
    if model.kind == "burgers":
        return burgers_nonlinearity(state)
    return ns_advection(state, model.cutoff)


def _drift(model: ModelSpec, raw: np.ndarray) -> np.ndarray:
    """Full drift A(v) on raw coefficients; leading axes hold fields."""
    out = -linear_eigenvalues(model) * raw
    extra = explicit_drift(model, raw)
    return out if extra is None else out + extra


def _energies(model: ModelSpec, raw: np.ndarray) -> np.ndarray:
    """<F(v), v> per field for the non-dissipative drift part."""
    extra = explicit_drift(model, raw)
    if extra is None:
        return np.zeros(raw.shape[:-1])
    return fs.inners_h(extra, raw)


def taylor_green_field(cutoff: int, amplitude: float = 1.0) -> Field2D:
    """u = A (sin 2pix cos 2piy, -cos 2pix sin 2piy); divergence-free eigenfield."""
    if cutoff < 1:
        raise ParameterError("Taylor-Green needs cutoff >= 1")
    n = 2 * cutoff + 1
    spec = np.zeros((2, n, n), dtype=np.complex128)
    q = amplitude * 0.25j
    for s1 in (1, -1):
        for s2 in (1, -1):
            spec[0, s1 + cutoff, s2 + cutoff] = -q * s1
            spec[1, s1 + cutoff, s2 + cutoff] = q * s2
    return Field2D(spec)


# ---------------------------------------------------------------------------
# hypothesis audits


def _hemicontinuity_entry(model: ModelSpec, rng: np.random.Generator,
                          n_triples: int) -> dict:
    """Continuity of s -> <A(v1 + s v2), v3> on [-1, 1].

    Jumps are separated from smooth curvature by grid refinement: the
    midpoint interpolation residual of a C^2 curve drops by about 4x when
    the spacing halves, while a jump keeps it constant.  The absolute
    floor keeps roundoff from flagging flat curves.  Each triple's probes
    go through the drift in batches of ``fields.SUITE_CHUNK``.
    """
    floor = 1e-6
    worst_ratio = 0.0
    worst_fine = 0.0
    passed = True
    grid = np.linspace(-1.0, 1.0, 401)
    triples = model.space.draw(3 * n_triples, rng)
    triples = triples.reshape((n_triples, 3) + triples.shape[1:])
    steps = grid.reshape((-1,) + (1,) * (triples.ndim - 2))
    for v1, v2, v3 in triples:
        probes = v1 + steps * v2
        vals = np.concatenate([
            fs.inners_h(_drift(model, probes[i:i + fs.SUITE_CHUNK]), v3)
            for i in range(0, len(probes), fs.SUITE_CHUNK)])
        scale = 1.0 + np.max(np.abs(vals))
        coarse = vals[::4]
        mid_c = vals[2::4]
        res_c = np.max(np.abs(mid_c - 0.5 * (coarse[:-1] + coarse[1:])))
        fine = vals[::2]
        mid_f = vals[1::2]
        res_f = np.max(np.abs(mid_f - 0.5 * (fine[:-1] + fine[1:])))
        ok = res_f <= max(res_c / 3.0, floor * scale)
        passed = passed and ok
        worst_fine = max(worst_fine, res_f / scale)
        if res_c > 0.0:
            worst_ratio = max(worst_ratio, res_f / res_c)
    return {
        "pass": bool(passed),
        "worst_refinement_ratio": float(worst_ratio),
        "worst_residual": float(worst_fine),
        "n_triples": int(n_triples),
    }


def audit_hypotheses(model: ModelSpec, n_samples: int = 64,
                     experiment_seed: int = 0) -> dict:
    """Numerical audit of the variational hypotheses on random fields.

    Fields are drawn with a k^-1.5 spectral envelope; every fourth pair is
    made nearly parallel to stress the monotonicity denominators.  Every
    term of every pair comes from the space kernels as one array (each
    A(v1) once for monotonicity, coercivity and growth), and each witness
    is the first pair at the extreme slack.  The report is
    JSON-serializable; failed checks set ``pass`` to False.
    """
    rng = generator(experiment_seed, derived_replicate(LANE_FIELDS, 0))
    cst = model.constants
    space = model.space
    tol = 1e-9

    h1 = _hemicontinuity_entry(model, rng, n_triples=max(4, n_samples // 16))

    # Pair i draws v1 and then v2, or for every fourth pair a perturbation
    # of scale 1e-4 that is added to v1.
    near = np.arange(n_samples) % 4 == 3
    scales = np.stack([np.ones(n_samples), np.where(near, 1e-4, 1.0)], axis=1)
    draws = space.draw(2 * n_samples, rng, scale=scales.ravel())
    v1 = draws[0::2]
    v2 = np.where(near.reshape((-1,) + (1,) * (v1.ndim - 1)), v1 + draws[1::2],
                  draws[1::2])
    a1 = _drift(model, v1)
    dv = v1 - v2
    lam = space.laplacian_eigenvalues()
    inv_lam = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > 0.0)

    gap_sq = space.sq_norms(dv)
    h_sq = space.sq_norms(v1)
    v_sq = space.sq_norms(v1, lam)
    dual_sq = space.sq_norms(a1, inv_lam)
    b_v1 = hs_norm(model.noise, np.sqrt(h_sq))
    b_sq = b_v1 * b_v1
    b_gap = b_v1 - hs_norm(model.noise, np.sqrt(space.sq_norms(v2)))
    lhs = 2.0 * space.inners(a1 - _drift(model, v2), dv) + b_gap * b_gap

    if model.locally_monotone:
        required = (lhs / gap_sq
                    - model.rho_coefficient * space.grid_moments(v2)[1])
        mono_witness = int(np.argmax(required))
        monotonicity = {
            "pass": bool(required[mono_witness] <= cst.K2_tilde + tol),
            "empirical_K2_tilde": float(required[mono_witness]),
            "declared_K2_tilde": float(cst.K2_tilde),
            "witness": mono_witness,
            "rho": model.local_rho,
            "rho_coefficient": float(model.rho_coefficient),
        }
        growth = ((model.f_tilde + cst.K4_tilde * v_sq)
                  * (1.0 + h_sq ** (cst.beta / 2.0)) - dual_sq)
    else:
        mono = cst.K2 * gap_sq - lhs
        mono_witness = int(np.argmin(mono))
        monotonicity = {
            "pass": bool(mono[mono_witness] >= -tol),
            "worst_slack": float(mono[mono_witness]),
            "declared_K2": float(cst.K2),
            "witness": mono_witness,
        }
        growth = ((math.sqrt(model.f_tilde) + cst.K4 * np.sqrt(v_sq))
                  - np.sqrt(dual_sq))
    coercivity = ((model.f_tilde - cst.theta * v_sq + cst.K3 * h_sq)
                  - (2.0 * space.inners(a1, v1) + b_sq))
    coercivity_witness = int(np.argmin(coercivity))
    growth_witness = int(np.argmin(growth))
    hs_worst = float(np.max(b_sq))

    report = {
        "model": model.kind,
        "n_samples": int(n_samples),
        "experiment_seed": int(experiment_seed),
        "hemicontinuity": h1,
        "monotonicity": monotonicity,
        "coercivity": {
            "pass": bool(coercivity[coercivity_witness] >= -tol),
            "worst_slack": float(coercivity[coercivity_witness]),
            "theta": float(cst.theta),
            "f_tilde": float(model.f_tilde),
            "witness": coercivity_witness,
        },
        "growth": {
            "pass": bool(growth[growth_witness] >= -tol),
            "worst_slack": float(growth[growth_witness]),
            "witness": growth_witness,
        },
        "noise_bound": {
            "pass": bool(hs_worst <= model.noise.c_b * (1.0 + 1e-12)),
            "worst_hs_norm_sq": float(hs_worst),
            "C_B": float(model.noise.c_b),
        },
    }
    report["pass"] = all(
        report[k]["pass"]
        for k in ("hemicontinuity", "monotonicity", "coercivity", "growth",
                  "noise_bound")
    )
    return report


def nonlinearity_energy_suite(model: ModelSpec, n_fields: int,
                              experiment_seed: int = 0,
                              tol: float = 1e-10) -> dict:
    """|<F(u), u>| over seeded random fields, ``fields.SUITE_CHUNK`` fields
    per batched drift call; the drift's non-dissipative part is
    energy-neutral for every model here."""
    rng = generator(experiment_seed, derived_replicate(LANE_FIELDS, 1))
    worst = 0.0
    violations = 0
    for count in fs.suite_chunks(n_fields):
        e = np.abs(_energies(model, model.space.draw(count, rng)))
        worst = max(worst, float(np.max(e)))
        violations += int(np.sum(e > tol))
    return {
        "model": model.kind,
        "n_fields": int(n_fields),
        "violations": int(violations),
        "worst_energy": float(worst),
        "tolerance": float(tol),
    }


def t1_feasibility(model: ModelSpec) -> dict:
    """Structural checks behind the transport-inequality constants.

    Verifies theta * eta > K3, alpha = 2 and a nonnegative coercivity
    schedule, and reports the admissible interval for the convexity
    parameter c.
    """
    cst = model.constants
    reasons = []
    margin = cst.theta * cst.eta - cst.K3
    if margin <= 0.0:
        reasons.append(
            f"theta * eta = {cst.theta * cst.eta:.6g} does not exceed "
            f"K3 = {cst.K3:.6g}"
        )
    if cst.alpha != 2.0:
        reasons.append(f"alpha = {cst.alpha:.6g} (the constants need alpha = 2)")
    if model.f_tilde < 0.0:
        reasons.append("f_tilde is negative")
    c_max = 1.0 - cst.K3 / (cst.theta * cst.eta) if margin > 0.0 else 0.0
    return {
        "feasible": not reasons,
        "reasons": reasons,
        "theta_eta_minus_K3": float(margin),
        "c_interval": [0.0, float(c_max)],
        "model": model.kind,
    }
