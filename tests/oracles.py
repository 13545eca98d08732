"""Independent brute-force oracles the test suite freezes values against.

Everything here is deliberately naive: dense grids, factorial
enumeration, direct formulas.  The point is that none of it shares code
paths with the package internals it checks.
"""

import itertools
import math

import numpy as np


def t2_objective_grid(horizon, K2, C_B, C1, eps1, eps2):
    """Vectorized log-objective on a meshgrid, +inf outside the triangle."""
    e1, e2 = np.meshgrid(eps1, eps2, indexing="ij")
    rest = 1.0 - e1 - e2
    ok = (e1 > 0.0) & (e2 > 0.0) & (rest > 0.0)
    k2p = max(K2, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_obj = (
            math.log(C_B)
            - np.log(e1)
            - np.log(rest)
            + (e2 + C1**2) * k2p * horizon / (rest * e2)
        )
    return np.where(ok, log_obj, np.inf)


def t2_grid_oracle(horizon, K2, C_B, C1, n=1000):
    """Two-stage dense grid search: 10^6 coarse points, then a 10^6-point
    zoom around the coarse argmin.  Returns the best value found."""
    lo = 1e-9
    eps1 = np.linspace(lo, 1.0 - lo, n)
    eps2 = np.linspace(lo, 1.0 - lo, n)
    stage1 = t2_objective_grid(horizon, K2, C_B, C1, eps1, eps2)
    flat = int(np.argmin(stage1))
    i, j = flat // n, flat % n
    cell = eps1[1] - eps1[0]

    z1 = np.linspace(max(lo, eps1[i] - 2 * cell), min(1.0 - lo, eps1[i] + 2 * cell), n)
    z2 = np.linspace(max(lo, eps2[j] - 2 * cell), min(1.0 - lo, eps2[j] + 2 * cell), n)
    stage2 = t2_objective_grid(horizon, K2, C_B, C1, z1, z2)
    best = min(float(np.min(stage1)), float(np.min(stage2)))
    return math.exp(best)


def w2_factorial_oracle(a, b):
    """Exact W2 between equal-size clouds by enumerating all pairings."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    n = a.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        pair_costs = np.sum((a - b[list(perm)]) ** 2, axis=1)
        best = min(best, float(np.mean(pair_costs)))
    return math.sqrt(best)


# ---------------------------------------------------------------------------
# per-field references for the batched field suites and the audit
#
# One field per Python iteration, with the numpy norms of one field
# (np.dot, np.sum, np.mean) and Python-float arithmetic.  They share only the
# single-row drift kernels with the package; the model tests check those
# against brute-force triad sums.  A weighted squared norm sum_k w_k |x_k|^2
# is np.dot(w * x, x) on a sine field and one np.sum of w |x|^2 over a
# whole torus field, with w = 1 (H), the Laplacian eigenvalues (V) or their
# reciprocals (V*).


def _wavegrids(cutoff):
    k = np.arange(-cutoff, cutoff + 1, dtype=np.float64)
    k1 = k[:, None] + np.zeros((1, k.size))
    k2 = np.zeros((k.size, 1)) + k[None, :]
    return k1, k2, k1**2 + k2**2


def field_1d(n_modes, rng, scale=1.0, envelope=-1.5):
    """Sine coefficients under a k^envelope decay, one field."""
    k = np.arange(1, n_modes + 1, dtype=np.float64)
    return scale * rng.standard_normal(n_modes) * k**envelope


def field_2d(cutoff, rng, scale=1.0, envelope=-1.5):
    """Divergence-free Hermitian spectrum (2, n, n), one field."""
    n = 2 * cutoff + 1
    raw = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    k1, k2, ksq = _wavegrids(cutoff)
    env = np.where(ksq == 0.0, 0.0, np.sqrt(np.where(ksq == 0, 1, ksq)) ** envelope)
    s = scale * env * raw
    spec = 0.5 * (s + np.conj(s[:, ::-1, ::-1]))
    spec[:, cutoff, cutoff] = 0.0
    dot = (k1 * spec[0] + k2 * spec[1]) / np.where(ksq == 0.0, 1.0, ksq)
    amp = np.abs(spec[0]) + np.abs(spec[1])
    dot[np.abs(dot) <= 16.0 * np.finfo(np.float64).eps * amp] = 0.0
    spec[0] -= k1 * dot
    spec[1] -= k2 * dot
    spec[:, cutoff, cutoff] = 0.0
    return spec


def sine_table(n_modes, n_points):
    x = (np.arange(n_points) + 0.5) / n_points
    return np.sqrt(2.0) * np.sin(np.pi * np.outer(x, np.arange(1, n_modes + 1)))


def torus_grid(spec, n_grid):
    """Real point values (2, n_grid, n_grid) by one inverse real FFT."""
    cutoff = spec.shape[-1] // 2
    half = spec[:, :, cutoff:]
    buf = np.zeros((2, n_grid, n_grid // 2 + 1), dtype=np.complex128)
    buf[:, :cutoff + 1, :cutoff + 1] = half[:, cutoff:, :]
    buf[:, n_grid - cutoff:, :cutoff + 1] = half[:, :cutoff, :]
    return np.fft.irfft2(buf, s=(n_grid, n_grid), norm="forward")


def v_weights(raw):
    """(k pi)^2 per sine mode, (2 pi)^2 |k|^2 per torus wavevector."""
    if np.iscomplexobj(raw):
        return (2.0 * np.pi) ** 2 * _wavegrids(raw.shape[-1] // 2)[2]
    return (np.pi * np.arange(1, raw.shape[-1] + 1, dtype=np.float64)) ** 2


def sq_norm(raw, w=1.0):
    """sum_k w_k |x_k|^2 of one field."""
    if np.iscomplexobj(raw):
        return float(np.sum(w * np.abs(raw) ** 2))
    return float(np.dot(w * raw, raw))


def norm_h(raw):
    return float(np.sqrt(sq_norm(raw)))


def divergence_linf(spec):
    """Max spectral divergence |k . u_hat(k)| of one torus spectrum (2, n, n),
    zero for divergence-free fields."""
    k1, k2, _ = _wavegrids(spec.shape[-1] // 2)
    return float(np.max(np.abs(k1 * spec[0] + k2 * spec[1])))


def inner_h(a, b):
    if np.iscomplexobj(a):
        return float(np.real(np.sum(np.conj(a) * b)))
    return float(np.dot(a, b))


def vstar_weights(raw):
    """The reciprocal V weights, 0 at k = 0."""
    w = v_weights(raw)
    return np.where(w == 0.0, 0.0, 1.0 / np.where(w == 0.0, 1.0, w))


def grid_moments(raw):
    """(int |v|^2, int |v|^4) of one field on the quartic quadrature grid
    (4N midpoints, or 4K+4 points per torus axis)."""
    if np.iscomplexobj(raw):
        vals = torus_grid(raw, 4 * (raw.shape[-1] // 2) + 4)
        speed_sq = vals[0] ** 2 + vals[1] ** 2
        return np.mean(speed_sq), np.mean(speed_sq**2)
    n_points = 4 * raw.size
    vals = sine_table(raw.size, n_points) @ raw
    w = np.full(n_points, 1.0 / n_points)
    return np.dot(w, vals**2), np.dot(w, vals**4)


def _norm_terms(fields):
    """(||v||_H^2, ||v||_V^2, int |v|^4, quadrature ||v||_H^2) of each
    field, one field and one grid evaluation at a time."""
    out = []
    for f in fields:
        m2, m4 = grid_moments(f)
        out.append((sq_norm(f), sq_norm(f, v_weights(f)), m4, m2))
    return np.array(out).T


def norm_terms_2d(n_fields, cutoff, rng):
    return _norm_terms(field_2d(cutoff, rng) for _ in range(n_fields))


def norm_terms_1d(n_fields, n_modes, rng):
    return _norm_terms(field_1d(n_modes, rng) for _ in range(n_fields))


def norm_suite(kind, n_fields, size, rng):
    """The norm inequality report on ``n_fields`` fields of ``size`` sine
    modes (``kind`` "1d") or torus cutoff ("2d"), one field at a time."""
    if kind == "1d":
        poincare, interp_c = np.pi**2, 4.0
        terms = norm_terms_1d(n_fields, size, rng)
    else:
        poincare, interp_c = 4.0 * np.pi**2, 2.0
        terms = norm_terms_2d(n_fields, size, rng)
    tol = 1e-12
    worst_ratio, worst_interp, worst_parseval = np.inf, np.inf, 0.0
    viol_p = viol_i = viol_q = 0
    for h_sq, v_sq, l4_4, q_sq in terms.T.tolist():
        if h_sq == 0.0:
            continue
        ratio = v_sq / h_sq
        interp = interp_c * h_sq * v_sq - l4_4
        perr = abs(q_sq - h_sq) / (1.0 + h_sq)
        worst_ratio = min(worst_ratio, ratio)
        worst_interp = min(worst_interp, interp)
        worst_parseval = max(worst_parseval, perr)
        viol_p += ratio < poincare * (1.0 - tol)
        viol_i += interp < 0.0
        viol_q += perr > tol
    return {
        "n_fields": n_fields,
        "poincare": {"violations": viol_p, "worst_ratio": worst_ratio,
                     "bound": poincare},
        "l4_interpolation": {"violations": viol_i, "worst_margin": worst_interp,
                             "constant": interp_c},
        "parseval": {"violations": viol_q, "worst_error": worst_parseval,
                     "tolerance": tol},
    }


def energy_suite(model, n_fields, experiment_seed, tol=1e-10):
    """|<F(u), u>| over seeded fields, one field and one kernel call at a time."""
    from tci_spde.models import burgers_nonlinearity, ns_advection
    from tci_spde.noise import LANE_FIELDS, derived_replicate, generator

    rng = generator(experiment_seed, derived_replicate(LANE_FIELDS, 1))
    worst, violations = 0.0, 0
    for _ in range(n_fields):
        if model.kind == "ns2d":
            u = field_2d(model.cutoff, rng)
            e = abs(inner_h(ns_advection(u, model.cutoff), u))
        else:
            u = field_1d(model.n_modes, rng)
            e = 0.0 if model.kind == "heat" else abs(inner_h(burgers_nonlinearity(u), u))
        worst = max(worst, e)
        violations += e > tol
    return {"model": model.kind, "n_fields": n_fields, "violations": violations,
            "worst_energy": worst, "tolerance": tol}


def audit(model, n_samples, experiment_seed):
    """The hypothesis audit report, one field and one drift call at a time,
    on squared norms and grid moments."""
    from tci_spde.models import explicit_drift, linear_eigenvalues
    from tci_spde.noise import LANE_FIELDS, derived_replicate, generator

    rng = generator(experiment_seed, derived_replicate(LANE_FIELDS, 0))
    cst, op, tol = model.constants, model.noise, 1e-9
    lam = linear_eigenvalues(model)

    def sample(scale=1.0):
        if model.kind == "ns2d":
            return field_2d(model.cutoff, rng, scale=scale)
        return field_1d(model.n_modes, rng, scale=scale)

    def drift(v):
        extra = explicit_drift(model, v)
        return -lam * v if extra is None else -lam * v + extra

    def hs(h_sq):
        return float(np.sqrt(np.sum(op.gains**2)) * op.g(math.sqrt(h_sq)))

    grid = np.linspace(-1.0, 1.0, 401)
    n_triples = max(4, n_samples // 16)
    worst_ratio = worst_fine = 0.0
    passed = True
    for _ in range(n_triples):
        v1, v2, v3 = sample(), sample(), sample()
        vals = np.array([inner_h(drift(v1 + s * v2), v3) for s in grid])
        scale = 1.0 + np.max(np.abs(vals))
        res_c = np.max(np.abs(vals[2::4] - 0.5 * (vals[::4][:-1] + vals[::4][1:])))
        res_f = np.max(np.abs(vals[1::2] - 0.5 * (vals[::2][:-1] + vals[::2][1:])))
        passed = passed and res_f <= max(res_c / 3.0, 1e-6 * scale)
        worst_fine = max(worst_fine, res_f / scale)
        if res_c > 0.0:
            worst_ratio = max(worst_ratio, res_f / res_c)

    mono, coer, growth = [], [], []
    hs_worst = 0.0
    for i in range(n_samples):
        v1 = sample()
        v2 = v1 + sample(1e-4) if i % 4 == 3 else sample()
        a1 = drift(v1)
        gap_sq, h_sq = sq_norm(v1 - v2), sq_norm(v1)
        v_sq, dual_sq = sq_norm(v1, v_weights(v1)), sq_norm(a1, vstar_weights(a1))
        b1 = hs(h_sq)
        b_gap = b1 - hs(sq_norm(v2))
        lhs = 2.0 * inner_h(a1 - drift(v2), v1 - v2) + b_gap * b_gap
        if model.locally_monotone:
            mono.append(lhs / gap_sq - model.rho_coefficient * grid_moments(v2)[1])
            growth.append((model.f_tilde + cst.K4_tilde * v_sq)
                          * (1.0 + h_sq ** (cst.beta / 2.0)) - dual_sq)
        else:
            mono.append(cst.K2 * gap_sq - lhs)
            growth.append((math.sqrt(model.f_tilde) + cst.K4 * math.sqrt(v_sq))
                          - math.sqrt(dual_sq))
        coer.append((model.f_tilde - cst.theta * v_sq + cst.K3 * h_sq)
                    - (2.0 * inner_h(a1, v1) + b1 * b1))
        hs_worst = max(hs_worst, b1 * b1)

    if model.locally_monotone:
        w = int(np.argmax(mono))
        monotonicity = {"pass": mono[w] <= cst.K2_tilde + tol,
                        "empirical_K2_tilde": mono[w],
                        "declared_K2_tilde": cst.K2_tilde, "witness": w,
                        "rho": model.local_rho,
                        "rho_coefficient": model.rho_coefficient}
    else:
        w = int(np.argmin(mono))
        monotonicity = {"pass": mono[w] >= -tol, "worst_slack": mono[w],
                        "declared_K2": cst.K2, "witness": w}
    wc, wg = int(np.argmin(coer)), int(np.argmin(growth))
    report = {
        "model": model.kind, "n_samples": n_samples,
        "experiment_seed": experiment_seed,
        "hemicontinuity": {"pass": passed, "worst_refinement_ratio": worst_ratio,
                           "worst_residual": worst_fine, "n_triples": n_triples},
        "monotonicity": monotonicity,
        "coercivity": {"pass": coer[wc] >= -tol, "worst_slack": coer[wc],
                       "theta": cst.theta, "f_tilde": model.f_tilde,
                       "witness": wc},
        "growth": {"pass": growth[wg] >= -tol, "worst_slack": growth[wg],
                   "witness": wg},
        "noise_bound": {"pass": hs_worst <= op.c_b * (1.0 + 1e-12),
                        "worst_hs_norm_sq": hs_worst, "C_B": op.c_b},
    }
    report["pass"] = all(report[k]["pass"] for k in (
        "hemicontinuity", "monotonicity", "coercivity", "growth", "noise_bound"))
    return report


# ---------------------------------------------------------------------------
# one Philox block at a time


def standard_normals(experiment_seed, replicate, step, n):
    """The n standard normals of one (replicate, step) block, from a stream
    advanced to the step on its own, without drawing the steps before it."""
    from tci_spde.noise import _blocks_per_step, _normals_from_raw, _philox

    bg = _philox(experiment_seed, replicate)
    if step > 0:
        bg.advance(step * _blocks_per_step(n))
    return _normals_from_raw(np.asarray(bg.random_raw(n), dtype=np.uint64))


# ---------------------------------------------------------------------------
# full-size references for the pruned transforms and the sparse noise


def irfft2_half(half, n_grid):
    """Grid values of k2 >= 0 half-spectra (..., 2K+1, K+1) by one
    ``irfft2`` of the whole zero-padded (n_grid, n_grid // 2 + 1) block."""
    cutoff = half.shape[-1] - 1
    buf = np.zeros(half.shape[:-2] + (n_grid, n_grid // 2 + 1), dtype=np.complex128)
    buf[..., :cutoff + 1, :cutoff + 1] = half[..., cutoff:, :]
    buf[..., n_grid - cutoff:, :cutoff + 1] = half[..., :cutoff, :]
    return np.fft.irfft2(buf, s=(n_grid, n_grid), norm="forward")


def rfft2_half(values, cutoff):
    """The k2 >= 0 half-spectra up to ``cutoff`` of real grid data, cut out
    of one ``rfft2`` of the whole grid."""
    n_grid = values.shape[-1]
    spec = np.fft.rfft2(values, norm="forward")
    rows = list(range(n_grid - cutoff, n_grid)) + list(range(cutoff + 1))
    return spec[..., rows, :cutoff + 1]


def dense_basis_2d(cutoff, n_w):
    """The first n_w divergence-free basis fields as dense (n_w, 2, n, n)
    spectra: half-space wavevectors sorted by (|k|^2, k1, k2), a cosine and
    a sine field each, polarized along k-perp."""
    half = sorted((k1 * k1 + k2 * k2, k1, k2)
                  for k1 in range(cutoff + 1) for k2 in range(-cutoff, cutoff + 1)
                  if k1 > 0 or k2 > 0)
    n = 2 * cutoff + 1
    basis = np.zeros((n_w, 2, n, n), dtype=np.complex128)
    for j in range(n_w):
        _, k1, k2 = half[j // 2]
        norm = np.hypot(k1, k2)
        perp = np.array([-k2 / norm, k1 / norm])
        # (-1j * perp) / sqrt(2) is a complex division, which need not
        # equal -1j * (perp / sqrt(2)) in the last bit
        amp = perp / np.sqrt(2.0) if j % 2 == 0 else -1j * perp / np.sqrt(2.0)
        for c in range(2):
            basis[j, c, k1 + cutoff, k2 + cutoff] = amp[c]
            basis[j, c, cutoff - k1, cutoff - k2] = np.conj(amp[c])
    return basis


def dense_embed_2d(gains, basis, w):
    """B w as a dense contraction of the gains-weighted w with every basis
    spectrum, shape (..., 2, n, n)."""
    return np.tensordot(gains * w, basis, axes=(-1, 0))


# ---------------------------------------------------------------------------
# the Burgers product by quadrature


def sine_derivative_values(coeffs, n_points):
    """d/dx of a sine series at the ``n_points`` midpoint nodes."""
    x = (np.arange(n_points) + 0.5) / n_points
    k = np.arange(1, coeffs.size + 1)
    return (np.sqrt(2.0) * (k * np.pi) * np.cos(np.pi * np.outer(x, k))) @ coeffs


def sine_project(values, n_modes):
    """Sine coefficients c_k = int f sqrt(2) sin(k pi x) of midpoint grid
    data; exact for trigonometric polynomials the grid resolves."""
    n_points = values.size
    return sine_table(n_modes, n_points).T @ (values / n_points)


# ---------------------------------------------------------------------------
# path distances, for auditing the declared Lipschitz constants of the
# trajectory functionals


def trajectory_from_states(times, states):
    """A ``Trajectory`` of raw snapshots, its norms, running
    V-energy and sup-H norm recomputed from the snapshots."""
    from tci_spde.errors import ParameterError
    from tci_spde.solver import Trajectory

    times = np.asarray(times, dtype=np.float64)
    states = np.asarray(states)
    if times.ndim != 1 or times.shape[0] != states.shape[0]:
        raise ParameterError("times and states disagree")
    p = np.abs(states) ** 2
    axes = tuple(range(1, states.ndim))
    h_sq = np.sum(p, axis=axes)
    v_sq = np.sum(v_weights(states) * p, axis=axes)
    v_energy = np.concatenate(
        [[0.0], np.cumsum(0.5 * np.diff(times) * (v_sq[:-1] + v_sq[1:]))])
    return Trajectory(times=times, states=states, h_sq=h_sq, v_sq=v_sq,
                      v_energy=v_energy,
                      sup_h_norm=np.maximum.accumulate(np.sqrt(h_sq)),
                      terminal=states[-1])


def metric_distance(metric, a, b):
    """Path distance between two trajectories on the same time grid:
    ``uniform_H`` is sup_t ||a - b||_H, ``L2_V_path`` the trapezoid
    (int ||a - b||_V^2 dt)^(1/2)."""
    from tci_spde.errors import ParameterError

    if a.states.shape != b.states.shape or not np.allclose(a.times, b.times):
        raise ParameterError("trajectories live on different grids")
    p = np.abs(a.states - b.states) ** 2
    axes = tuple(range(1, p.ndim))
    if metric == "uniform_H":
        return math.sqrt(float(np.max(np.sum(p, axis=axes))))
    if metric != "L2_V_path":
        raise ParameterError(f"unknown metric {metric!r}")
    v_sq = np.sum(v_weights(a.states) * p, axis=axes)
    return math.sqrt(float(np.sum(0.5 * np.diff(a.times) * (v_sq[:-1] + v_sq[1:]))))


def functional_of(functional, traj):
    """The package functional on one trajectory: ``values`` on the one-row
    path summary that ``solve_block`` would give for it."""
    from tci_spde.solver import _path_summaries

    row = _path_summaries(traj.v_energy[-1:], traj.sup_h_norm[-1:],
                          traj.terminal[None])
    return float(functional.values(row)[0])


def lipschitz_audit(functional, pairs):
    """|F(u) - F(v)| <= L d(u, v) over trajectory pairs; counts violations."""
    worst, violations, n = -math.inf, 0, 0
    for a, b in pairs:
        gap = abs(functional_of(functional, a) - functional_of(functional, b))
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
