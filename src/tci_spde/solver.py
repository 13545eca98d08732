"""Semi-implicit Euler-Maruyama stepping for the SPDE models.

Each step treats the (negative definite) linear part implicitly and
everything else explicitly:

    u_{n+1} = [u_n + dt F(t_n, u_n) + dt f(t_n)
               + B(t_n, u_n)(dW_n + h(t_n) dt)] / (1 + dt lambda_k)

applied mode by mode, where lambda_k are the spectral eigenvalues of the
implicit part and h is an optional Girsanov shift.

One loop, ``solve_block``, advances a block of replicates at once: the
state carries a leading row axis, and running reductions (trapezoid
V-energy, sup H-norm, terminal state, and for coupled blocks the sup of
the squared gap between shifted and unshifted rows) replace stored paths.
``solve`` is that loop on one row with its states recorded.  Ensembles cut
their replicates into blocks of ``BLOCK_REPLICATES``, a code constant, so
their results do not depend on the worker count.  Blow-up raises with the
(experiment_seed, replicate, step) address instead of propagating NaNs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DivergenceError, ParameterError, InvalidFieldError
from .fields import Field1D, Field2D
from .models import (ModelSpec, burgers_product_grid, explicit_drift,
                     linear_eigenvalues, ns_product_grid, taylor_green_field)
from .noise import increment_table, embed_2d
from .parallel import parallel_map

# Replicates per block.  A code constant, never derived from the worker
# count, so every replicate is stepped in the same block (the rows that
# share its batched transforms and products) whatever the worker count.
BLOCK_REPLICATES = 8


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters; the horizon must be a whole number of steps.

    The resolution fields are optional cross-checks: when given they must
    agree with the model (the model owns its resolution, because the noise
    embedding depends on it).  ``dealias`` evaluates the quadratic products
    of the nonlinearities on the smallest alias-free product grid (3N//2+1
    midpoints for Burgers, the smallest 5-smooth side >= 3K+1 for ns2d);
    switching it off evaluates them at the minimal collocation resolution
    (N and 3K+1).  The product grid is not the quartic grid of the L^4 norms
    (4N and 4K+4), which products do not need.  ``snapshot_stride`` thins
    the states a recorded trajectory keeps.
    """

    dt: float
    horizon: float
    n_modes: int | None = None
    cutoff: int | None = None
    dealias: bool = True
    snapshot_stride: int = 1

    def __post_init__(self):
        if self.dt <= 0.0 or self.horizon <= 0.0:
            raise ParameterError("dt and horizon must be positive")
        n = round(self.horizon / self.dt)
        if n < 1 or abs(n * self.dt - self.horizon) > 1e-9 * max(self.horizon, 1.0):
            raise ParameterError(
                f"horizon {self.horizon} is not a whole number of steps of {self.dt}"
            )
        if self.snapshot_stride < 1:
            raise ParameterError("snapshot_stride must be at least 1")

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.dt)


def _check_resolution(model: ModelSpec, cfg: SolverConfig):
    if cfg.n_modes is not None and cfg.n_modes != model.n_modes:
        raise ParameterError("solver n_modes disagrees with the model")
    if cfg.cutoff is not None and cfg.cutoff != model.cutoff:
        raise ParameterError("solver cutoff disagrees with the model")


def _product_grid(model: ModelSpec, cfg: SolverConfig) -> int | None:
    """Grid on which the drift kernel evaluates its quadratic product: with
    ``cfg.dealias`` the smallest alias-free one (``burgers_product_grid``,
    ``ns_product_grid``), otherwise the minimal collocation grid.  None for
    heat, which has no product."""
    if model.kind == "heat":
        return None
    if model.kind == "burgers":
        return burgers_product_grid(model.n_modes) if cfg.dealias else model.n_modes
    return ns_product_grid(model.cutoff) if cfg.dealias else 3 * model.cutoff + 1


def _path_summaries(v_energy, sup_h, terminal) -> np.ndarray:
    """Structured rows (v_energy_total, sup_h_total, terminal state)."""
    dtype = np.dtype([("v_energy_total", np.float64),
                      ("sup_h_total", np.float64),
                      ("terminal", terminal.dtype, terminal.shape[1:])])
    out = np.empty(len(terminal), dtype=dtype)
    out["v_energy_total"] = v_energy
    out["sup_h_total"] = sup_h
    out["terminal"] = terminal
    return out


@dataclass
class Trajectory:
    """One sample path, recorded every ``snapshot_stride`` steps.

    ``states[i]`` is the raw coefficient array at time ``times[i]``;
    ``field(i)`` wraps it.  The last entry is always the terminal state.
    ``h_sq[i]`` and ``v_sq[i]`` are ||X_{t_i}||_H^2 and ||X_{t_i}||_V^2.
    ``v_energy[i]`` is the trapezoid value of int_0^{t_i} ||X_s||_V^2 ds and
    ``sup_h_norm[i]`` the running max of the H-norm, both accumulated over
    every step (not only the recorded ones) and including the initial state.
    """

    times: np.ndarray
    states: np.ndarray
    h_sq: np.ndarray
    v_sq: np.ndarray
    v_energy: np.ndarray
    sup_h_norm: np.ndarray
    kind: str

    def field(self, i: int):
        if self.kind == "1d":
            return Field1D(self.states[i])
        return Field2D(self.states[i])

    @property
    def terminal_field(self):
        return self.field(len(self.times) - 1)

    @property
    def v_energy_total(self) -> float:
        return float(self.v_energy[-1])

    @property
    def sup_h_total(self) -> float:
        return float(self.sup_h_norm[-1])

    def summary(self) -> np.ndarray:
        """One-row path summary, as ``solve_block`` returns for ensembles."""
        return _path_summaries(self.v_energy[-1:], self.sup_h_norm[-1:],
                               self.states[-1:])


def _state_rows(model: ModelSpec, x0_raw: np.ndarray, n_rows: int,
                lam: np.ndarray):
    """``n_rows`` copies of ``x0_raw`` and a function of no arguments that
    returns the (2, n_rows) array of (||u||_H^2, ||u||_V^2) per row.

    The function reads the rows in place, so the caller updates them in
    place.  A real row's norms are BLAS dot products taken one row at a
    time (a stack of vector-vector matmuls, both norms in one call), so
    they equal ``np.dot`` on the row bitwise whatever the block holds.
    """
    if model.kind == "ns2d":
        rows = np.repeat(x0_raw[None], n_rows, axis=0)
        flat = rows.reshape(n_rows, -1)
        weights = np.broadcast_to(lam, x0_raw.shape).ravel()
        visc = model.viscosity

        def norms():
            p = np.abs(flat) ** 2
            return np.array([p.sum(axis=1), (weights * p).sum(axis=1) / visc])
        return rows, norms
    # lhs[0] holds the rows and lhs[1] the rows weighted by lam.
    lhs = np.empty((2, n_rows, x0_raw.size))
    rows = lhs[0]
    rows[...] = x0_raw
    lhs_rows = lhs[:, :, None, :]
    rhs = np.broadcast_to(rows[:, :, None], lhs.shape + (1,))

    def norms():
        np.multiply(lam, rows, out=lhs[1])
        return np.matmul(lhs_rows, rhs).reshape(2, n_rows)
    return rows, norms


def _sq_gap(model: ModelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||a - b||_H^2 per row."""
    d = a - b
    p = np.abs(d) ** 2 if model.kind == "ns2d" else d * d
    return p.reshape(len(p), -1).sum(axis=1)


def _initial_state(model: ModelSpec, x0) -> np.ndarray:
    if model.kind == "ns2d":
        if not isinstance(x0, Field2D) or x0.cutoff != model.cutoff:
            raise InvalidFieldError("initial condition must match the model cutoff")
        return x0.spec
    if not isinstance(x0, Field1D) or x0.n_modes != model.n_modes:
        raise InvalidFieldError("initial condition must match the model modes")
    return x0.coeffs


def block_increments(model: ModelSpec, cfg: SolverConfig, experiment_seed: int,
                     replicates) -> np.ndarray:
    """The (n_steps, P, n_w) Wiener increments of P replicates, each drawn
    from its own (experiment_seed, replicate) stream."""
    op = model.noise
    out = np.empty((cfg.n_steps, len(replicates), op.n_w))
    for i, r in enumerate(replicates):
        out[:, i] = increment_table(op, cfg.dt, experiment_seed, r, cfg.n_steps)
    return out


@dataclass
class Block:
    """Results of one block.  Rows are leg-major: row j * P + i is the i-th
    of the P replicates on the j-th shift leg.

    ``paths`` holds one path summary per row; ``sup_gap_sq`` (two-leg
    blocks only) the per-replicate sup_t ||X_leg0 - X_leg1||_H^2;
    ``trajectories`` (recorded blocks only) one Trajectory per row.
    """

    paths: np.ndarray
    sup_gap_sq: np.ndarray | None = None
    trajectories: list | None = None


def solve_block(model: ModelSpec, cfg: SolverConfig, x0, experiment_seed: int,
                replicates, increments: np.ndarray | None = None,
                shifts=(None,), zero_noise: bool = False,
                record: bool = False) -> Block:
    """Advance every (shift leg, replicate) row of one block in lockstep.

    Every row starts from ``x0``.  ``increments`` holds the Wiener
    increments of the replicates, shape (n_steps, P, n_w); by default each
    replicate draws its own from (experiment_seed, replicate), so any row
    is reproducible on its own.  All legs share them.  Each entry of
    ``shifts`` is None or the (n_steps, n_w) values h(t_k) of a Girsanov
    shift, applied per step as dW_k + dt h(t_k).  Two legs also give the
    running sup of the squared H-gap between them.  ``record`` keeps every
    ``cfg.snapshot_stride``-th state and the terminal one.
    """
    _check_resolution(model, cfg)
    M, dt, op = cfg.n_steps, cfg.dt, model.noise
    replicates = [int(r) for r in replicates]
    n_rep = len(replicates)
    x0_raw = _initial_state(model, x0)

    if zero_noise:
        inc = None
    elif increments is None:
        inc = block_increments(model, cfg, experiment_seed, replicates)
    elif increments.shape != (M, n_rep, op.n_w):
        raise ParameterError("increments must have shape (n_steps, replicates, n_w)")
    else:
        inc = increments
    for h in shifts:
        if h is not None and h.shape != (M, op.n_w):
            raise ParameterError("shift values must have shape (n_steps, n_w)")

    lam = linear_eigenvalues(model)
    inv_lin = 1.0 / (1.0 + dt * lam)
    grid = _product_grid(model, cfg)
    two_d = model.kind == "ns2d"
    half_dt = 0.5 * dt

    # ``state`` is updated in place, so ``norms`` keeps reading it.
    state, norms = _state_rows(model, x0_raw, len(shifts) * n_rep, lam)
    head = state if two_d else state[:, :op.n_w]
    hv = norms()
    h_sq, prev_v_sq = hv
    v_energy = np.zeros(len(state))
    sup_h_sq = h_sq.copy()
    sup_gap = np.zeros(n_rep) if len(shifts) == 2 else None
    shift_steps = [None if h is None else dt * h for h in shifts]

    if record:
        kept = np.arange(0, M + 1, cfg.snapshot_stride)
        if kept[-1] != M:
            kept = np.append(kept, M)
        states = np.empty((len(kept),) + state.shape, dtype=state.dtype)
        v_path = np.empty((len(kept), len(state)))
        h_path = np.empty((len(kept), len(state)))
        norm_path = np.empty((len(kept),) + hv.shape)
        states[0], v_path[0], h_path[0], norm_path[0] = (state, v_energy,
                                                         sup_h_sq, hv)
        kept_steps, slot = kept.tolist(), 1

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(M):
            expl = explicit_drift(model, k * dt, state, grid)
            if inc is not None:
                w = [inc[k] if dth is None else inc[k] + dth[k]
                     for dth in shift_steps]
                w = w[0] if len(w) == 1 else np.concatenate(w)
                if op.clamp is not None:
                    w = op.g(np.sqrt(h_sq))[:, None] * w
            if expl is not None:
                expl *= dt
                state += expl
            if inc is not None:
                head += embed_2d(op, w) if two_d else op.gains * w
            state *= inv_lin
            hv = norms()
            # NaN and inf fail this screen; an overflowing sum of finite
            # norms falls through to the exact test.
            if not hv.sum() < np.inf:
                bad = ~np.all(hv < np.inf, axis=0)
                if bad.any():
                    rep = min(replicates[r % n_rep] for r in np.flatnonzero(bad))
                    raise DivergenceError(
                        k + 1, (k + 1) * dt,
                        f"trajectory diverged at step {k + 1} "
                        f"(t = {(k + 1) * dt:.6g}; "
                        f"experiment_seed={experiment_seed}, replicate={rep})",
                        experiment_seed=experiment_seed, replicate=rep)
            h_sq, v_sq = hv
            v_energy += half_dt * (prev_v_sq + v_sq)
            prev_v_sq = v_sq
            # sqrt is monotone, so the sup of the norms is the root of the
            # sup of their squares, bitwise.
            np.maximum(sup_h_sq, h_sq, out=sup_h_sq)
            if sup_gap is not None:
                np.maximum(sup_gap, _sq_gap(model, state[:n_rep], state[n_rep:]),
                           out=sup_gap)
            if record and kept_steps[slot] == k + 1:
                states[slot], v_path[slot], h_path[slot], norm_path[slot] = (
                    state, v_energy, sup_h_sq, hv)
                slot += 1

    sup_h = np.sqrt(sup_h_sq)
    block = Block(paths=_path_summaries(v_energy, sup_h, state), sup_gap_sq=sup_gap)
    if record:
        times = dt * kept
        kind = "2d" if two_d else "1d"
        np.sqrt(h_path, out=h_path)
        block.trajectories = [
            Trajectory(times=times, states=states[:, r],
                       h_sq=norm_path[:, 0, r], v_sq=norm_path[:, 1, r],
                       v_energy=v_path[:, r], sup_h_norm=h_path[:, r], kind=kind)
            for r in range(len(state))]
    return block


def _catch_divergence(fn, block):
    try:
        return fn(block)
    except DivergenceError as exc:
        return exc


def map_blocks(fn, replicates) -> list:
    """``fn`` on consecutive blocks of ``BLOCK_REPLICATES`` replicates, fanned
    out by ``parallel_map``; results come back in block order.

    Every block runs even when one diverges; the error re-raised is the
    earliest divergence, lowest replicate first at equal steps, so it does
    not depend on the worker count either.
    """
    replicates = list(replicates)
    blocks = [replicates[i:i + BLOCK_REPLICATES]
              for i in range(0, len(replicates), BLOCK_REPLICATES)]
    results = parallel_map(partial(_catch_divergence, fn), blocks)
    failed = [r for r in results if isinstance(r, DivergenceError)]
    if failed:
        raise min(failed, key=lambda exc: (exc.step, exc.replicate))
    return results


def solve(model: ModelSpec, cfg: SolverConfig, x0, experiment_seed: int,
          replicate: int = 0, shift_values: np.ndarray | None = None,
          increments: np.ndarray | None = None,
          zero_noise: bool = False) -> Trajectory:
    """Integrate one trajectory, keeping every ``cfg.snapshot_stride``-th state.

    The Wiener increments are addressed by (experiment_seed, replicate)
    and the step index, so replicates are reproducible independently of
    execution order.  ``shift_values`` holds h(t_k) rows for a Girsanov
    shift; ``increments`` overrides the generated ones (shared-noise
    couplings); ``zero_noise`` runs the deterministic skeleton.
    """
    if increments is not None and not zero_noise:
        if increments.shape != (cfg.n_steps, model.noise.n_w):
            raise ParameterError("increments must have shape (n_steps, n_w)")
        increments = increments[:, None, :]
    return solve_block(model, cfg, x0, experiment_seed, [replicate],
                       increments=increments, shifts=(shift_values,),
                       zero_noise=zero_noise, record=True).trajectories[0]


# ---------------------------------------------------------------------------
# deterministic solver oracles


def heat_convergence_report(n_modes: int = 32, horizon: float = 1.0,
                            dts=(4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4)) -> dict:
    """Strong-order fit of the zero-noise heat step against e^{-pi^2 t}.

    The first sine mode decays exactly like (1 + pi^2 dt)^{-T/dt}; the
    fitted slope of log error against log dt should sit near one.
    """
    from .models import heat_model
    from .noise import noise_operator_1d, gains_single_mode

    op = noise_operator_1d(1, gains_single_mode(1, 1.0), 1.0)
    model = heat_model(n_modes, op)
    x0 = np.zeros(n_modes)
    x0[0] = 1.0 / math.sqrt(2.0)  # sin(pi x)
    exact = x0[0] * math.exp(-math.pi**2 * horizon)

    errors = []
    for dt in dts:
        cfg = SolverConfig(dt=dt, horizon=horizon)
        traj = solve(model, cfg, Field1D(x0), experiment_seed=0, zero_noise=True)
        errors.append(abs(traj.states[-1][0] - exact))
    slope = np.polyfit(np.log(np.asarray(dts)), np.log(np.asarray(errors)), 1)[0]
    return {
        "dts": [float(d) for d in dts],
        "errors": [float(e) for e in errors],
        "fitted_order": float(slope),
        "pass": bool(0.85 <= slope <= 1.15),
    }


def taylor_green_report(cutoff: int = 32, viscosity: float = 0.05,
                        dt: float = 1e-3, horizon: float = 0.5,
                        rate_tol: float = 0.01) -> dict:
    """Zero-noise Taylor-Green decay against the exact rate 8 pi^2 nu.

    The advection term of the Taylor-Green vortex is a pure gradient, so
    the Leray projection kills it and every mode decays with the Stokes
    rate; the report also records the largest projected nonlinearity seen.
    """
    from .models import ns2d_model, ns_advection
    from .noise import noise_operator_2d, gains_inverse_k

    op = noise_operator_2d(2, gains_inverse_k(2, 1e-4), 1e-4, cutoff)
    model = ns2d_model(cutoff, viscosity, op)
    x0 = taylor_green_field(cutoff)

    adv = ns_advection(x0.spec, cutoff)
    adv_linf = float(np.max(np.abs(adv)))

    cfg = SolverConfig(dt=dt, horizon=horizon)
    traj = solve(model, cfg, x0, experiment_seed=0, zero_noise=True)
    amp0 = abs(x0.spec[0, 1 + cutoff, 1 + cutoff])
    amp1 = abs(traj.states[-1][0, 1 + cutoff, 1 + cutoff])
    rate = -math.log(amp1 / amp0) / horizon
    exact = 8.0 * math.pi**2 * viscosity
    rel = abs(rate - exact) / exact
    return {
        "cutoff": int(cutoff),
        "viscosity": float(viscosity),
        "projected_nonlinearity_linf": adv_linf,
        "measured_rate": float(rate),
        "exact_rate": float(exact),
        "relative_error": float(rel),
        "pass": bool(adv_linf <= 1e-10 and rel <= rate_tol),
    }
