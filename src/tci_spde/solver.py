"""Semi-implicit Euler-Maruyama stepping for the SPDE models.

Each step treats the (negative definite) linear part implicitly and
everything else explicitly:

    u_{n+1} = [u_n + dt F(u_n) + B(u_n)(dW_n + h(t_n) dt)] / (1 + dt lambda_k)

applied mode by mode, where lambda_k are the spectral eigenvalues of the
implicit part, F is the nonlinearity on its alias-free product grid and h
is an optional Girsanov shift.

One loop, ``solve_block``, advances a block of replicates at once: the
state carries a leading row axis, and running reductions (trapezoid
V-energy, sup H-norm, terminal state, and for coupled blocks the sup of
the squared gap between shifted and unshifted rows) replace stored paths.
``solve`` is that loop on one row with its states recorded; a block can
also record its rows' norm paths alone (``record="norms"``), so an
ensemble yields one replicate's path without solving it twice.

Every ensemble is one ``ensemble`` pass: it cuts the replicates into
blocks of ``BLOCK_REPLICATES``, a code constant, so the results do not
depend on the worker count; it draws each block's increment table once
(Philox table -> ``block_increments`` -> ``solve_block``, where the space
embeds B w) and joins the blocks per shift leg.  The deterministic oracles
drive the same loop with zero increments.  Blow-up raises with the
(experiment_seed, replicate, step) address instead of propagating NaNs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DivergenceError, ParameterError
from .fields import Field1D
from .models import (ModelSpec, explicit_drift, linear_eigenvalues,
                     taylor_green_field)
from .noise import increment_table
from .parallel import parallel_map

# Replicates per block.  A code constant, never derived from the worker
# count, so every replicate is stepped in the same block (the rows that
# share its batched transforms and products) whatever the worker count.
BLOCK_REPLICATES = 8


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters; the horizon must be a whole number of steps.

    The model owns the resolution, because the noise embedding depends on
    it, and its drift kernels own their one product grid, the smallest
    alias-free one (``models.burgers_product_grid``,
    ``models.ns_product_grid``).  ``snapshot_stride`` thins the steps a
    recorded trajectory keeps.
    """

    dt: float
    horizon: float
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

    ``states[i]`` is the raw state at time ``times[i]``.  The
    last time is always the horizon.  A path recorded without its states
    has ``states`` None; ``terminal`` always holds the raw terminal state.
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
    terminal: np.ndarray

    @property
    def v_energy_total(self) -> float:
        return float(self.v_energy[-1])

    @property
    def sup_h_total(self) -> float:
        return float(self.sup_h_norm[-1])


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
    """Results of one block, or of an ``ensemble`` pass joined from its
    blocks.  Rows are leg-major: row j * P + i is the i-th of the P
    replicates on the j-th shift leg.

    ``paths`` holds one path summary per row; ``sup_gap_sq`` (two-leg
    blocks only) the per-replicate sup_t ||X_leg0 - X_leg1||_H^2;
    ``trajectories`` (recorded blocks only) one Trajectory per row;
    ``pairing`` (shifted ``ensemble`` passes only) the per-replicate
    sum_k <h(t_k), dW_k>.
    """

    paths: np.ndarray
    sup_gap_sq: np.ndarray | None = None
    trajectories: list | None = None
    pairing: np.ndarray | None = None


def solve_block(model: ModelSpec, cfg: SolverConfig, x0, experiment_seed: int,
                replicates, increments: np.ndarray | None = None,
                shifts=(None,), record: str | None = None) -> Block:
    """Advance every (shift leg, replicate) row of one block in lockstep.

    Every row starts from ``x0``.  ``increments`` holds the Wiener
    increments of the replicates, shape (n_steps, P, n_w); by default each
    replicate draws its own from (experiment_seed, replicate), so any row
    is reproducible on its own.  All legs share them.  Each entry of
    ``shifts`` is None or the (n_steps, n_w) values h(t_k) of a Girsanov
    shift, applied per step as dW_k + dt h(t_k).  Two legs also give the
    running sup of the squared H-gap between them.

    ``record="states"`` keeps every row's state at every
    ``cfg.snapshot_stride``-th step and at the last one, with the norms
    and running reductions there; ``record="norms"`` keeps the same except
    the states.
    """
    M, dt, op = cfg.n_steps, cfg.dt, model.noise
    replicates = [int(r) for r in replicates]
    n_rep = len(replicates)
    space = model.space
    x0_raw = space.raw(x0)

    inc = block_increments(model, cfg, experiment_seed, replicates) \
        if increments is None else increments
    if inc.shape != (M, n_rep, op.n_w):
        raise ParameterError("increments must have shape (n_steps, replicates, n_w)")
    for h in shifts:
        if h is not None and h.shape != (M, op.n_w):
            raise ParameterError("shift values must have shape (n_steps, n_w)")
    if record not in (None, "states", "norms"):
        raise ParameterError("record must be None, 'states' or 'norms'")

    lam = linear_eigenvalues(model)
    inv_lin = 1.0 / (1.0 + dt * lam)
    half_dt = 0.5 * dt

    state = np.repeat(x0_raw[None], len(shifts) * n_rep, axis=0)
    # H and V weights stacked so that one kernel call per step gives both
    # squared norms
    v_weights = space.laplacian_eigenvalues()
    hv_weights = np.stack([np.ones_like(v_weights), v_weights]).reshape(
        (2,) + (1,) * (state.ndim - v_weights.ndim) + v_weights.shape)
    hv = space.sq_norms(state, hv_weights)
    h_sq, prev_v_sq = hv
    v_energy = np.zeros(len(state))
    sup_h_sq = h_sq.copy()
    sup_gap = np.zeros(n_rep) if len(shifts) == 2 else None
    shift_steps = [None if h is None else dt * h for h in shifts]

    if record:
        kept = np.arange(0, M + 1, cfg.snapshot_stride)
        if kept[-1] != M:
            kept = np.append(kept, M)
        states = None
        if record == "states":
            states = np.empty((len(kept),) + state.shape, dtype=state.dtype)
            states[0] = state
        v_path = np.empty((len(kept), len(state)))
        h_path = np.empty((len(kept), len(state)))
        norm_path = np.empty((len(kept),) + hv.shape)
        v_path[0], h_path[0], norm_path[0] = v_energy, sup_h_sq, hv
        kept_steps, slot = kept.tolist(), 1

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(M):
            expl = explicit_drift(model, state)
            w = [inc[k] if dth is None else inc[k] + dth[k]
                 for dth in shift_steps]
            w = w[0] if len(w) == 1 else np.concatenate(w)
            if op.clamp is not None:
                w = op.g(np.sqrt(h_sq))[:, None] * w
            if expl is not None:
                expl *= dt
                state += expl
            space.add_noise(state, op, w)
            state *= inv_lin
            hv = space.sq_norms(state, hv_weights)
            # NaN and inf fail this screen; an overflowing sum of finite
            # norms falls through to the exact test.
            if not hv.sum() < np.inf:
                bad = ~np.all(hv < np.inf, axis=0)
                if bad.any():
                    # lowest replicate first, its unshifted leg first
                    row = min(np.flatnonzero(bad).tolist(),
                              key=lambda r: (replicates[r % n_rep],
                                             shifts[r // n_rep] is not None))
                    rep = replicates[row % n_rep]
                    shifted = shifts[row // n_rep] is not None
                    raise DivergenceError(
                        k + 1, (k + 1) * dt,
                        f"trajectory diverged at step {k + 1} "
                        f"(t = {(k + 1) * dt:.6g}; "
                        f"experiment_seed={experiment_seed}, replicate={rep}, "
                        f"dt={dt:.6g}, {'shifted' if shifted else 'unshifted'})",
                        experiment_seed=experiment_seed, replicate=rep,
                        dt=dt, shifted=shifted)
            h_sq, v_sq = hv
            v_energy += half_dt * (prev_v_sq + v_sq)
            prev_v_sq = v_sq
            # sqrt is monotone, so the sup of the norms is the root of the
            # sup of their squares, bitwise.
            np.maximum(sup_h_sq, h_sq, out=sup_h_sq)
            if sup_gap is not None:
                np.maximum(sup_gap, space.sq_norms(state[:n_rep] - state[n_rep:]),
                           out=sup_gap)
            if record and kept_steps[slot] == k + 1:
                v_path[slot], h_path[slot], norm_path[slot] = (v_energy,
                                                               sup_h_sq, hv)
                if states is not None:
                    states[slot] = state
                slot += 1

    sup_h = np.sqrt(sup_h_sq)
    block = Block(paths=_path_summaries(v_energy, sup_h, state), sup_gap_sq=sup_gap)
    if record:
        times = dt * kept
        np.sqrt(h_path, out=h_path)
        block.trajectories = [
            Trajectory(times=times,
                       states=None if states is None else states[:, r],
                       h_sq=norm_path[:, 0, r], v_sq=norm_path[:, 1, r],
                       v_energy=v_path[:, r], sup_h_norm=h_path[:, r],
                       terminal=block.paths["terminal"][r])
            for r in range(len(state))]
    return block


def _ensemble_block(replicates, model, cfg, x0, experiment_seed, shift,
                    record_rep):
    """One block of ``ensemble``, or the DivergenceError it raised."""
    inc = block_increments(model, cfg, experiment_seed, replicates)
    record = "norms" if record_rep in replicates else None
    try:
        block = solve_block(model, cfg, x0, experiment_seed, replicates,
                            increments=inc, record=record,
                            shifts=(None,) if shift is None else (shift, None))
    except DivergenceError as exc:
        return exc
    if shift is not None:
        block.pairing = np.array([np.sum(shift * inc[:, i])
                                  for i in range(len(replicates))])
    if record:
        block.trajectories = [block.trajectories[replicates.index(record_rep)]]
    return block


def ensemble(model: ModelSpec, cfg: SolverConfig, x0, experiment_seed: int,
             replicates, shift: np.ndarray | None = None,
             record_rep: int | None = None) -> Block:
    """The one ensemble pass: every replicate stepped once from ``x0``, in
    consecutive blocks of ``BLOCK_REPLICATES`` fanned out by
    ``parallel_map``, joined per leg into one leg-major Block.

    Each block draws its increment table once (``block_increments``) and
    steps it with ``solve_block``.  With ``shift``, the (n_steps, n_w)
    values h(t_k) of a Girsanov shift, the same increments drive a shifted
    and an unshifted leg, and ``pairing`` holds each replicate's
    sum_k <h(t_k), dW_k>.  The norm path of replicate ``record_rep`` is
    recorded as its row of its block, the one entry of ``trajectories``.

    Every block runs even when one diverges; the error re-raised is the
    earliest divergence, lowest replicate first at equal steps, so it does
    not depend on the worker count either.
    """
    replicates = [int(r) for r in replicates]
    blocks = parallel_map(
        partial(_ensemble_block, model=model, cfg=cfg, x0=x0,
                experiment_seed=experiment_seed, shift=shift,
                record_rep=record_rep),
        [replicates[i:i + BLOCK_REPLICATES]
         for i in range(0, len(replicates), BLOCK_REPLICATES)])
    failed = [b for b in blocks if isinstance(b, DivergenceError)]
    if failed:
        raise min(failed, key=lambda exc: (exc.step, exc.replicate))
    n_legs = 1 if shift is None else 2
    out = Block(paths=np.concatenate(
        [b.paths.reshape(n_legs, -1) for b in blocks], axis=1).ravel())
    if shift is not None:
        out.sup_gap_sq = np.concatenate([b.sup_gap_sq for b in blocks])
        out.pairing = np.concatenate([b.pairing for b in blocks])
    out.trajectories = [t for b in blocks for t in b.trajectories or ()] or None
    return out


def solve(model: ModelSpec, cfg: SolverConfig, x0, experiment_seed: int,
          replicate: int = 0, shift_values: np.ndarray | None = None,
          increments: np.ndarray | None = None,
          zero_noise: bool = False) -> Trajectory:
    """Integrate one trajectory, keeping every ``cfg.snapshot_stride``-th state.

    The Wiener increments are addressed by (experiment_seed, replicate)
    and the step index, so replicates are reproducible independently of
    execution order.  ``shift_values`` holds h(t_k) rows for a Girsanov
    shift; ``increments`` overrides the generated ones (shared-noise
    couplings); ``zero_noise`` drives the path with zero increments.
    """
    if zero_noise:
        increments = np.zeros((cfg.n_steps, model.noise.n_w))
    if increments is not None:
        if increments.shape != (cfg.n_steps, model.noise.n_w):
            raise ParameterError("increments must have shape (n_steps, n_w)")
        increments = increments[:, None, :]
    return solve_block(model, cfg, x0, experiment_seed, [replicate],
                       increments=increments, shifts=(shift_values,),
                       record="states").trajectories[0]


# ---------------------------------------------------------------------------
# deterministic solver oracles


def _zero_noise_terminal(model: ModelSpec, cfg: SolverConfig, x0) -> np.ndarray:
    """Terminal state of the deterministic skeleton (zero increments), from
    the running block reductions: the oracles read nothing else, so no path
    is stored."""
    zero = np.zeros((cfg.n_steps, 1, model.noise.n_w))
    return solve_block(model, cfg, x0, 0, [0], increments=zero).paths["terminal"][0]


def heat_convergence_report(n_modes: int = 32, horizon: float = 1.0,
                            dts=(4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4)) -> dict:
    """Strong-order fit of the zero-noise heat step against e^{-pi^2 t}.

    The first sine mode decays exactly like (1 + pi^2 dt)^{-T/dt}; the
    fitted slope of log error against log dt should sit near one.
    """
    from .models import heat_model
    from .noise import NoiseOperator, gains_single_mode

    op = NoiseOperator(1, gains_single_mode(1, 1.0), 1.0)
    model = heat_model(n_modes, op)
    x0 = np.zeros(n_modes)
    x0[0] = 1.0 / math.sqrt(2.0)  # sin(pi x)
    exact = x0[0] * math.exp(-math.pi**2 * horizon)

    errors = []
    for dt in dts:
        cfg = SolverConfig(dt=dt, horizon=horizon)
        terminal = _zero_noise_terminal(model, cfg, Field1D(x0))
        errors.append(abs(terminal[0] - exact))
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
    from .noise import NoiseOperator, gains_inverse_k

    op = NoiseOperator(2, gains_inverse_k(2, 1e-4), 1e-4)
    model = ns2d_model(cutoff, viscosity, op)
    x0 = taylor_green_field(cutoff)

    adv = ns_advection(x0.spec, cutoff)
    adv_linf = float(np.max(np.abs(adv)))

    cfg = SolverConfig(dt=dt, horizon=horizon)
    terminal = _zero_noise_terminal(model, cfg, x0)
    amp0 = abs(x0.spec[0, 1 + cutoff, 1 + cutoff])
    amp1 = abs(terminal[0, 1 + cutoff, 1 + cutoff])
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
