"""Semi-implicit Euler-Maruyama stepping for the SPDE models.

Each step treats the (negative definite) linear part implicitly and
everything else explicitly:

    u_{n+1} = [u_n + dt F(u_n) + B(u_n)(dW_n + h(t_n) dt)] / (1 + dt lambda_k)

applied mode by mode, where lambda_k are the spectral eigenvalues of the
implicit part, F is the nonlinearity on its alias-free product grid and h
is an optional Girsanov shift, given by its values on the step grid.

One loop, ``solve_block``, advances a block of replicates at once: the
state carries a leading row axis, and running reductions (trapezoid
V-energy, sup H-norm, terminal state, the sup of the squared gap between
shifted and unshifted rows, the Girsanov pairing sum_k <h(t_k), dW_k>)
replace stored paths.  No state but the terminal one is kept: a recorded
block keeps its first row's squared H- and V-norms at every step, so an
ensemble yields one replicate's norm path without solving it twice, and
``solve`` is that loop on one recorded row.

Every ensemble is one ``ensemble`` pass: it cuts the replicates into
blocks of ``BLOCK_REPLICATES``, a code constant, so the results do not
depend on the worker count; each block streams its increments in slabs
(Philox streams -> ``noise.increment_slabs`` -> ``solve_block``, where the
space embeds B w), drawing each once, and the blocks are joined per shift
leg.  The deterministic oracles drive the same loop with zero increments.
Blow-up raises with the (experiment_seed, replicate, step) address, not NaNs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DivergenceError, ParameterError
from .models import (ModelSpec, explicit_drift, linear_eigenvalues,
                     taylor_green_field)
from .noise import increment_slabs
from .parallel import parallel_map

# Replicates per block.  A code constant, never derived from the worker
# count, so every replicate is stepped in the same block (the rows that
# share its batched transforms and products) whatever the worker count.
BLOCK_REPLICATES = 32


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters; the horizon must be a whole number of steps.

    The model owns the resolution, because the noise embedding depends on
    it, and its drift kernels own their one product grid, the smallest
    alias-free one (``models.burgers_product_grid``,
    ``models.ns_product_grid``).
    """

    dt: float
    horizon: float

    def __post_init__(self):
        if self.dt <= 0.0 or self.horizon <= 0.0:
            raise ParameterError("dt and horizon must be positive")
        n = round(self.horizon / self.dt)
        if n < 1 or abs(n * self.dt - self.horizon) > 1e-9 * max(self.horizon, 1.0):
            raise ParameterError(
                f"horizon {self.horizon} is not a whole number of steps of {self.dt}"
            )

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
class Block:
    """Results of one block, or of an ``ensemble`` pass joined from its
    blocks.  Rows are leg-major: row j * P + i is the i-th of the P
    replicates on the j-th shift leg.

    ``paths`` holds one path summary per row; ``sup_gap_sq`` (two-leg
    blocks only) the per-replicate sup_t ||X_leg0 - X_leg1||_H^2;
    ``norms`` (recorded blocks only) the first row's (||X_k||_H^2,
    ||X_k||_V^2) at every step k = 0..n_steps, shape (n_steps + 1, 2);
    ``pairing`` (blocks whose first leg is shifted) the per-replicate
    sum_k <h(t_k), dW_k> of the drawn increments, summed in step order.
    """

    paths: np.ndarray
    sup_gap_sq: np.ndarray | None = None
    norms: np.ndarray | None = None
    pairing: np.ndarray | None = None


_ROWS_MESSAGE = "increments must be n_steps rows of shape (replicates, n_w)"


def solve_block(model: ModelSpec, cfg: SolverConfig, x0, experiment_seed: int,
                replicates, increments=None, shifts=(None,),
                record: bool = False) -> Block:
    """Advance every (shift leg, replicate) row of one block in lockstep.

    Every row starts from ``x0``, a raw state that ``model.space.check``
    validates.  ``increments`` gives the Wiener increments of the
    replicates as n_steps per-step arrays of shape (P, n_w), from any
    iterable: a full (n_steps, P, n_w) array, or by default the slabs
    ``noise.increment_slabs`` draws from each (experiment_seed, replicate)
    stream, so any row is reproducible on its own.  All legs share them.
    Each entry of ``shifts`` is None or the finite (n_steps + 1, n_w) grid
    values h(t_k) of a Girsanov shift, checked here alone; step k applies
    dW_k + dt h(t_k), so only the entropy reads the last row.  Two legs
    also give the running sup of the squared H-gap between them, and a
    shifted first leg the pairing, summed row by row: alone or in any
    block, a row's pairing has the same bits.

    ``record`` keeps the first row's squared norms at every step as
    ``norms``.
    """
    M, dt, op = cfg.n_steps, cfg.dt, model.noise
    replicates = [int(r) for r in replicates]
    n_rep = len(replicates)
    space = model.space
    x0_raw = space.check(x0)

    if increments is None:
        increments = itertools.chain.from_iterable(increment_slabs(
            op, dt, experiment_seed, replicates, M))
    rows = iter(increments)
    row_shape = (n_rep, op.n_w)
    for h in shifts:
        if h is not None and (h.shape != (M + 1, op.n_w)
                              or not np.all(np.isfinite(h))):
            raise ParameterError(
                "shift values must be finite, of shape (n_steps + 1, n_w)")

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
    pairing = None if shifts[0] is None else np.zeros(n_rep)
    shift_steps = [None if h is None else dt * h for h in shifts]

    norms = None
    if record:
        norms = np.empty((M + 1, 2))
        norms[0] = hv[:, 0]

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(M):
            dw = next(rows, None)
            if dw is None or dw.shape != row_shape:
                raise ParameterError(_ROWS_MESSAGE)
            if pairing is not None:
                pairing += np.sum(dw * shifts[0][k], axis=-1)
            expl = explicit_drift(model, state)
            w = [dw if dth is None else dw + dth[k] for dth in shift_steps]
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
                    raise DivergenceError(k + 1, (k + 1) * dt, experiment_seed,
                                          rep, dt, shifted)
            h_sq, v_sq = hv
            v_energy += half_dt * (prev_v_sq + v_sq)
            prev_v_sq = v_sq
            # sqrt is monotone, so the sup of the norms is the root of the
            # sup of their squares, bitwise.
            np.maximum(sup_h_sq, h_sq, out=sup_h_sq)
            if sup_gap is not None:
                np.maximum(sup_gap, space.sq_norms(state[:n_rep] - state[n_rep:]),
                           out=sup_gap)
            if norms is not None:
                norms[k + 1] = hv[:, 0]
    if next(rows, None) is not None:
        raise ParameterError(_ROWS_MESSAGE)

    sup_h = np.sqrt(sup_h_sq)
    return Block(paths=_path_summaries(v_energy, sup_h, state),
                 sup_gap_sq=sup_gap, norms=norms, pairing=pairing)


def _ensemble_block(replicates, model, cfg, x0, experiment_seed, shift,
                    record_rep):
    """One block of ``ensemble``, or the DivergenceError it raised; the
    block records its first row if that is replicate ``record_rep``."""
    try:
        return solve_block(model, cfg, x0, experiment_seed, replicates,
                           record=replicates[0] == record_rep,
                           shifts=(None,) if shift is None else (shift, None))
    except DivergenceError as exc:
        return exc


def ensemble(model: ModelSpec, cfg: SolverConfig, x0, experiment_seed: int,
             replicates, shift: np.ndarray | None = None,
             record: bool = False) -> Block:
    """The one ensemble pass: every replicate stepped once from ``x0``, in
    consecutive blocks of ``BLOCK_REPLICATES`` fanned out by
    ``parallel_map``, joined per leg into one leg-major Block.

    Each block streams its increments in slabs (``noise.increment_slabs``)
    through ``solve_block``, so memory does not grow with the horizon times
    the block size.  With ``shift``, the (n_steps + 1, n_w) values h(t_k)
    of a Girsanov shift, the same increments, drawn once, drive a shifted
    and an unshifted leg, and ``pairing`` holds each replicate's
    sum_k <h(t_k), dW_k>, summed in the step loop.  With ``record``, the
    first block records its first row, so ``norms`` is the norm path of the
    first replicate (on the shifted leg, if there is a shift).

    Every block runs even when one diverges; the error re-raised is the
    earliest divergence, lowest replicate first at equal steps, so it does
    not depend on the worker count either.
    """
    replicates = [int(r) for r in replicates]
    blocks = parallel_map(
        partial(_ensemble_block, model=model, cfg=cfg, x0=x0,
                experiment_seed=experiment_seed, shift=shift,
                record_rep=replicates[0] if record else None),
        [replicates[i:i + BLOCK_REPLICATES]
         for i in range(0, len(replicates), BLOCK_REPLICATES)])
    failed = [b for b in blocks if isinstance(b, DivergenceError)]
    if failed:
        raise min(failed, key=lambda exc: (exc.step, exc.replicate))
    n_legs = 1 if shift is None else 2
    out = Block(paths=np.concatenate(
        [b.paths.reshape(n_legs, -1) for b in blocks], axis=1).ravel(),
        norms=blocks[0].norms)
    if shift is not None:
        out.sup_gap_sq = np.concatenate([b.sup_gap_sq for b in blocks])
        out.pairing = np.concatenate([b.pairing for b in blocks])
    return out


def solve(model: ModelSpec, cfg: SolverConfig, x0, experiment_seed: int,
          replicate: int = 0, shift_values: np.ndarray | None = None,
          zero_noise: bool = False) -> Block:
    """Integrate one trajectory: a one-row recorded Block, whose ``norms``
    are the row's squared H- and V-norms at every step.

    The Wiener increments are addressed by (experiment_seed, replicate)
    and the step index, so replicates are reproducible independently of
    execution order.  ``shift_values`` holds the (n_steps + 1, n_w) values
    h(t_k) of a Girsanov shift, as ``ExperimentConfig.shift`` does, and
    then ``pairing`` the row's sum_k <h(t_k), dW_k>;
    ``zero_noise`` drives the path with zero increments.
    """
    zero = np.zeros((cfg.n_steps, 1, model.noise.n_w)) if zero_noise else None
    return solve_block(model, cfg, x0, experiment_seed, [replicate],
                       increments=zero, shifts=(shift_values,),
                       record=True)


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
        terminal = _zero_noise_terminal(model, cfg, x0)
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

    adv = ns_advection(x0, cutoff)
    adv_linf = float(np.max(np.abs(adv)))

    cfg = SolverConfig(dt=dt, horizon=horizon)
    terminal = _zero_noise_terminal(model, cfg, x0)
    amp0 = abs(x0[0, 1 + cutoff, 1])
    amp1 = abs(terminal[0, 1 + cutoff, 1])
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
