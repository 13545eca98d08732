"""Block stepping: many replicates advanced at once with streaming reductions.

The block loop is checked against a plain one-row-at-a-time stepper
written here from the scheme in ``solver``'s docstring, with the 2-D noise
embedded densely by ``oracles``.  It shares only the drift kernels with the
package, which are checked on their own elsewhere.
"""

import copy
import csv
import json
import math
import pickle

import numpy as np
import pytest

from tci_spde import concentration as K
from tci_spde import fields as F
from tci_spde import girsanov as G
from tci_spde import models as M
from tci_spde import noise as N
from tci_spde import solver as S
from tci_spde.cli import main
from tci_spde.errors import DivergenceError

import oracles as orc
from test_config_cli import BASE, read_report


def reference_row(model, cfg, x0, inc, shift=None):
    """(v_energy_total, states at every step) of one row."""
    op, dt = model.noise, cfg.dt
    lam = M.linear_eigenvalues(model)
    two_d = model.kind == "ns2d"
    weight = lam / model.viscosity if two_d else lam
    if two_d:
        basis = orc.dense_basis_2d(model.cutoff, op.n_w)

    u = (x0.spec if two_d else x0.coeffs).copy()
    states = [u]
    v_energy, v_sq = 0.0, float(np.sum(weight * np.abs(u) ** 2))
    for k in range(cfg.n_steps):
        w = inc[k] if shift is None else inc[k] + dt * shift[k]
        w = op.g(math.sqrt(h_norm_sq(u))) * w
        if two_d:
            noise = orc.dense_embed_2d(op.gains, basis, w)
        else:
            noise = np.zeros_like(u)
            noise[:op.n_w] = op.gains * w
        drift = M.explicit_drift(model, u)
        if drift is None:
            drift = 0.0
        u = (u + dt * drift + noise) / (1.0 + dt * lam)
        new_v = float(np.sum(weight * np.abs(u) ** 2))
        v_energy += 0.5 * dt * (v_sq + new_v)
        v_sq = new_v
        states.append(u)
    return v_energy, np.asarray(states)


def h_norm_sq(u):
    return float(np.sum(np.abs(u) ** 2))


def sup_h(states):
    return math.sqrt(max(h_norm_sq(u) for u in states))


def _noise_1d(clamp=None):
    return N.NoiseOperator(4, N.gains_inverse_k(4, 1.0), 1.0, clamp=clamp)


def _setup(kind):
    cfg = S.SolverConfig(dt=2e-3, horizon=0.1)
    if kind == "heat":
        return M.heat_model(8, _noise_1d()), cfg, F.Field1D(np.zeros(8))
    if kind in ("burgers", "burgers_clamped"):
        clamp = 0.3 if kind == "burgers_clamped" else None
        x0 = F.Field1D(F.random_fields_1d(1, 12, np.random.default_rng(4))[0])
        return M.burgers_model(12, _noise_1d(clamp)), cfg, x0
    op = N.NoiseOperator(6, N.gains_inverse_k(6, 0.05), 0.05)
    cfg = S.SolverConfig(dt=2e-3, horizon=0.02)
    return M.ns2d_model(8, 0.1, op), cfg, M.taylor_green_field(8, 0.5)


def _close(a, b, rel=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    return np.max(np.abs(a - b)) <= rel * max(1.0, np.max(np.abs(b)))


@pytest.mark.parametrize("kind", ["heat", "burgers", "burgers_clamped", "ns2d"])
def test_coupled_blocks_match_row_by_row_stepping(kind):
    model, cfg, x0 = _setup(kind)
    n_w = model.noise.n_w
    # a shift switched off half way, so the gap peaks before the horizon
    values = np.zeros((cfg.n_steps + 1, n_w))
    values[:cfg.n_steps // 2, 1] = 1.5
    h = G.ShiftFunction(values=values, dt=cfg.dt)
    n_rep = S.BLOCK_REPLICATES + 3   # a full block and a partial one
    ens = G.coupled_ensemble(model, cfg, x0, h, n_rep, experiment_seed=7)
    for r in range(n_rep):
        inc = N.increment_table(model.noise, cfg.dt, 7, r, cfg.n_steps)
        vx, xs = reference_row(model, cfg, x0, inc, h.dynamic_rows())
        vy, ys = reference_row(model, cfg, x0, inc)
        for leg, v, states in (("shifted", vx, xs), ("unshifted", vy, ys)):
            path = ens[leg][r]
            assert _close(path["v_energy_total"], v)
            assert _close(path["sup_h_total"], sup_h(states))
            assert _close(path["terminal"], states[-1])
        gaps = [h_norm_sq(a - b) for a, b in zip(xs, ys)]
        assert max(gaps) > gaps[-1]
        assert _close(ens["sup_gap_sq"][r], max(gaps))


@pytest.mark.parametrize("kind", ["heat", "burgers_clamped", "ns2d"])
def test_plain_blocks_match_row_by_row_stepping(kind):
    model, cfg, x0 = _setup(kind)
    reps = [5, 0, 11]
    block = S.solve_block(model, cfg, x0, 3, reps)
    for row, r in enumerate(reps):
        inc = N.increment_table(model.noise, cfg.dt, 3, r, cfg.n_steps)
        v, states = reference_row(model, cfg, x0, inc)
        assert _close(block.paths[row]["v_energy_total"], v)
        assert _close(block.paths[row]["sup_h_total"], sup_h(states))
        assert _close(block.paths[row]["terminal"], states[-1])
        traj = S.solve(model, cfg, x0, 3, replicate=r)
        assert _close(traj.states, states)


def test_block_rows_do_not_depend_on_block_company():
    # each row goes through its own matrix-vector products, so a replicate
    # gives the same bits alone, in a block, or in a coupled pair
    model, cfg, x0 = _setup("burgers")
    alone = S.solve(model, cfg, x0, 2, replicate=6)
    block = S.solve_block(model, cfg, x0, 2, range(S.BLOCK_REPLICATES))
    assert np.array_equal(block.paths[6]["terminal"], alone.states[-1])
    assert block.paths[6]["v_energy_total"] == alone.v_energy_total
    h = np.zeros((cfg.n_steps, 4))
    pair = S.solve_block(model, cfg, x0, 2, [6], shifts=(h, None),
                         record="states")
    x, y = pair.trajectories
    assert pair.sup_gap_sq[0] == 0.0
    assert np.array_equal(x.states, y.states)
    assert np.array_equal(x.states, alone.states)


def test_snapshot_stride_thins_states_but_not_reductions():
    model, cfg, x0 = _setup("burgers")          # 50 steps
    full = S.solve(model, cfg, x0, 1, replicate=2)
    thin_cfg = S.SolverConfig(dt=cfg.dt, horizon=cfg.horizon, snapshot_stride=7)
    thin = S.solve(model, thin_cfg, x0, 1, replicate=2)
    kept = list(range(0, 51, 7)) + [50]
    assert len(thin.times) == len(kept)
    assert np.array_equal(thin.times, full.times[kept])
    assert np.array_equal(thin.states, full.states[kept])
    assert np.array_equal(thin.v_energy, full.v_energy[kept])
    assert np.array_equal(thin.sup_h_norm, full.sup_h_norm[kept])
    assert np.array_equal(thin.h_sq, full.h_sq[kept])
    assert np.array_equal(thin.v_sq, full.v_sq[kept])
    assert thin.v_energy_total == full.v_energy_total


@pytest.mark.parametrize("kind", ["burgers", "ns2d"])
def test_recorded_norms_are_the_norms_of_the_recorded_states(kind):
    model, cfg, x0 = _setup(kind)
    traj = S.solve(model, cfg, x0, 1, replicate=2)
    weight = M.linear_eigenvalues(model)
    if kind == "ns2d":
        weight = weight / model.viscosity
    p = np.abs(traj.states) ** 2
    axes = tuple(range(1, p.ndim))
    assert np.allclose(traj.h_sq, p.sum(axis=axes), rtol=1e-13, atol=0.0)
    assert np.allclose(traj.v_sq, (weight * p).sum(axis=axes), rtol=1e-13, atol=0.0)
    assert np.array_equal(np.sqrt(np.maximum.accumulate(traj.h_sq)),
                          traj.sup_h_norm)


@pytest.mark.parametrize("kind", ["heat", "burgers_clamped", "ns2d"])
def test_recorded_norms_and_gap_are_the_space_kernel_on_the_states(kind):
    # one form per norm: the step's norms and the coupled gap are the
    # space's sq_norms of the recorded states, bit for bit
    model, cfg, x0 = _setup(kind)
    space = model.space
    values = np.zeros((cfg.n_steps, model.noise.n_w))
    values[:, 1] = 1.5
    pair = S.solve_block(model, cfg, x0, 4, [2], shifts=(values, None),
                         record="states")
    for traj in pair.trajectories:
        assert np.array_equal(traj.h_sq, space.sq_norms(traj.states))
        assert np.array_equal(traj.v_sq, space.sq_norms(
            traj.states, space.laplacian_eigenvalues()))
    x, y = pair.trajectories
    assert pair.sup_gap_sq[0] > 0.0
    assert pair.sup_gap_sq[0] == np.max(space.sq_norms(x.states - y.states))


def _simulate_csv(tmp_path, stride, name):
    doc = copy.deepcopy(BASE)
    doc["solver"] = {"dt": 0.01, "horizon": 0.2, "snapshot_stride": stride}
    doc["replicates"] = 4
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / name
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    with open(out / "trajectory_0.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    report = read_report(out)
    return rows, report["trajectory"]


def test_simulate_csv_honours_snapshot_stride(tmp_path, capsys):
    full_rows, full_traj = _simulate_csv(tmp_path, 1, "full")
    thin_rows, thin_traj = _simulate_csv(tmp_path, 3, "thin")
    capsys.readouterr()
    assert len(full_rows) == 1 + 21
    # 20 steps at stride 3: times 0, 3, ..., 18; no extra terminal row
    assert thin_rows == [full_rows[0]] + full_rows[1::3]
    assert thin_traj == full_traj


def test_block_divergence_names_lowest_replicate_without_warnings():
    model = M.burgers_model(8, _noise_1d())
    cfg = S.SolverConfig(dt=0.5, horizon=50.0)
    x0 = F.Field1D(np.full(8, 40.0))
    with pytest.raises(DivergenceError) as err:
        S.solve_block(model, cfg, x0, 3, [12, 5, 9],
                      increments=np.zeros((cfg.n_steps, 3, 4)))
    assert err.value.replicate == 5
    assert err.value.experiment_seed == 3
    assert "replicate=5" in str(err.value)
    clone = pickle.loads(pickle.dumps(err.value))
    assert (clone.step, clone.time, clone.replicate, str(clone)) == \
        (err.value.step, err.value.time, 5, str(err.value))


def test_ensemble_divergence_is_the_earliest_over_all_blocks(monkeypatch):
    # strong noise near the blow-up threshold: replicates diverge at
    # different steps, so the earliest one is a real choice
    noise = N.NoiseOperator(4, N.gains_inverse_k(4, 100.0), 100.0)
    model = M.burgers_model(8, noise)
    cfg = S.SolverConfig(dt=0.05, horizon=5.0)
    x0 = F.Field1D(np.full(8, 5.0))
    n_rep = 4 * S.BLOCK_REPLICATES
    first = []
    for r in range(n_rep):
        try:
            S.solve(model, cfg, x0, 1, replicate=r)
        except DivergenceError as exc:
            first.append((exc.step, r))
    step, rep = min(first)
    assert len({s for s, _ in first}) > 1
    for workers in ("1", "2"):
        monkeypatch.setenv("TCI_SPDE_WORKERS", workers)
        with pytest.raises(DivergenceError) as err:
            K.functional_ensemble(model, cfg, x0, K.sup_h_functional(), n_rep,
                                  experiment_seed=1)
        assert (err.value.step, err.value.replicate) == (step, rep)


def _verify_t2(tmp_path, name, replicates, functionals, workers, monkeypatch):
    doc = copy.deepcopy(BASE)
    doc.update({"model": {"kind": "burgers", "n_modes": 8},
                "solver": {"dt": 0.01, "horizon": 0.2},
                "replicates": replicates, "functionals": functionals})
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / name
    monkeypatch.setenv("TCI_SPDE_WORKERS", workers)
    assert main(["verify-t2", "--config", str(path), "--out", str(out)]) in (0, 1)
    report = read_report(out)
    report.pop("timestamp")
    return report, (out / "ensemble.csv").read_bytes()


@pytest.mark.parametrize("replicates", [13, 53])
def test_verify_t2_independent_of_workers_for_partial_blocks(
        tmp_path, capsys, monkeypatch, replicates):
    runs = [_verify_t2(tmp_path, f"w{w}", replicates, ["sup_H_norm"], w,
                       monkeypatch) for w in ("1", "3")]
    capsys.readouterr()
    assert runs[0] == runs[1]


def test_verify_t2_one_pass_feeds_every_functional(tmp_path, capsys, monkeypatch):
    both, csv_both = _verify_t2(tmp_path, "both", 16,
                                ["sup_H_norm", "l2_V_path_norm"], "1",
                                monkeypatch)
    sup, csv_sup = _verify_t2(tmp_path, "sup", 16, ["sup_H_norm"], "1",
                              monkeypatch)
    l2, _ = _verify_t2(tmp_path, "l2", 16, ["l2_V_path_norm"], "1",
                       monkeypatch)
    capsys.readouterr()
    assert both["chain"] == sup["chain"] + l2["chain"]
    assert both["contraction"] == sup["contraction"]
    assert csv_both == csv_sup
