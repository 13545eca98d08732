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
from tci_spde.errors import DivergenceError, InvalidFieldError, ParameterError

import oracles as orc
from test_config_cli import BASE, read_report


def v_weights(model, u):
    """Weights w with ||u||_V^2 = sum w |u|^2: the Laplacian eigenvalues
    times the H weights of the storage layout."""
    lam = M.linear_eigenvalues(model)
    if model.kind == "ns2d":
        lam = lam / model.viscosity
    return lam * orc.h_weights(u)


def reference_row(model, cfg, x0, inc, shift=None):
    """(v_energy_total, states at every step) of one row."""
    op, dt = model.noise, cfg.dt
    lam = M.linear_eigenvalues(model)
    two_d = model.kind == "ns2d"
    if two_d:
        basis = orc.dense_basis_2d(model.space.cutoff, op.n_w)

    weight = v_weights(model, x0)
    u = x0.copy()
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
    return float(np.sum(orc.h_weights(u) * np.abs(u) ** 2))


def sup_h(states):
    return math.sqrt(max(h_norm_sq(u) for u in states))


def reference_norms(model, states):
    """(||X_k||_H^2, ||X_k||_V^2) of reference states, one row per step."""
    weight = v_weights(model, states[0])
    return np.array([[h_norm_sq(u), float(np.sum(weight * np.abs(u) ** 2))]
                     for u in states])


def _noise_1d(clamp=None):
    return N.NoiseOperator(4, N.gains_inverse_k(4, 1.0), 1.0, clamp=clamp)


def _setup(kind):
    cfg = S.SolverConfig(dt=2e-3, horizon=0.1)
    if kind == "heat":
        return M.heat_model(8, _noise_1d()), cfg, np.zeros(8)
    if kind in ("burgers", "burgers_clamped"):
        clamp = 0.3 if kind == "burgers_clamped" else None
        x0 = F.random_fields_1d(1, 12, np.random.default_rng(4))[0]
        return M.burgers_model(12, _noise_1d(clamp)), cfg, x0
    op = N.NoiseOperator(6, N.gains_inverse_k(6, 0.05), 0.05)
    cfg = S.SolverConfig(dt=2e-3, horizon=0.02)
    return M.ns2d_model(8, 0.1, op), cfg, M.taylor_green_field(8, 0.5)


def _close(a, b, rel=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    return np.max(np.abs(a - b)) <= rel * max(1.0, np.max(np.abs(b)))


def increments(model, cfg, seed, replicate):
    """One replicate's (n_steps, n_w) Wiener increments, from the drawer."""
    slabs = N.increment_slabs(model.noise, cfg.dt, seed, [replicate],
                              cfg.n_steps)
    return np.concatenate(list(slabs))[:, 0]


def _across_slabs(cfg):
    """``cfg`` with a horizon of SLAB_STEPS + 6 steps, so the increments come
    in a full slab and a short one."""
    return S.SolverConfig(dt=cfg.dt, horizon=(N.SLAB_STEPS + 6) * cfg.dt)


@pytest.mark.parametrize("kind", ["heat", "burgers", "burgers_clamped", "ns2d"])
def test_coupled_blocks_match_row_by_row_stepping(kind):
    model, cfg, x0 = _setup(kind)
    cfg = _across_slabs(cfg)
    n_w = model.noise.n_w
    # a shift switched off half way, so the gap peaks before the horizon
    values = np.zeros((cfg.n_steps + 1, n_w))
    values[:cfg.n_steps // 2, 1] = 1.5
    h = values
    n_rep = S.BLOCK_REPLICATES + 3   # a full block and a partial one
    ens = G.coupled_ensemble(model, cfg, x0, h, n_rep, experiment_seed=7)
    for r in range(n_rep):
        inc = increments(model, cfg, 7, r)
        vx, xs = reference_row(model, cfg, x0, inc, h)
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
        inc = increments(model, cfg, 3, r)
        v, states = reference_row(model, cfg, x0, inc)
        assert _close(block.paths[row]["v_energy_total"], v)
        assert _close(block.paths[row]["sup_h_total"], sup_h(states))
        assert _close(block.paths[row]["terminal"], states[-1])
        assert _close(S.solve(model, cfg, x0, 3, replicate=r).norms,
                      reference_norms(model, states))


@pytest.mark.parametrize("kind", ["heat", "burgers_clamped", "ns2d"])
def test_ensemble_blocks_match_row_by_row_stepping(kind):
    model, cfg, x0 = _setup(kind)
    cfg = _across_slabs(cfg)
    n_rep = S.BLOCK_REPLICATES + 3   # a full block and a partial one
    ens = S.ensemble(model, cfg, x0, 3, range(n_rep))
    for r in range(n_rep):
        inc = increments(model, cfg, 3, r)
        v, states = reference_row(model, cfg, x0, inc)
        assert _close(ens.paths[r]["v_energy_total"], v)
        assert _close(ens.paths[r]["sup_h_total"], sup_h(states))
        assert _close(ens.paths[r]["terminal"], states[-1])


def test_solve_block_takes_increment_rows_from_any_iterable():
    # the drawer's slabs, a full table and a generator of its rows give the
    # same bits; a wrong row count or row shape is refused
    model, cfg, x0 = _setup("burgers_clamped")
    cfg = _across_slabs(cfg)
    reps = [4, 1, 7]
    table = np.stack([increments(model, cfg, 2, r)
                      for r in reps], axis=1)
    drawn = S.solve_block(model, cfg, x0, 2, reps).paths
    assert np.array_equal(S.solve_block(model, cfg, x0, 2, reps,
                                        increments=table).paths, drawn)
    assert np.array_equal(S.solve_block(model, cfg, x0, 2, reps,
                                        increments=iter(table)).paths, drawn)
    for bad in (table[:-1], np.concatenate([table, table[:1]]), table[:, :2]):
        with pytest.raises(ParameterError, match="n_steps rows of shape"):
            S.solve_block(model, cfg, x0, 2, reps, increments=bad)


def test_block_rows_do_not_depend_on_block_company():
    # each row goes through its own matrix-vector products, so a replicate
    # gives the same bits alone, in a block, or in a coupled pair
    model, cfg, x0 = _setup("burgers")
    alone = S.solve(model, cfg, x0, 2, replicate=6)
    block = S.solve_block(model, cfg, x0, 2, range(S.BLOCK_REPLICATES))
    assert np.array_equal(block.paths[6:7], alone.paths)
    h = np.zeros((cfg.n_steps + 1, 4))
    pair = S.solve_block(model, cfg, x0, 2, [6], shifts=(h, None), record=True)
    assert pair.sup_gap_sq[0] == 0.0
    assert np.array_equal(pair.paths[:1], pair.paths[1:])
    assert np.array_equal(pair.paths[:1], alone.paths)
    assert np.array_equal(pair.norms, alone.norms)


def _bad_x0(case):
    """A model and an x0 its space must reject, by name."""
    cfg = S.SolverConfig(dt=0.01, horizon=0.02)
    if case in ("wrong_length", "complex_on_sine", "non_finite_sine"):
        x0 = {"wrong_length": np.zeros(7),
              "complex_on_sine": np.zeros(8, dtype=np.complex128),
              "non_finite_sine": np.full(8, np.nan)}[case]
        return M.heat_model(8, _noise_1d()), cfg, x0
    op = N.NoiseOperator(2, N.gains_inverse_k(2, 0.05), 0.05)
    model = M.ns2d_model(2, 0.1, op)
    if case == "wrong_cutoff":
        return model, cfg, M.taylor_green_field(3)
    x0 = M.taylor_green_field(2)
    if case == "full_block":
        return model, cfg, orc.full_block(x0)
    if case == "non_finite_torus":
        x0[0, 3, 1] = np.nan
    elif case == "non_hermitian":
        x0[0, 3, 0] = 1.0j          # (1, 0) without its mirror (-1, 0)
    else:                           # nonzero_mean
        x0[1, 2, 0] = 1.0
    return model, cfg, x0


@pytest.mark.parametrize("case", ["wrong_length", "wrong_cutoff",
                                  "complex_on_sine", "non_finite_sine",
                                  "full_block", "non_finite_torus",
                                  "non_hermitian", "nonzero_mean"])
def test_solve_block_and_ensemble_reject_x0_outside_the_space(case):
    model, cfg, x0 = _bad_x0(case)
    with pytest.raises(InvalidFieldError):
        S.solve_block(model, cfg, x0, 0, [0, 1])
    with pytest.raises(InvalidFieldError):
        S.ensemble(model, cfg, x0, 0, range(2))


def test_plain_list_x0_is_accepted():
    for kind in ("heat", "ns2d"):
        model, cfg, x0 = _setup(kind)
        want = S.solve_block(model, cfg, x0, 0, [0, 1]).paths
        got = S.solve_block(model, cfg, x0.tolist(), 0, [0, 1]).paths
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["burgers", "ns2d"])
def test_recorded_norms_are_the_norms_of_the_recorded_states(kind):
    # the states are the reference stepper's, on the same increments
    model, cfg, x0 = _setup(kind)
    run = S.solve(model, cfg, x0, 1, replicate=2)
    inc = increments(model, cfg, 1, 2)
    _, states = reference_row(model, cfg, x0, inc)
    assert run.norms.shape == (cfg.n_steps + 1, 2)
    assert _close(run.norms, reference_norms(model, states))
    assert _close(run.paths["terminal"][0], states[-1])
    assert run.paths["sup_h_total"][0] == np.sqrt(np.max(run.norms[:, 0]))


@pytest.mark.parametrize("kind", ["heat", "burgers_clamped", "ns2d"])
def test_recorded_norms_and_gap_are_the_space_kernel_on_the_states(kind):
    # one form per norm: the step's norms and the coupled gap are the
    # space's sq_norms of the states, bit for bit.  The state after k steps
    # is the terminal state of the k-step run, whose increments are the
    # first k rows of the longer run's.
    model, cfg, x0 = _setup(kind)
    space = model.space
    values = np.zeros((cfg.n_steps + 1, model.noise.n_w))
    values[:, 1] = 1.5
    pair = S.solve_block(model, cfg, x0, 4, [2], shifts=(values, None),
                         record=True)
    assert pair.norms[0, 0] == space.sq_norms(x0)
    gaps = [0.0]
    for k in range(1, cfg.n_steps + 1):
        short = S.SolverConfig(dt=cfg.dt, horizon=k * cfg.dt)
        run = S.solve_block(model, short, x0, 4, [2],
                            shifts=(values[:k + 1], None))
        x, y = run.paths["terminal"]
        assert pair.norms[k, 0] == space.sq_norms(x)
        assert pair.norms[k, 1] == space.sq_norms(x, space.laplacian_eigenvalues())
        gaps.append(space.sq_norms(x - y))
        assert run.sup_gap_sq[0] == max(gaps)
    assert pair.sup_gap_sq[0] > 0.0
    assert pair.sup_gap_sq[0] == max(gaps)


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
    x0 = np.full(8, 40.0)
    with pytest.raises(DivergenceError) as err:
        S.solve_block(model, cfg, x0, 3, [12, 5, 9],
                      increments=np.zeros((cfg.n_steps, 3, 4)))
    assert err.value.replicate == 5
    assert err.value.experiment_seed == 3
    assert str(err.value) == ("trajectory diverged at step 8 (t = 4; "
                              "experiment_seed=3, replicate=5, dt=0.5, "
                              "unshifted)")
    clone = pickle.loads(pickle.dumps(err.value))
    assert (clone.step, clone.time, clone.replicate, str(clone)) == \
        (err.value.step, err.value.time, 5, str(err.value))


def test_ensemble_divergence_is_the_earliest_over_all_blocks(monkeypatch):
    # strong noise near the blow-up threshold: replicates diverge at
    # different steps, so the earliest one is a real choice
    noise = N.NoiseOperator(4, N.gains_inverse_k(4, 100.0), 100.0)
    model = M.burgers_model(8, noise)
    cfg = S.SolverConfig(dt=0.05, horizon=5.0)
    x0 = np.full(8, 5.0)
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
