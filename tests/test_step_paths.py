"""The work-saving paths of the solver step and of ``simulate``.

- ``half_to_grid`` and ``grid_to_half`` transform only the columns that
  hold modes; they must equal a full ``irfft2`` / ``rfft2`` bitwise.
- 2-D noise is added on the support of the basis only; it must equal the
  dense contraction with every basis spectrum in value (the sign of an
  exact zero may differ, which no output can see).
- ``simulate`` takes replicate 0's path from its moment pass; it must
  equal a recorded ``solve`` of replicate 0.
- A diverging run leaves a report with the address of the divergence:
  seed, replicate, time step, dt and shift leg; ``solve`` at that address
  diverges again, also for a row of ``moment_report``'s refined pass.

The references live in ``oracles`` and share no code with these paths.
"""

import csv
import json
import math

import numpy as np
import pytest

import oracles as orc
from tci_spde import concentration as K
from tci_spde import fields as F
from tci_spde import models as M
from tci_spde import noise as N
from tci_spde import solver as S
from tci_spde.cli import main
from tci_spde.config import load_config, parse_config
from tci_spde.errors import DivergenceError

from test_config_cli import read_report


def _grids(cutoff):
    return sorted({2 * cutoff + 1, 3 * cutoff + 1, M.ns_product_grid(cutoff),
                   4 * cutoff + 4})


BATCHES = [(), (1,), (3,), (2, 3)]


def _bits(a):
    """The 64-bit words of a float or complex array, signed zeros included."""
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("cutoff", range(1, 33))
def test_pruned_transforms_equal_full_transforms_bitwise(cutoff):
    rng = np.random.default_rng(cutoff)
    n = 2 * cutoff + 1
    for n_grid in _grids(cutoff):
        for batch in BATCHES:
            half = (rng.standard_normal(batch + (n, cutoff + 1))
                    + 1j * rng.standard_normal(batch + (n, cutoff + 1)))
            vals = F.half_to_grid(half, n_grid)
            assert vals.shape == batch + (n_grid, n_grid)
            assert np.array_equal(_bits(vals), _bits(orc.irfft2_half(half, n_grid)))
            grid = rng.standard_normal(batch + (n_grid, n_grid))
            spec = F.grid_to_half(grid, cutoff)
            ref = orc.rfft2_half(grid, cutoff)
            assert spec.shape == ref.shape
            assert np.array_equal(_bits(spec), _bits(ref))


def test_pruned_transforms_round_trip_band_limited_fields():
    rng = np.random.default_rng(0)
    cutoff = 5
    spec = F.random_fields_2d(3, cutoff, rng)
    half = spec[..., cutoff:]
    back = F.grid_to_half(F.half_to_grid(half, M.ns_product_grid(cutoff)), cutoff)
    assert np.allclose(back, half, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("kind", ["additive", "clamped"])
@pytest.mark.parametrize("rows", [1, 2, 8])
def test_sparse_noise_equals_dense_embedding(kind, rows):
    # one operator on two cutoffs: the space, not the operator, embeds it
    n_w = 9                                 # odd: a lone cosine field
    op = N.NoiseOperator(n_w, N.gains_inverse_k(n_w, 0.05), 0.05,
                         clamp=0.05 if kind == "clamped" else None)
    for cutoff in (6, 3):
        _check_sparse_noise(op, cutoff, rows)


def _check_sparse_noise(op, cutoff, rows):
    n_w = op.n_w
    space = F.TorusSpace(cutoff)
    support, _ = space.noise_basis(n_w)
    basis = orc.dense_basis_2d(cutoff, n_w)
    rng = np.random.default_rng(rows)
    w = rng.standard_normal((rows, n_w))
    dense = orc.dense_embed_2d(op.gains, basis, w)
    sparse = np.zeros_like(dense)
    space.add_noise(sparse, op, w)
    assert np.array_equal(sparse, dense)
    one = np.zeros_like(dense[:1])
    space.add_noise(one, op, w[:1])
    assert np.array_equal(one[0].ravel()[support], sparse[0].ravel()[support])
    # the support is exactly where some basis field is non-zero
    reached = np.flatnonzero(np.any(basis.reshape(n_w, -1) != 0.0, axis=0))
    assert np.array_equal(support, reached)

    # one solver step adds the noise, clamped by g(||x0||_H), in place
    model = M.ns2d_model(cutoff, 0.1, op)
    cfg = S.SolverConfig(dt=1e-3, horizon=1e-3)
    x0 = M.taylor_green_field(cutoff, 0.5)
    inc = math.sqrt(cfg.dt) * rng.standard_normal((1, rows, n_w))
    block = S.solve_block(model, cfg, x0, 0, range(rows), increments=inc)
    u = x0.spec
    w = inc[0]
    if op.clamp is not None:
        g = op.g(np.sqrt(np.sum(np.abs(u.reshape(1, -1)) ** 2, axis=1)))
        assert g[0] < 1.0
        w = g[:, None] * w
    drift = M.explicit_drift(model, u) * cfg.dt
    inv_lin = 1.0 / (1.0 + cfg.dt * M.linear_eigenvalues(model))
    for r in range(rows):
        noise = orc.dense_embed_2d(op.gains, basis, w[r])
        assert np.array_equal(block.paths["terminal"][r], (u + drift + noise) * inv_lin)


# ---------------------------------------------------------------------------
# simulate: replicate 0 comes from the moment pass


def _simulate_doc(kind, stride):
    doc = {"solver": {"dt": 0.01, "horizon": 0.2, "snapshot_stride": stride},
           "replicates": 6 * S.BLOCK_REPLICATES, "experiment_seed": 5}
    if kind == "ns2d":
        doc.update({"model": {"kind": "ns2d", "cutoff": 4, "viscosity": 0.1},
                    "noise": {"n_w": 4, "c_b": 0.01, "gains": "inverse_k"},
                    "initial_condition": {"type": "taylor_green",
                                          "amplitude": 0.5}})
    else:
        doc.update({"model": {"kind": kind, "n_modes": 8},
                    "noise": {"n_w": 4, "c_b": 1.0, "gains": "inverse_k"},
                    "initial_condition": {"type": "mode", "amplitude": 0.5}})
    return doc


@pytest.mark.parametrize("kind", ["heat", "burgers", "ns2d"])
@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("workers", ["1", "3"])
def test_simulate_trajectory_is_a_recorded_solve_of_replicate_0(
        tmp_path, capsys, monkeypatch, kind, stride, workers):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_simulate_doc(kind, stride)))
    out = tmp_path / "out"
    monkeypatch.setenv("TCI_SPDE_WORKERS", workers)
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()

    cfg = load_config(str(path))
    traj = S.solve(cfg.model, cfg.solver, cfg.x0, cfg.experiment_seed, replicate=0)
    n_steps = cfg.solver.n_steps
    kept = range(0, n_steps + 1, stride)
    assert np.array_equal(traj.times[:len(kept)], cfg.solver.dt * np.array(kept))
    expected = [["time", "norm_h", "norm_v"]] + [
        [repr(float(traj.times[i])), repr(math.sqrt(traj.h_sq[i])),
         repr(math.sqrt(traj.v_sq[i]))] for i in range(len(kept))]
    with open(out / "trajectory_0.csv", newline="") as fh:
        assert list(csv.reader(fh)) == expected
    assert read_report(out)["trajectory"] == {
        "file": "trajectory_0.csv",
        "n_steps": n_steps,
        "terminal_h_norm": float(F.norms_h(traj.terminal)),
        "sup_h_norm": traj.sup_h_total,
        "v_energy": traj.v_energy_total,
    }
    # one form: the reported norm is the root of the recorded terminal H^2
    assert read_report(out)["trajectory"]["terminal_h_norm"] == \
        math.sqrt(traj.h_sq[-1])


def test_norm_recording_keeps_the_paths_of_state_recording():
    model = M.burgers_model(8, N.NoiseOperator(4, N.gains_inverse_k(4, 1.0), 1.0))
    cfg = S.SolverConfig(dt=0.01, horizon=0.2, snapshot_stride=7)
    x0 = F.Field1D(F.random_fields_1d(1, 8, np.random.default_rng(1))[0])
    full = S.solve_block(model, cfg, x0, 2, [3, 4], record="states")
    thin = S.solve_block(model, cfg, x0, 2, [3, 4], record="norms")
    assert np.array_equal(full.paths, thin.paths)
    for a, b in zip(full.trajectories, thin.trajectories):
        assert b.states is None
        for name in ("times", "h_sq", "v_sq", "v_energy", "sup_h_norm", "terminal"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert np.array_equal(a.states[-1], b.terminal)


# ---------------------------------------------------------------------------
# divergence


DIVERGING = {
    "model": {"kind": "burgers", "n_modes": 8},
    "noise": {"n_w": 4, "c_b": 400.0, "gains": "inverse_k"},
    "solver": {"dt": 0.05, "horizon": 2.0},
    "initial_condition": {"type": "mode", "amplitude": 20.0},
    "replicates": 2 * S.BLOCK_REPLICATES,
    "experiment_seed": 0,
}


def test_diverging_run_writes_a_partial_report_that_reproduces(tmp_path, capsys):
    path = tmp_path / "diverging.json"
    path.write_text(json.dumps(DIVERGING))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
    assert "diverged" in capsys.readouterr().err
    assert not (out / "trajectory_0.csv").exists()

    cfg = load_config(str(path))
    report = read_report(out)
    div = report.pop("divergence")
    report.pop("timestamp")
    assert report == {"subcommand": "simulate", "config": cfg.raw,
                      "config_hash": cfg.hash, "all_passed": False}
    assert div["experiment_seed"] == 0 and div["pass"] is False
    assert div["dt"] == cfg.solver.dt and div["shifted"] is False
    # the earliest divergence is not replicate 0's: the address matters
    assert div["replicate"] > 0

    with pytest.raises(DivergenceError) as err:
        S.solve(cfg.model, cfg.solver, cfg.x0, div["experiment_seed"],
                replicate=div["replicate"])
    assert (err.value.step, err.value.time) == (div["step"], div["time"])


# a large Girsanov shift drives the shifted leg to blow up; the unshifted
# leg, driven by weak noise from zero, stays bounded
SHIFT_DIVERGING = {
    "model": {"kind": "burgers", "n_modes": 8},
    "noise": {"n_w": 4, "c_b": 1.0, "gains": "inverse_k"},
    "solver": {"dt": 0.05, "horizon": 2.0},
    "initial_condition": {"type": "zero"},
    "shift": {"type": "constant", "mode_index": 1, "amplitude": 400.0},
    "replicates": 2 * S.BLOCK_REPLICATES,
    "experiment_seed": 0,
}


def test_shifted_leg_divergence_names_its_leg(tmp_path, capsys):
    path = tmp_path / "shift_diverging.json"
    path.write_text(json.dumps(SHIFT_DIVERGING))
    out = tmp_path / "out"
    assert main(["verify-t2", "--config", str(path), "--out", str(out)]) == 3
    assert "shifted" in capsys.readouterr().err

    cfg = load_config(str(path))
    div = read_report(out)["divergence"]
    assert div["shifted"] is True and div["dt"] == cfg.solver.dt
    assert div["replicate"] > 0

    rows = cfg.shift().dynamic_rows()
    with pytest.raises(DivergenceError) as err:
        S.solve(cfg.model, cfg.solver, cfg.x0, div["experiment_seed"],
                replicate=div["replicate"], shift_values=rows)
    assert (err.value.step, err.value.time) == (div["step"], div["time"])
    assert err.value.shifted is True
    # the same replicate without the shift does not diverge
    S.solve(cfg.model, cfg.solver, cfg.x0, div["experiment_seed"],
            replicate=div["replicate"])


def test_refined_pass_divergence_reproduces_at_half_dt():
    # No config makes only the dt/2 pass of moment_report diverge, so this
    # drives that pass directly: replicates of the refined lane at dt/2.
    parsed = parse_config(dict(DIVERGING, noise={"n_w": 4, "c_b": 4000.0,
                                                 "gains": "inverse_k"}))
    model, x0 = parsed.model, parsed.x0
    cfg = S.SolverConfig(dt=parsed.solver.dt / 2.0, horizon=2.0)
    refined = [N.derived_replicate(N.LANE_REFINED, r) for r in range(16)]
    with pytest.raises(DivergenceError) as err:
        K._moment_pass(model, cfg, x0, 0, 2.0, refined)
    div = err.value
    assert (div.replicate, div.step, div.dt, div.shifted) == \
        (N.derived_replicate(N.LANE_REFINED, 2), 13, 0.025, False)

    with pytest.raises(DivergenceError) as again:
        S.solve(model, cfg, x0, div.experiment_seed, replicate=div.replicate)
    assert (again.value.step, again.value.time) == (div.step, div.time)
