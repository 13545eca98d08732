"""Config parsing, report emission, exit codes, and reproducibility."""

import copy
import csv
import json
import math
import os

import pytest

from tci_spde.cli import main
from tci_spde.config import config_hash, parse_config
from tci_spde.constants import admissible_ranges
from tci_spde.errors import SchemaError
from tci_spde.models import ETA_1D

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "configs")

BASE = {
    "model": {"kind": "heat", "n_modes": 8},
    "noise": {"n_w": 4, "c_b": 1.0, "gains": "inverse_k"},
    "solver": {"dt": 0.01, "horizon": 0.2},
    "initial_condition": {"type": "zero"},
    "shift": {"type": "constant", "mode_index": 1, "amplitude": 1.0},
    "functionals": ["sup_H_norm"],
    "lambda_grid": [-0.5, 0.5],
    "r_grid": [0.5, 1.0],
    "replicates": 32,
    "experiment_seed": 0,
    "t1": {"c": 0.5},
}


def write_config(tmp_path, overrides=None, name="config.json"):
    doc = copy.deepcopy(BASE)
    for key, value in (overrides or {}).items():
        if value is None:
            doc.pop(key, None)
        elif isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key].update(value)
        else:
            doc[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def strip_timestamp(report):
    clone = dict(report)
    clone.pop("timestamp")
    return clone


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_round_trip():
    cfg = parse_config(copy.deepcopy(BASE))
    assert cfg.model.kind == "heat"
    assert cfg.solver.n_steps == 20
    assert cfg.replicates == 32
    assert cfg.experiment_seed == 0


def test_schema_error_lists_every_problem():
    bad = copy.deepcopy(BASE)
    bad["model"]["kind"] = "wave"
    bad["solver"]["dt"] = -1.0
    del bad["solver"]["horizon"]
    bad["replicates"] = 1
    with pytest.raises(SchemaError) as err:
        parse_config(bad)
    message = str(err.value)
    for fragment in ("model.kind", "solver.dt", "solver.horizon", "replicates"):
        assert fragment in message


def test_unknown_keys_rejected():
    bad = copy.deepcopy(BASE)
    bad["solvr"] = {}
    with pytest.raises(SchemaError, match="solvr"):
        parse_config(bad)


def test_seed_override_is_reflected_in_hash():
    a = parse_config(copy.deepcopy(BASE))
    b = parse_config(copy.deepcopy(BASE), seed_override=7)
    assert b.experiment_seed == 7
    assert a.hash != b.hash
    again = parse_config(copy.deepcopy(BASE), seed_override=7)
    assert again.hash == b.hash


def test_config_hash_is_order_insensitive():
    doc = copy.deepcopy(BASE)
    reordered = {k: doc[k] for k in reversed(list(doc))}
    assert config_hash(doc) == config_hash(reordered)


# ---------------------------------------------------------------------------
# subcommands end to end (in-process)


def test_constants_subcommand(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(
        {"constants": {"horizon": 1.0, "K2": 0.0, "C_B": 1.0, "C1": 2.0}}))
    out = tmp_path / "out"
    code = main(["constants", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    report = read_report(out)
    assert report["subcommand"] == "constants"
    assert abs(report["C_T2"]["value"] - 4.0) <= 4e-4
    assert "timestamp" in report
    capsys.readouterr()


def test_verify_t2_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["verify-t2", "--config", write_config(tmp_path),
                 "--out", str(out)])
    assert code == 0
    report = read_report(out)
    assert report["all_passed"] is True
    assert report["contraction"]["pass"]
    assert all(entry["pass"] for entry in report["chain"])
    with open(out / "ensemble.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["replicate", "seed", "functional", "value"]
    assert len(rows) == 1 + 2 * 32  # header + shifted and unshifted legs
    capsys.readouterr()


def test_verify_t1_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["verify-t1", "--config", write_config(tmp_path),
                 "--out", str(out)])
    assert code == 0
    report = read_report(out)
    assert report["exp_moment"]["pass"]
    assert report["bobkov_gotze"]["pass"]
    assert report["gaussian_tail"]["pass"]
    assert (out / "ensemble.csv").exists()
    capsys.readouterr()


def test_verify_t1_takes_the_x0_norm_in_one_form(tmp_path, capsys):
    # The Taylor-Green start at amplitude 0.5 has ||x0||_H^2 = 0.125 exactly,
    # and the exponential-moment block reports the value mu_moment uses.
    with open(os.path.join(CONFIG_DIR, "ns2d_reference.json")) as fh:
        doc = json.load(fh)
    doc.update({"replicates": 2, "solver": {"dt": 0.001, "horizon": 0.01}})
    path = tmp_path / "ns2d.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["verify-t1", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    report = read_report(out)
    assert report["exp_moment"]["x0_h_norm_sq"] == 0.125
    assert report["mu_moment"] == math.exp(report["lambda0"] * 0.125)


def test_inadmissible_lambda0_exits_2_before_solving(tmp_path, capsys):
    lambda0_max = admissible_ranges(1.5, ETA_1D, 0.0, 1.0, 0.5)["lambda0_max_lemma"]
    out = tmp_path / "out"
    code = main(["verify-t1", "--config",
                 write_config(tmp_path, {"t1": {"lambda0": 50.0}}),
                 "--out", str(out)])
    assert code == 2
    assert f"lambda0 must lie in (0, {lambda0_max:.6g})" in capsys.readouterr().err
    assert not (out / "ensemble.csv").exists()
    assert not (out / "report.json").exists()


def test_simulate_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["simulate", "--config", write_config(tmp_path),
                 "--out", str(out)])
    assert code == 0
    with open(out / "trajectory_0.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 21
    assert set(rows[0]) == {"time", "norm_h", "norm_v"}
    assert float(rows[0]["time"]) == 0.0
    report = read_report(out)
    assert report["moments"]["pass"]
    capsys.readouterr()


def test_inequalities_subcommand(tmp_path, capsys):
    path = write_config(tmp_path, {"n_fields": 50})
    out = tmp_path / "out"
    code = main(["inequalities", "--config", path, "--out", str(out)])
    assert code == 0
    report = read_report(out)
    for key in ("fields_1d", "fields_2d", "taylor_green", "heat_convergence"):
        assert report[key]["pass"]
    capsys.readouterr()


def test_audit_subcommand_and_seed_override(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = write_config(tmp_path, {"n_fields": 100})
    assert main(["audit", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["audit", "--config", cfg, "--seed", "9",
                 "--out", str(out_b)]) == 0
    a = read_report(out_a)
    b = read_report(out_b)
    assert a["hypotheses"]["experiment_seed"] == 0
    assert b["hypotheses"]["experiment_seed"] == 9
    assert b["config"]["experiment_seed"] == 9
    assert a["config_hash"] != b["config_hash"]
    capsys.readouterr()


def test_malformed_config_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"solver": {"dt": -0.1}})
    code = main(["audit", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "solver.dt" in err


def test_solver_dealias_is_an_unknown_key(tmp_path, capsys):
    # the drift kernels have one product grid each, with no switch
    path = write_config(tmp_path, {"solver": {"dealias": True}})
    code = main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "solver.dealias: unknown key" in capsys.readouterr().err


def test_noise_beyond_the_torus_basis_exits_2(tmp_path, capsys):
    # cutoff 1 has 4 half-space wavevectors, so 8 divergence-free fields
    path = write_config(tmp_path, {
        "model": {"kind": "ns2d", "cutoff": 1, "viscosity": 0.1},
        "noise": {"n_w": 9},
        "initial_condition": {"type": "taylor_green"}})
    code = main(["audit", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "model: n_w = 9 exceeds the 8 divergence-free modes" in err
    assert "at cutoff 1" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["audit", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    capsys.readouterr()


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["audit", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_failed_verdict_exits_1(tmp_path, capsys):
    # coercivity genuinely fails here: with the forcing schedule pinned to
    # zero, 2<Av,v> + ||B||^2 picks up the full c_b=200 noise budget, which
    # theta/2 of the V-energy cannot absorb on unit-scale draws
    path = write_config(tmp_path, {
        "model": {"kind": "heat", "n_modes": 8, "f_tilde": 0.0},
        "noise": {"n_w": 4, "c_b": 200.0, "gains": "inverse_k"},
        "n_fields": 100,
    })
    out = tmp_path / "out"
    code = main(["audit", "--config", path, "--out", str(out)])
    assert code == 1
    report = read_report(out)
    assert report["all_passed"] is False
    assert not report["hypotheses"]["coercivity"]["pass"]
    capsys.readouterr()


def test_reports_reproducible_across_worker_counts(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)
    reports = []
    blobs = []
    for workers, name in (("1", "w1"), ("5", "w5")):
        monkeypatch.setenv("TCI_SPDE_WORKERS", workers)
        out = tmp_path / name
        assert main(["verify-t1", "--config", cfg, "--out", str(out)]) == 0
        reports.append(strip_timestamp(read_report(out)))
        blobs.append((out / "ensemble.csv").read_bytes())
    assert reports[0] == reports[1]
    assert blobs[0] == blobs[1]
    capsys.readouterr()


def test_rerun_is_byte_identical_modulo_timestamp(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "r1", tmp_path / "r2"
    assert main(["verify-t2", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["verify-t2", "--config", cfg, "--out", str(out_b)]) == 0
    a, b = read_report(out_a), read_report(out_b)
    assert strip_timestamp(a) == strip_timestamp(b)
    assert a["config_hash"] == b["config_hash"]
    capsys.readouterr()
