"""Config parsing, report emission, exit codes, and reproducibility."""

import copy
import csv
import glob
import json
import math
import os
import subprocess
import sys

import pytest

from tci_spde.cli import main
from tci_spde.config import config_hash, parse_config
from tci_spde.constants import admissible_ranges
from tci_spde.errors import SchemaError
from tci_spde.girsanov import coupled_ensemble
from tci_spde.models import ETA_1D

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "configs")
TOOLS_CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                                "configs")

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


@pytest.mark.parametrize("given, horizon", [
    ({"horizon": 2.0}, 2.0),
    ({}, 0.2),
], ids=["horizon_over_solver", "solver_default"])
def test_constants_horizon_precedence(tmp_path, capsys, given, horizon):
    # `horizon` wins over the solver's 0.2, and the default
    # f_tilde_integral is f_tilde (= C_B = 1 on BASE) times it
    path = write_config(tmp_path, {"constants": given})
    out = tmp_path / "out"
    assert main(["constants", "--config", path, "--out", str(out)]) == 0
    report = read_report(out)
    assert report["C_T2"]["horizon"] == horizon
    assert report["gaussian_moment"]["b"] == math.exp(
        report["lambda0"] * (1.0 * horizon + 0.0))
    capsys.readouterr()


def test_constants_T_is_an_unknown_key(tmp_path, capsys):
    # the horizon has one key, `horizon`
    path = write_config(tmp_path, {"constants": {"T": 2.0}})
    out = tmp_path / "out"
    assert main(["constants", "--config", path, "--out", str(out)]) == 2
    assert "constants.T: unknown key" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("subcommand", ["verify-t2", "verify-t1"])
def test_verify_at_another_horizon_exits_2(tmp_path, capsys, subcommand):
    # the ensemble is solved to solver.horizon = 0.2, so a constants record
    # at 1.5 is refused before any replicate is solved
    path = write_config(tmp_path, {"constants": {"horizon": 1.5}})
    out = tmp_path / "out"
    assert main([subcommand, "--config", path, "--out", str(out)]) == 2
    assert ("constants.horizon: 1.5 differs from solver.horizon 0.2"
            in capsys.readouterr().err)
    assert not (out / "ensemble.csv").exists()
    assert not (out / "report.json").exists()
    # `constants` still evaluates the record at any horizon
    assert main(["constants", "--config", path, "--out", str(out)]) == 0
    assert read_report(out)["C_T2"]["horizon"] == 1.5
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


def test_verify_t2_reads_the_entropy_of_its_coupled_pass(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify-t2", "--config", write_config(tmp_path),
                 "--out", str(out)]) == 0
    report = read_report(out)
    cfg = parse_config(copy.deepcopy(BASE))
    entropy = coupled_ensemble(cfg.model, cfg.solver, cfg.x0, cfg.shift,
                               cfg.replicates,
                               cfg.experiment_seed)["shift_entropy"]
    assert report["shift_entropy"] == entropy
    assert report["contraction"]["shift_entropy"] == entropy
    assert [entry["shift_entropy"] for entry in report["chain"]] == \
        [entropy] * len(report["chain"])
    capsys.readouterr()


def test_verify_t2_checks_against_the_reported_t2_constant(tmp_path, capsys):
    # constants overrides of K2 and C_B reach verify-t2's C_T2
    path = _reference(tmp_path, "heat_reference", replicates=32,
                      constants={"K2": 0.5, "C_B": 2.0})
    reports = {}
    for sub in ("constants", "verify-t2"):
        main([sub, "--config", path, "--out", str(tmp_path / sub)])
        reports[sub] = read_report(tmp_path / sub)
    value = reports["constants"]["C_T2"]["value"]
    t2 = reports["verify-t2"]
    assert value > 1e5
    assert t2["contraction"]["t2_constant"] == value
    assert all(entry["t2_constant"] == value for entry in t2["chain"])
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


@pytest.mark.parametrize("subcommand", ["verify-t1", "constants"])
def test_inadmissible_lambda0_exits_2_before_solving(tmp_path, capsys,
                                                     subcommand):
    lambda0_max = admissible_ranges(1.5, ETA_1D, 0.0, 1.0, 0.5)["lambda0_max_lemma"]
    out = tmp_path / "out"
    code = main([subcommand, "--config",
                 write_config(tmp_path, {"t1": {"lambda0": 50.0}}),
                 "--out", str(out)])
    assert code == 2
    assert f"lambda0 must lie in (0, {lambda0_max:.6g})" in capsys.readouterr().err
    assert not (out / "ensemble.csv").exists()
    assert not (out / "report.json").exists()


def _t1_parity(tmp_path, capsys, path):
    """Run `constants` and `verify-t1` on ``path`` and check that both
    report the same T1 constants, bit for bit."""
    reports = {}
    for sub in ("constants", "verify-t1"):
        assert main([sub, "--config", path, "--out", str(tmp_path / sub)]) \
            in (0, 1)
        reports[sub] = read_report(tmp_path / sub)
    capsys.readouterr()
    cons, t1 = reports["constants"], reports["verify-t1"]
    for key in ("lambda0", "c", "mu_moment", "ranges", "C_T1"):
        assert t1[key] == cons[key], key
    assert t1["exp_moment"]["a"] == cons["gaussian_moment"]["a"]
    assert t1["exp_moment"]["bound"] == cons["gaussian_moment"]["b"]
    return cons, t1


def test_verify_t1_checks_against_the_reported_t1_constants(tmp_path, capsys):
    # theta, C_B, f_tilde_integral and x0_h_norm_sq overrides reach
    # verify-t1's constants and its exponential-moment block
    path = os.path.join(TOOLS_CONFIG_DIR, "heat_constants.json")
    with open(path) as fh:
        given = json.load(fh)["constants"]
    cons, t1 = _t1_parity(tmp_path, capsys, path)
    assert t1["ranges"] == admissible_ranges(given["theta"], ETA_1D, 0.0,
                                             given["C_B"], 0.5)
    assert t1["exp_moment"]["f_tilde_integral"] == given["f_tilde_integral"]
    assert t1["exp_moment"]["x0_h_norm_sq"] == given["x0_h_norm_sq"]
    assert t1["bobkov_gotze"]["C"] == t1["gaussian_tail"]["C"] == cons["C_T1"]


@pytest.mark.parametrize("name", ["heat_reference", "burgers_reference",
                                  "ns2d_reference"])
def test_verify_t1_reports_the_constants_of_the_reference_configs(
        tmp_path, capsys, name):
    path = _reference(tmp_path, name, replicates=2,
                      solver={"dt": 0.001, "horizon": 0.01})
    _t1_parity(tmp_path, capsys, path)


def test_overridden_theta_bounds_lambda0_before_solving(tmp_path, capsys,
                                                        monkeypatch):
    # lambda0 = 0.3 lies below the bound of the model's theta = 1.5
    # (0.345) but not below that of the overriding theta = 0.5 (0.213)
    assert admissible_ranges(1.5, ETA_1D, 0.0, 1.0, 0.5)["lambda0_max_lemma"] \
        > 0.3
    lambda0_max = admissible_ranges(0.5, ETA_1D, 0.0, 1.0,
                                    0.5)["lambda0_max_lemma"]

    def solved(*args, **kwargs):
        raise AssertionError("a replicate was solved")

    monkeypatch.setattr("tci_spde.concentration.functional_ensemble", solved)
    path = write_config(tmp_path, {"t1": {"c": 0.5, "lambda0": 0.3},
                                   "constants": {"theta": 0.5}})
    out = tmp_path / "out"
    assert main(["verify-t1", "--config", path, "--out", str(out)]) == 2
    assert f"lambda0 must lie in (0, {lambda0_max:.6g})" in capsys.readouterr().err
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
    # cutoff 1 has 4 half-space wavevectors, so 8 divergence-free fields;
    # the model section replaces BASE's, whose n_modes ns2d does not read
    doc = {**copy.deepcopy(BASE),
           "model": {"kind": "ns2d", "cutoff": 1, "viscosity": 0.1},
           "initial_condition": {"type": "taylor_green"}}
    doc["noise"]["n_w"] = 9
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code = main(["audit", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "model: n_w = 9 exceeds the 8 divergence-free modes" in err
    assert "at cutoff 1" in err


def test_negative_constant_overrides_are_schema_problems(tmp_path, capsys):
    path = write_config(tmp_path, {
        "constants": {"x0_h_norm_sq": -1.0, "f_tilde_integral": -2.0}})
    code = main(["constants", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "constants.x0_h_norm_sq: must be nonnegative" in err
    assert "constants.f_tilde_integral: must be nonnegative" in err


def test_type_mismatch_names_the_expected_type(tmp_path, capsys):
    # a wrongly typed value names the type; the range text is for values
    # of the right type that fail the check
    path = write_config(tmp_path, {
        "noise": {"c_b": "x"}, "constants": {"x0_h_norm_sq": "y"}})
    code = main(["constants", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "noise.c_b: expected float" in err
    assert "constants.x0_h_norm_sq: expected float" in err
    assert "must be" not in err


@pytest.mark.parametrize("subcommand, entries", [
    ("simulate", [("initial_condition", "amplitude", "1e999")]),
    ("verify-t2", [("initial_condition", "amplitude", "-1e999")]),
    ("constants", [("t1", "lambda0", "Infinity")]),
    ("verify-t2", [("noise", "c_b", "NaN"), ("solver", "horizon", "Infinity"),
                   ("shift", "amplitude", "-Infinity")]),
], ids=["amplitude_overflow", "negative_overflow", "lambda0_infinity",
        "every_key_listed"])
def test_non_finite_numbers_exit_2(tmp_path, capsys, subcommand, entries):
    # JSON readers take Infinity, NaN and overflowing literals as floats;
    # each float key refuses them by name
    overrides = {"initial_condition": {"type": "mode"}}
    for section, key, _ in entries:
        overrides.setdefault(section, {})[key] = f"@{section}.{key}@"
    path = write_config(tmp_path, overrides)
    with open(path) as fh:
        text = fh.read()
    for section, key, literal in entries:
        text = text.replace(f'"@{section}.{key}@"', literal)
    with open(path, "w") as fh:
        fh.write(text)
    code = main([subcommand, "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    for section, key, _ in entries:
        assert f"{section}.{key}: must be finite" in err


def test_infinite_bounds_are_written_as_strict_json(tmp_path, capsys):
    # at clamp 0.1, K2 = 100 and the T2 constant overflows; the report keeps
    # its verdicts and writes each infinite number as the string "inf"
    with open(os.path.join(CONFIG_DIR, "heat_reference.json")) as fh:
        doc = json.load(fh)
    doc["noise"]["clamp"] = 0.1
    doc["initial_condition"] = {"type": "mode", "mode_index": 1,
                                "amplitude": 1.0}
    doc["replicates"] = 64
    path = tmp_path / "clamped.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["verify-t2", "--config", str(path), "--out", str(out)]) == 0
    text = (out / "report.json").read_text()

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads(text, parse_constant=refuse)
    assert report["all_passed"] is True
    assert report["contraction"]["t2_constant"] == "inf"
    assert report["contraction"]["pass"] is True
    assert text.count('"inf"') == 6
    capsys.readouterr()


def _reference(tmp_path, name, **changes):
    with open(os.path.join(CONFIG_DIR, f"{name}.json")) as fh:
        doc = json.load(fh)
    doc.update(changes)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_console_summary_reports_a_nested_failure(tmp_path, capsys):
    # at 64 replicates and seed 19 the martingale of burgers_reference fails
    # while the contraction gap passes; the block's line prints FAIL
    path = _reference(tmp_path, "burgers_reference", replicates=64,
                      experiment_seed=19)
    out = tmp_path / "out"
    assert main(["verify-t2", "--config", path, "--out", str(out)]) == 1
    contraction = read_report(out)["contraction"]
    assert contraction["pass"] and not contraction["martingale"]["pass"]
    lines = capsys.readouterr().out.splitlines()
    assert "  contraction: FAIL" in lines
    assert lines[-1] == "result: FAIL"


@pytest.mark.parametrize("name, changes, subcommand, infinite", [
    ("burgers_reference", {"lambda_grid": [1.0, 100.0], "replicates": 64},
     "verify-t1", [("bobkov_gotze", "entries", 1, "bound")]),
    ("heat_reference", {"initial_condition": {"type": "mode",
                                              "amplitude": 100.0},
                        "replicates": 32},
     "verify-t1", [("mu_moment",), ("C_T1",), ("exp_moment", "bound"),
                   ("bobkov_gotze", "entries", 0, "bound")]),
    ("heat_reference", {"initial_condition": {"type": "mode",
                                              "amplitude": 100.0}},
     "constants", [("mu_moment",), ("C_T1",), ("gaussian_moment", "b"),
                   ("D",)]),
], ids=["bobkov_gotze_bound", "verify_t1_start", "constants_start"])
def test_overflowing_bounds_exit_through_their_verdicts(
        tmp_path, capsys, name, changes, subcommand, infinite):
    # an exponential beyond the float range is inf, as the T2 constant's is
    path = _reference(tmp_path, name, **changes)
    out = tmp_path / "out"
    code = main([subcommand, "--config", path, "--out", str(out)])
    report = read_report(out)
    assert code == (0 if report["all_passed"] else 1)
    for keys in infinite:
        node = report
        for key in keys:
            node = node[key]
        assert node == "inf", keys
    capsys.readouterr()


@pytest.mark.parametrize("subcommand", ["audit", "constants", "simulate",
                                        "verify-t2", "verify-t1",
                                        "inequalities"])
@pytest.mark.parametrize("name, start", [
    ("heat_reference", {"type": "mode", "amplitude": 1e200}),
    ("ns2d_reference", {"type": "taylor_green", "amplitude": 1e200}),
], ids=["heat", "ns2d"])
def test_overflowing_start_exits_2(tmp_path, capsys, subcommand, name, start):
    path = _reference(tmp_path, name, initial_condition=start)
    code = main([subcommand, "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert ("initial_condition.amplitude: the squared H-norm of the start "
            "overflows") in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["abc", "0", "-3", "1.5", ""])
def test_bad_worker_count_exits_2(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setenv("TCI_SPDE_WORKERS", workers)
    out = tmp_path / "o"
    code = main(["verify-t1", "--config", write_config(tmp_path),
                 "--out", str(out)])
    assert code == 2
    assert "TCI_SPDE_WORKERS must be a positive integer" \
        in capsys.readouterr().err
    assert not out.exists()


def _listed_problems(tmp_path, capsys, doc):
    """The problems parse_config lists for ``doc``, after checking that the
    CLI exits 2 on it and prints each of them."""
    with pytest.raises(SchemaError) as err:
        parse_config(copy.deepcopy(doc))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code = main(["constants", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    printed = capsys.readouterr().err
    assert all(problem in printed for problem in err.value.problems)
    return err.value.problems


@pytest.mark.parametrize("doc, problems", [
    ({"noise": {"c_b": "x", "gains": 3, "bogus": 1}},
     ["noise.c_b: expected float", "noise.gains: expected str or list",
      "noise.bogus: unknown key"]),
    ({"model": {"kind": "heat", "n_modes": 0}, "noise": {"c_b": "x"}},
     ["model.n_modes: must be positive", "noise.c_b: expected float"]),
    ({"bogus_top": 1, "model": {"kind": "heat"},
      "noise": {"n_w": 3, "gains": [1.0]}},
     ["bogus_top: unknown key", "noise.gains: list length must equal n_w"]),
    *[({"bogus_top": 1, "model": {"kind": "heat"},
        "noise": {"n_w": 2, "gains": gains, "c_b": "x"}},
       ["bogus_top: unknown key", "noise.c_b: expected float",
        "noise.gains: must be a list of finite numbers"])
      for gains in (["x", 1], [True, 0.5], [None, 1])],
], ids=["noise_without_model", "bad_model_and_noise", "bad_top_key_and_noise",
        "string_gain", "bool_gain", "null_gain"])
def test_noise_problems_are_listed_with_the_rest(tmp_path, capsys, doc, problems):
    # the noise section is read whenever it or the model is present, and
    # each builder stops on its own section's problems only; a gains list
    # is read by the rule of the grids: finite numbers, no bools
    assert _listed_problems(tmp_path, capsys, doc) == problems


@pytest.mark.parametrize("grids, problem", [
    ({"r_grid": [-1.0, 0.5]},
     "r_grid: must be a nonempty list of finite numbers >= 0"),
    ({"r_grid": []}, "r_grid: must be a nonempty list of finite numbers >= 0"),
    ({"lambda_grid": []},
     "lambda_grid: must be a nonempty list of finite numbers"),
], ids=["negative_radius", "no_radius", "no_lambda"])
def test_grids_are_refused_before_solving(tmp_path, capsys, grids, problem):
    # a negative tail radius, or an empty grid (a check that cannot fail),
    # exits 2 at parse time and writes nothing
    out = tmp_path / "out"
    assert main(["verify-t1", "--config", write_config(tmp_path, grids),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == f"invalid config: {problem}"
    assert not out.exists()


@pytest.mark.parametrize("model, problems", [
    ({"kind": "heat", "K2_tilde": 2.0}, ["model.K2_tilde: unknown key"]),
    ({"kind": "burgers", "f_tilde": 3.0, "viscosity": 0.01},
     ["model.f_tilde: unknown key", "model.viscosity: unknown key"]),
    ({"kind": "ns2d", "n_modes": 16, "theta": 1.0},
     ["model.n_modes: unknown key", "model.theta: unknown key"]),
], ids=["heat", "burgers", "ns2d"])
def test_model_keys_the_kind_ignores_are_unknown(tmp_path, capsys, model,
                                                 problems):
    # each kind reads only its own keys: heat n_modes, theta, f_tilde;
    # burgers n_modes, K2_tilde; ns2d cutoff, viscosity, K2_tilde
    assert _listed_problems(tmp_path, capsys,
                            {"model": model, "noise": {}}) == problems


@pytest.mark.parametrize("sections, problems", [
    ({"noise": {"gains": "inverse_k", "mode_index": 3}},
     ["noise.mode_index: unknown key"]),
    ({"noise": {"n_w": 2, "gains": [1.0, 0.5], "mode_index": 1}},
     ["noise.mode_index: unknown key"]),
    ({"noise": {"gains": "ones", "mode_index": 0}},
     ["noise.gains: expected 'inverse_k', 'single_mode', or a list",
      "noise.mode_index: must be a positive integer"]),
    ({"noise": {}, "initial_condition": {"type": "zero", "amplitude": 5.0,
                                         "mode_index": 2}},
     ["initial_condition.amplitude: unknown key",
      "initial_condition.mode_index: unknown key"]),
    ({"model": {"kind": "ns2d", "cutoff": 4}, "noise": {},
      "initial_condition": {"type": "taylor_green", "amplitude": 0.5,
                            "mode_index": 1}},
     ["initial_condition.mode_index: unknown key"]),
], ids=["inverse_k", "gain_list", "bad_gains", "zero_start", "taylor_green"])
def test_noise_and_start_keys_that_do_not_apply_are_unknown(tmp_path, capsys,
                                                           sections, problems):
    # noise.mode_index applies to single_mode gains only; the start's
    # amplitude to mode and taylor_green, its mode_index to mode only
    doc = {"model": {"kind": "heat", "n_modes": 8}, **sections}
    assert _listed_problems(tmp_path, capsys, doc) == problems


def test_zero_snapshot_stride_exits_2(tmp_path, capsys):
    doc = {"solver": {"dt": 0.01, "horizon": 0.2, "snapshot_stride": 0}}
    assert _listed_problems(tmp_path, capsys, doc) == [
        "solver.snapshot_stride: must be positive"]


def test_noise_and_start_keys_that_apply_are_read():
    cfg = parse_config({
        "model": {"kind": "heat", "n_modes": 8},
        "noise": {"n_w": 4, "gains": "single_mode", "mode_index": 3},
        "initial_condition": {"type": "mode", "amplitude": 0.5,
                              "mode_index": 2}})
    assert cfg.model.noise.gains.tolist() == [0.0, 0.0, 1.0, 0.0]
    assert cfg.x0.tolist() == [0.0, 0.5] + [0.0] * 6


@pytest.mark.parametrize("probe, problems", [
    ({"amplitude": "x"}, ["functionals[0].amplitude: expected float"]),
    ({"amplitude": 0.0}, ["bogus: unknown key",
                          "functionals[0].amplitude: must be finite and nonzero"]),
    ({"mode_index": 2, "scale": 1.0}, ["functionals[0].scale: unknown key"]),
    ({"mode_index": 9}, ["functionals[0].mode_index: out of range"]),
    ({"amplitude": 1e-200},
     ["functionals[0].amplitude: probe element must be nonzero"]),
], ids=["amplitude_type", "zero_amplitude", "unknown_key", "mode_index",
        "underflowing_amplitude"])
def test_linear_probe_entries_list_their_problems(tmp_path, capsys, probe,
                                                  problems):
    doc = {"model": {"kind": "heat", "n_modes": 8}, "noise": {},
           "functionals": [{"kind": "linear_probe", **probe}]}
    if probe.get("amplitude") == 0.0:
        doc["bogus"] = 1
    assert _listed_problems(tmp_path, capsys, doc) == problems


def test_linear_probe_on_a_failed_model_lists_only_the_model(tmp_path, capsys):
    doc = {"model": {"kind": "wave"}, "noise": {},
           "functionals": [{"kind": "linear_probe"}]}
    assert _listed_problems(tmp_path, capsys, doc) == [
        "model.kind: must be one of heat, burgers, ns2d"]


def test_shift_index_is_checked_against_a_valid_noise(tmp_path, capsys):
    # the check needs the noise section only, not a built model
    doc = {"model": {"kind": "wave"}, "noise": {"n_w": 2},
           "shift": {"mode_index": 5}}
    assert _listed_problems(tmp_path, capsys, doc) == [
        "model.kind: must be one of heat, burgers, ns2d",
        "shift.mode_index: exceeds noise.n_w"]


def test_shift_and_constants_are_built_at_parse_time():
    cfg = parse_config(copy.deepcopy(BASE))
    assert cfg.shift.shape == (cfg.solver.n_steps + 1, 4)
    assert cfg.solver.horizon == 0.2
    assert cfg.shift[:, 0].tolist() == [1.0] * 21
    assert not cfg.shift[:, 1:].any()
    assert cfg.constants == {
        "c": 0.5, "lambda0": None, "mu_moment": None,
        "C1": 2.0, "horizon": 0.2, "K2": 0.0, "C_B": 1.0,
        "theta": cfg.model.constants.theta, "eta": ETA_1D, "K3": 0.0,
        "f_tilde_integral": 1.0 * 0.2, "x0_h_norm_sq": 0.0}
    bare = parse_config({"constants": {"horizon": 2.0, "K2": 0.5}})
    assert bare.shift is None
    assert bare.constants == {
        "c": 0.5, "lambda0": None, "mu_moment": None,
        "C1": 2.0, "horizon": 2.0, "K2": 0.5, "C_B": None, "theta": None,
        "eta": None, "K3": 0.0, "f_tilde_integral": 0.0, "x0_h_norm_sq": 0.0}


def _perfbench_configs():
    """The configs perfbench/workloads.py generates, from a subprocess: its
    ``oracles`` module would shadow tests/oracles.py in this process."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    script = ("import json, sys; sys.path.insert(0, 'perfbench'); "
              "from workloads import WORKLOADS; "
              "print(json.dumps({f'{w.name}/{n}': d for w in WORKLOADS.values() "
              "for n, d in w.make_configs('.', 0).items()}))")
    proc = subprocess.run([sys.executable, "-c", script], cwd=root,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_shipped_and_benchmark_configs_parse_cleanly():
    docs = {}
    for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))):
        with open(path) as fh:
            docs[os.path.basename(path)] = json.load(fh)
    assert len(docs) == 4
    docs.update(_perfbench_configs())
    assert len(docs) > 4
    for name, doc in docs.items():
        try:
            parse_config(doc)
        except SchemaError as exc:
            pytest.fail(f"{name}: {exc}")


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
