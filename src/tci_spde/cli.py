"""Command-line entry point: configure, run, and report.

Every subcommand reads one JSON config, writes ``report.json`` into the
output directory (plus CSV plot data where it applies), and exits 0 iff
the report contains no failed verdict.  Reports embed the resolved config
and its hash; rerunning with the same config and seed is byte-identical
up to the single ``timestamp`` key, independent of the worker count.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import sys

import numpy as np

from . import concentration as conc
from . import constants as cst
from .config import ExperimentConfig, load_config
from .errors import (DivergenceError, InfeasibleError, ParameterError,
                     SchemaError)
from .fields import norm_h, norm_inequality_suite_1d, norm_inequality_suite_2d
from .girsanov import contraction_report, coupled_ensemble, shift_entropy
from .models import (audit_hypotheses, burgers_model, ns2d_model,
                     nonlinearity_energy_suite, t1_feasibility)
from .noise import (LANE_FIELDS, derived_replicate, gains_inverse_k,
                    generator, noise_operator_1d, noise_operator_2d)
from .solver import heat_convergence_report, solve, taylor_green_report


def _require(cfg: ExperimentConfig, *names):
    missing = [name for name in names if getattr(cfg, name) is None]
    if missing:
        raise SchemaError([f"{name}: required by this subcommand"
                           for name in missing])


def _suite_pass(suite: dict) -> bool:
    return all(sub["violations"] == 0 for sub in suite.values()
               if isinstance(sub, dict) and "violations" in sub)


def _all_pass(node) -> bool:
    if isinstance(node, dict):
        return all(bool(val) if key == "pass" else _all_pass(val)
                   for key, val in node.items())
    if isinstance(node, (list, tuple)):
        return all(_all_pass(item) for item in node)
    return True


def _field_rng(cfg: ExperimentConfig, index: int = 0):
    return generator(cfg.experiment_seed, derived_replicate(LANE_FIELDS, index))


# ---------------------------------------------------------------------------
# subcommands


def _run_audit(cfg: ExperimentConfig) -> dict:
    _require(cfg, "model")
    model = cfg.model
    report = {
        "hypotheses": audit_hypotheses(model,
                                       experiment_seed=cfg.experiment_seed),
        "t1_feasibility": t1_feasibility(model),
    }
    report["t1_feasibility"]["pass"] = report["t1_feasibility"]["feasible"]
    if model.kind == "ns2d":
        suite = norm_inequality_suite_2d(cfg.n_fields, model.cutoff,
                                         _field_rng(cfg))
    else:
        suite = norm_inequality_suite_1d(cfg.n_fields, model.n_modes,
                                         _field_rng(cfg))
    suite["pass"] = _suite_pass(suite)
    report["norm_inequalities"] = suite
    energy = nonlinearity_energy_suite(model, cfg.n_fields,
                                       cfg.experiment_seed)
    energy["pass"] = energy["violations"] == 0
    report["nonlinearity_energy"] = energy
    return report


def _resolve_constant_inputs(cfg: ExperimentConfig) -> dict:
    """Constants inputs from explicit overrides, else the model blocks."""
    over = cfg.constants_overrides
    model = cfg.model
    vals = {}
    vals["horizon"] = over.get("horizon", over.get("T"))
    if vals["horizon"] is None and cfg.solver is not None:
        vals["horizon"] = cfg.solver.horizon
    vals["K2"] = over.get("K2")
    if vals["K2"] is None and model is not None:
        vals["K2"] = model.constants.K2
    vals["C_B"] = over.get("C_B")
    if vals["C_B"] is None and model is not None:
        vals["C_B"] = model.noise.c_b
    for key in ("theta", "eta", "K3"):
        vals[key] = over.get(key)
        if vals[key] is None and model is not None:
            vals[key] = getattr(model.constants, key)
    vals["f_tilde_integral"] = over.get("f_tilde_integral")
    if vals["f_tilde_integral"] is None and model is not None \
            and vals["horizon"] is not None:
        vals["f_tilde_integral"] = model.f_tilde * vals["horizon"]
    vals["x0_h_norm_sq"] = over.get("x0_h_norm_sq")
    if vals["x0_h_norm_sq"] is None:
        if cfg.x0 is not None:
            raw = np.asarray(getattr(cfg.x0, "coeffs",
                                     getattr(cfg.x0, "spec", cfg.x0)))
            vals["x0_h_norm_sq"] = float(np.sum(np.abs(raw) ** 2))
        else:
            vals["x0_h_norm_sq"] = 0.0
    return vals


def _run_constants(cfg: ExperimentConfig) -> dict:
    vals = _resolve_constant_inputs(cfg)
    missing = [k for k in ("horizon", "K2", "C_B") if vals[k] is None]
    if missing:
        raise SchemaError(
            [f"constants.{k}: not resolvable (give it explicitly or provide "
             "model/solver sections)" for k in missing])
    t2 = cst.t2_constant(vals["horizon"], vals["K2"], vals["C_B"], cfg.C1)
    report = {"C_T2": t2, "warnings": list(t2["warnings"])}

    if vals["theta"] is None or vals["eta"] is None:
        report["warnings"].append(
            "T1 constants skipped: theta/eta not resolvable without a model")
        report.update({"ranges": None, "C_T1": None, "D": None,
                       "gaussian_moment": None})
        return report
    ranges = cst.admissible_ranges(vals["theta"], vals["eta"],
                                   vals["K3"] or 0.0, vals["C_B"], cfg.c)
    lambda0 = cfg.lambda0 if cfg.lambda0 is not None \
        else 0.5 * ranges["lambda0_max_lemma"]
    f_int = vals["f_tilde_integral"] or 0.0
    x0_sq = vals["x0_h_norm_sq"]
    mu_moment = cfg.mu_moment if cfg.mu_moment is not None \
        else math.exp(lambda0 * x0_sq)
    a, b = cst.gaussian_moment_pair(cfg.c, lambda0, vals["theta"], f_int, x0_sq)
    report.update({
        "ranges": ranges,
        "lambda0": float(lambda0),
        "c": float(cfg.c),
        "mu_moment": float(mu_moment),
        "C_T1": cst.t1_constant(lambda0, cfg.c, vals["theta"], f_int,
                                mu_moment),
        "gaussian_moment": {"a": float(a), "b": float(b)},
        "D": cst.ccr_constant(a, b) if a > 0.0 else None,
    })
    return report


def _write_trajectory_csv(path, solver_cfg, traj):
    # The trajectory keeps every snapshot_stride-th state plus the terminal
    # one; the CSV lists the stride grid only.
    n_rows = solver_cfg.n_steps // solver_cfg.snapshot_stride + 1
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "norm_h", "norm_v"])
        for t, h, v in zip(traj.times[:n_rows].tolist(),
                           np.sqrt(traj.h_sq[:n_rows]).tolist(),
                           np.sqrt(traj.v_sq[:n_rows]).tolist()):
            writer.writerow([repr(t), repr(h), repr(v)])


def _run_simulate(cfg: ExperimentConfig, out_dir: str) -> dict:
    _require(cfg, "model", "solver", "x0")
    traj = solve(cfg.model, cfg.solver, cfg.x0, cfg.experiment_seed,
                 replicate=0)
    csv_path = os.path.join(out_dir, "trajectory_0.csv")
    _write_trajectory_csv(csv_path, cfg.solver, traj)
    moments = conc.moment_report(cfg.model, cfg.solver, cfg.x0,
                                 n_replicates=cfg.replicates,
                                 experiment_seed=cfg.experiment_seed,
                                 p=cfg.moment_p)
    return {
        "trajectory": {
            "file": "trajectory_0.csv",
            "n_steps": cfg.solver.n_steps,
            "terminal_h_norm": norm_h(traj.terminal_field),
            "sup_h_norm": traj.sup_h_total,
            "v_energy": traj.v_energy_total,
        },
        "moments": moments,
    }


def _write_coupled_csv(path, ensemble, functional, experiment_seed):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "seed", "functional", "value"])
        for leg in ("shifted", "unshifted"):
            values = functional.values(ensemble[leg])
            for rep, val in enumerate(values):
                writer.writerow([rep, experiment_seed,
                                 f"{functional.kind}[{leg}]",
                                 repr(float(val))])


def _run_verify_t2(cfg: ExperimentConfig, out_dir: str) -> dict:
    _require(cfg, "model", "solver", "x0")
    h = cfg.shift()
    if h is None:
        raise SchemaError(["shift: required by verify-t2"])
    model = cfg.model
    t2 = cst.t2_constant(cfg.solver.horizon, model.constants.K2,
                         model.noise.c_b, cfg.C1)
    functionals = cfg.functionals or [conc.sup_h_functional()]
    # One coupled pass feeds every functional and the contraction report.
    ens = coupled_ensemble(model, cfg.solver, cfg.x0, h, cfg.replicates,
                           cfg.experiment_seed)
    _write_coupled_csv(os.path.join(out_dir, "ensemble.csv"), ens,
                       functionals[0], cfg.experiment_seed)
    chain = [conc.t2_chain_check(model, cfg.solver, cfg.x0, h, functional,
                                 t2=t2, ensemble=ens)
             for functional in functionals]
    contraction = contraction_report(model, cfg.solver, cfg.x0, h, t2=t2,
                                     ensemble=ens)
    return {"shift_entropy": float(shift_entropy(h)),
            "contraction": contraction, "chain": chain}


def _run_verify_t1(cfg: ExperimentConfig, out_dir: str) -> dict:
    _require(cfg, "model", "solver", "x0")
    model = cfg.model
    cons = model.constants
    ranges = cst.admissible_ranges(cons.theta, cons.eta, cons.K3,
                                   model.noise.c_b, cfg.c)
    lambda0 = cfg.lambda0 if cfg.lambda0 is not None \
        else 0.5 * ranges["lambda0_max_lemma"]
    f_int = model.f_tilde * cfg.solver.horizon
    raw = np.asarray(getattr(cfg.x0, "coeffs", getattr(cfg.x0, "spec", cfg.x0)))
    x0_sq = float(np.sum(np.abs(raw) ** 2))
    mu_moment = cfg.mu_moment if cfg.mu_moment is not None \
        else math.exp(lambda0 * x0_sq)
    c_t1 = cst.t1_constant(lambda0, cfg.c, cons.theta, f_int, mu_moment)

    ens = conc.functional_ensemble(model, cfg.solver, cfg.x0,
                                   conc.l2_v_path_functional(),
                                   cfg.replicates, cfg.experiment_seed)
    conc.ensemble_to_csv(ens, os.path.join(out_dir, "ensemble.csv"))
    return {
        "ranges": ranges,
        "lambda0": float(lambda0),
        "c": float(cfg.c),
        "mu_moment": float(mu_moment),
        "C_T1": float(c_t1),
        "exp_moment": conc.exp_moment_check(model, cfg.solver, cfg.x0, cfg.c,
                                            lambda0, ensemble=ens),
        "bobkov_gotze": conc.bobkov_gotze_check(ens, c_t1, cfg.lambda_grid),
        "gaussian_tail": conc.gaussian_tail_check(ens, c_t1, cfg.r_grid),
    }


def _run_inequalities(cfg: ExperimentConfig) -> dict:
    model = cfg.model
    n_modes = model.n_modes if model is not None and model.kind != "ns2d" else 32
    cutoff = model.cutoff if model is not None and model.kind == "ns2d" else 8

    suite_1d = norm_inequality_suite_1d(cfg.n_fields, n_modes, _field_rng(cfg))
    suite_1d["pass"] = _suite_pass(suite_1d)
    suite_2d = norm_inequality_suite_2d(cfg.n_fields, cutoff,
                                        _field_rng(cfg, index=1))
    suite_2d["pass"] = _suite_pass(suite_2d)

    op_1d = noise_operator_1d(4, gains_inverse_k(4, 1.0), 1.0)
    op_2d = noise_operator_2d(4, gains_inverse_k(4, 1.0), 1.0, cutoff)
    if model is not None and model.kind == "burgers":
        burgers = model
    else:
        burgers = burgers_model(n_modes, op_1d)
    if model is not None and model.kind == "ns2d":
        ns = model
    else:
        ns = ns2d_model(cutoff, 0.1, op_2d)
    energy_1d = nonlinearity_energy_suite(burgers, cfg.n_fields,
                                          cfg.experiment_seed)
    energy_1d["pass"] = energy_1d["violations"] == 0
    energy_2d = nonlinearity_energy_suite(ns, cfg.n_fields,
                                          cfg.experiment_seed)
    energy_2d["pass"] = energy_2d["violations"] == 0

    return {
        "fields_1d": suite_1d,
        "fields_2d": suite_2d,
        "nonlinearity_energy_1d": energy_1d,
        "nonlinearity_energy_2d": energy_2d,
        "taylor_green": taylor_green_report(),
        "heat_convergence": heat_convergence_report(),
    }


# ---------------------------------------------------------------------------
# entry point


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def _emit(report: dict, cfg: ExperimentConfig, subcommand: str,
          out_dir: str) -> bool:
    report = {
        "subcommand": subcommand,
        "config": cfg.raw,
        "config_hash": cfg.hash,
        **report,
    }
    ok = _all_pass(report)
    report["all_passed"] = ok
    report["timestamp"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat()
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2, default=_jsonable)
        fh.write("\n")
    print(f"{subcommand}: config {cfg.hash[:12]} -> {path}")
    for key in sorted(report):
        val = report[key]
        if isinstance(val, dict) and "pass" in val:
            print(f"  {key}: {'PASS' if val['pass'] else 'FAIL'}")
        elif isinstance(val, list):
            for i, item in enumerate(val):
                if isinstance(item, dict) and "pass" in item:
                    print(f"  {key}[{i}]: {'PASS' if item['pass'] else 'FAIL'}")
    print("result: " + ("PASS" if ok else "FAIL"))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tci-spde",
        description="Simulate monotone SPDEs and verify their "
                    "transportation-cost inequalities.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, summary in (
            ("audit", "check the structural hypotheses of the model"),
            ("constants", "evaluate the inequality constants"),
            ("simulate", "integrate trajectories and report moments"),
            ("verify-t2", "Girsanov coupling and quadratic-cost checks"),
            ("verify-t1", "exponential moment and Gaussian tail checks"),
            ("inequalities", "norm inequality and solver oracle suites")):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override experiment_seed")
        p.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, seed_override=args.seed)
        out_dir = args.out if args.out is not None else cfg.outputs
        os.makedirs(out_dir, exist_ok=True)
        if args.subcommand == "audit":
            report = _run_audit(cfg)
        elif args.subcommand == "constants":
            report = _run_constants(cfg)
        elif args.subcommand == "simulate":
            report = _run_simulate(cfg, out_dir)
        elif args.subcommand == "verify-t2":
            report = _run_verify_t2(cfg, out_dir)
        elif args.subcommand == "verify-t1":
            report = _run_verify_t1(cfg, out_dir)
        else:
            report = _run_inequalities(cfg)
    except SchemaError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ParameterError, InfeasibleError) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    return 0 if _emit(report, cfg, args.subcommand, out_dir) else 1


if __name__ == "__main__":
    sys.exit(main())
