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
from .fields import SineSpace, TorusSpace, norm_inequality_suite
from .girsanov import contraction_report, coupled_ensemble, shift_entropy
from .models import (audit_hypotheses, burgers_model, ns2d_model,
                     nonlinearity_energy_suite, t1_feasibility)
from .noise import (LANE_FIELDS, NoiseOperator, derived_replicate,
                    gains_inverse_k, generator)
from .solver import heat_convergence_report, taylor_green_report


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


def _x0_sq(cfg: ExperimentConfig) -> float:
    """||x0||_H^2 in the form the solver takes state norms."""
    space = cfg.model.space
    return float(space.sq_norms(space.raw(cfg.x0)))


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
    suite = norm_inequality_suite(model.space, cfg.n_fields, _field_rng(cfg))
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
            vals["x0_h_norm_sq"] = _x0_sq(cfg)
        else:
            vals["x0_h_norm_sq"] = 0.0
    return vals


def _t1_constants(cfg: ExperimentConfig, theta, eta, K3, c_b, f_int, x0_sq,
                  refuse_inadmissible: bool = False) -> dict:
    """The T1 report keys: the admissible ranges, lambda0 (default half of
    lambda0_max_lemma), c, mu_moment (default exp(lambda0 ||x0||_H^2)) and
    C_T1.  With ``refuse_inadmissible``, a lambda0 outside
    (0, lambda0_max_lemma) raises before anything else is computed."""
    ranges = cst.admissible_ranges(theta, eta, K3, c_b, cfg.c)
    lambda0 = cfg.lambda0 if cfg.lambda0 is not None \
        else 0.5 * ranges["lambda0_max_lemma"]
    if refuse_inadmissible:
        conc.check_lambda0(lambda0, ranges["lambda0_max_lemma"])
    mu_moment = cfg.mu_moment if cfg.mu_moment is not None \
        else math.exp(lambda0 * x0_sq)
    return {"ranges": ranges, "lambda0": float(lambda0), "c": float(cfg.c),
            "mu_moment": float(mu_moment),
            "C_T1": cst.t1_constant(lambda0, cfg.c, theta, f_int, mu_moment)}


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
    f_int = vals["f_tilde_integral"] or 0.0
    x0_sq = vals["x0_h_norm_sq"]
    t1 = _t1_constants(cfg, vals["theta"], vals["eta"], vals["K3"] or 0.0,
                       vals["C_B"], f_int, x0_sq)
    a, b = cst.gaussian_moment_pair(cfg.c, t1["lambda0"], vals["theta"],
                                    f_int, x0_sq)
    report.update(t1)
    report.update({
        "gaussian_moment": {"a": float(a), "b": float(b)},
        "D": cst.ccr_constant(a, b) if a > 0.0 else None,
    })
    return report


def _write_trajectory_csv(path, solver_cfg, traj):
    # The trajectory keeps the norms at every snapshot_stride-th step plus
    # the last one; the CSV lists the stride grid only.
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
    # Replicate 0's path is recorded as a row of the moment pass.
    moments, traj = conc.moment_report(cfg.model, cfg.solver, cfg.x0,
                                       n_replicates=cfg.replicates,
                                       experiment_seed=cfg.experiment_seed,
                                       p=cfg.moment_p)
    csv_path = os.path.join(out_dir, "trajectory_0.csv")
    _write_trajectory_csv(csv_path, cfg.solver, traj)
    return {
        "trajectory": {
            "file": "trajectory_0.csv",
            "n_steps": cfg.solver.n_steps,
            "terminal_h_norm": math.sqrt(traj.h_sq[-1]),
            "sup_h_norm": traj.sup_h_total,
            "v_energy": traj.v_energy_total,
        },
        "moments": moments,
    }


def _write_ensemble_csv(path, experiment_seed, columns):
    """``replicate,seed,functional,value`` rows, one per replicate value of
    each (label, values) column in turn."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "seed", "functional", "value"])
        for label, values in columns:
            for rep, val in enumerate(values):
                writer.writerow([rep, experiment_seed, label, repr(float(val))])


def _run_verify_t2(cfg: ExperimentConfig, out_dir: str) -> dict:
    _require(cfg, "model", "solver", "x0")
    h = cfg.shift()
    if h is None:
        raise SchemaError(["shift: required by verify-t2"])
    model = cfg.model
    c_t2 = cst.t2_constant(cfg.solver.horizon, model.constants.K2,
                           model.noise.c_b, cfg.C1)["value"]
    functionals = cfg.functionals or [conc.sup_h_functional()]
    # One coupled pass feeds every functional and the contraction report.
    ens = coupled_ensemble(model, cfg.solver, cfg.x0, h, cfg.replicates,
                           cfg.experiment_seed)
    first = functionals[0]
    _write_ensemble_csv(
        os.path.join(out_dir, "ensemble.csv"), cfg.experiment_seed,
        [(f"{first.kind}[{leg}]", first.values(ens[leg]))
         for leg in ("shifted", "unshifted")])
    chain = [conc.t2_chain_check(model, h, functional, ens, c_t2)
             for functional in functionals]
    contraction = contraction_report(model, h, ens, c_t2)
    return {"shift_entropy": float(shift_entropy(h)),
            "contraction": contraction, "chain": chain}


def _run_verify_t1(cfg: ExperimentConfig, out_dir: str) -> dict:
    _require(cfg, "model", "solver", "x0")
    model = cfg.model
    cons = model.constants
    f_int = model.f_tilde * cfg.solver.horizon
    x0_sq = _x0_sq(cfg)
    # An inadmissible lambda0 is refused before any replicate is solved.
    t1 = _t1_constants(cfg, cons.theta, cons.eta, cons.K3, model.noise.c_b,
                       f_int, x0_sq, refuse_inadmissible=True)
    lambda0, c_t1 = t1["lambda0"], t1["C_T1"]

    functional = conc.l2_v_path_functional()
    values = conc.functional_ensemble(model, cfg.solver, cfg.x0, functional,
                                      cfg.replicates, cfg.experiment_seed)
    _write_ensemble_csv(os.path.join(out_dir, "ensemble.csv"),
                        cfg.experiment_seed, [(functional.kind, values)])
    lip = functional.lipschitz_constant
    return {
        **t1,
        "exp_moment": conc.exp_moment_check(
            model, values, cfg.c, lambda0, t1["ranges"]["lambda0_max_lemma"],
            f_int, x0_sq, cfg.experiment_seed),
        "bobkov_gotze": conc.bobkov_gotze_check(values, lip, c_t1,
                                                cfg.lambda_grid),
        "gaussian_tail": conc.gaussian_tail_check(values, lip, c_t1,
                                                  cfg.r_grid),
    }


def _run_inequalities(cfg: ExperimentConfig) -> dict:
    model = cfg.model
    # the model's own resolution where it has one
    n_modes = model.n_modes if model is not None and model.n_modes else 32
    cutoff = model.cutoff if model is not None and model.cutoff else 8

    suite_1d = norm_inequality_suite(SineSpace(n_modes), cfg.n_fields,
                                     _field_rng(cfg))
    suite_1d["pass"] = _suite_pass(suite_1d)
    suite_2d = norm_inequality_suite(TorusSpace(cutoff), cfg.n_fields,
                                     _field_rng(cfg, index=1))
    suite_2d["pass"] = _suite_pass(suite_2d)

    op = NoiseOperator(4, gains_inverse_k(4, 1.0), 1.0)
    if model is not None and model.kind == "burgers":
        burgers = model
    else:
        burgers = burgers_model(n_modes, op)
    if model is not None and model.kind == "ns2d":
        ns = model
    else:
        ns = ns2d_model(cutoff, 0.1, op)
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
        # A partial report carries the address to rerun the replicate from.
        _emit({"divergence": {"experiment_seed": exc.experiment_seed,
                              "replicate": exc.replicate, "dt": exc.dt,
                              "shifted": exc.shifted, "step": exc.step,
                              "time": exc.time, "pass": False}},
              cfg, args.subcommand, out_dir)
        return 3
    return 0 if _emit(report, cfg, args.subcommand, out_dir) else 1


if __name__ == "__main__":
    sys.exit(main())
