"""Command-line entry point: configure, run, and report.

Every subcommand reads one JSON config, writes ``report.json`` into the
output directory (plus CSV plot data where it applies), and exits 0 iff
the report contains no failed verdict.  Reports embed the resolved config
and its hash; rerunning with the same config and seed is byte-identical
up to the single ``timestamp`` key, independent of the worker count.
Every constant a report gives comes from the config's constants record
(``ExperimentConfig.constants``) through ``constants.t2_constant`` and
``constants.t1_constants``, so ``verify-t1`` and ``verify-t2`` check
against the ``C_T1`` and ``C_T2`` that ``constants`` reports; the two
verify subcommands refuse a record whose horizon is not the simulated
one, and ``verify-t1`` refuses an inadmissible lambda0 before it solves.
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
from .girsanov import contraction_report, coupled_ensemble
from .models import (audit_hypotheses, burgers_model, ns2d_model,
                     nonlinearity_energy_suite, t1_feasibility)
from .noise import (LANE_FIELDS, NoiseOperator, derived_replicate,
                    gains_inverse_k, generator)
from .parallel import worker_count
from .solver import heat_convergence_report, taylor_green_report


def _require(cfg: ExperimentConfig, *names):
    missing = [name for name in names if getattr(cfg, name) is None]
    if missing:
        raise SchemaError([f"{name}: required by this subcommand"
                           for name in missing])


def _require_verifiable(cfg: ExperimentConfig):
    """The model, solver and start of an ensemble, and a constants record
    at the horizon that ensemble is solved to."""
    _require(cfg, "model", "solver", "x0")
    horizon, simulated = cfg.constants["horizon"], cfg.solver.horizon
    if horizon != simulated:
        raise SchemaError([f"constants.horizon: {horizon!r} differs from "
                           f"solver.horizon {simulated!r}, the horizon the "
                           "ensemble is solved to"])


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
    return {
        "hypotheses": audit_hypotheses(model,
                                       experiment_seed=cfg.experiment_seed),
        "t1_feasibility": t1_feasibility(model),
        "norm_inequalities": norm_inequality_suite(model.space, cfg.n_fields,
                                                   _field_rng(cfg)),
        "nonlinearity_energy": nonlinearity_energy_suite(
            model, cfg.n_fields, cfg.experiment_seed),
    }


def _run_constants(cfg: ExperimentConfig) -> dict:
    vals = cfg.constants
    missing = [k for k in ("horizon", "K2", "C_B") if vals[k] is None]
    if missing:
        raise SchemaError(
            [f"constants.{k}: not resolvable (give it explicitly or provide "
             "model/solver sections)" for k in missing])
    t2 = cst.t2_constant(vals["horizon"], vals["K2"], vals["C_B"],
                         vals["C1"])
    report = {"C_T2": t2, "warnings": list(t2["warnings"])}

    if vals["theta"] is None or vals["eta"] is None:
        report["warnings"].append(
            "T1 constants skipped: theta/eta not resolvable without a model")
        report.update({"ranges": None, "C_T1": None, "D": None,
                       "gaussian_moment": None})
        return report
    report.update(cst.t1_constants(**{k: vals[k] for k in cst.T1_INPUTS}))
    return report


def _write_trajectory_csv(path, solver_cfg, stride, norms):
    """The recorded norm path at every ``stride``-th step."""
    times = solver_cfg.dt * np.arange(0, solver_cfg.n_steps + 1, stride)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "norm_h", "norm_v"])
        for t, (h, v) in zip(times.tolist(), np.sqrt(norms[::stride]).tolist()):
            writer.writerow([repr(t), repr(h), repr(v)])


def _run_simulate(cfg: ExperimentConfig, out_dir: str) -> dict:
    _require(cfg, "model", "solver", "x0")
    # Replicate 0's path is recorded as row 0 of the moment pass.
    moments, base = conc.moment_report(cfg.model, cfg.solver, cfg.x0,
                                       n_replicates=cfg.replicates,
                                       experiment_seed=cfg.experiment_seed,
                                       p=cfg.moment_p)
    csv_path = os.path.join(out_dir, "trajectory_0.csv")
    _write_trajectory_csv(csv_path, cfg.solver, cfg.snapshot_stride, base.norms)
    first = base.paths[0]
    return {
        "trajectory": {
            "file": "trajectory_0.csv",
            "n_steps": cfg.solver.n_steps,
            "terminal_h_norm": math.sqrt(base.norms[-1, 0]),
            "sup_h_norm": float(first["sup_h_total"]),
            "v_energy": float(first["v_energy_total"]),
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
    _require_verifiable(cfg)
    if cfg.shift is None:
        raise SchemaError(["shift: required by verify-t2"])
    model = cfg.model
    vals = cfg.constants  # the C_T2 that ``constants`` reports
    c_t2 = cst.t2_constant(vals["horizon"], vals["K2"], vals["C_B"],
                           vals["C1"])["value"]
    functionals = cfg.functionals or [conc.sup_h_functional()]
    # One coupled pass feeds every functional and the contraction report.
    ens = coupled_ensemble(model, cfg.solver, cfg.x0, cfg.shift,
                           cfg.replicates, cfg.experiment_seed)
    first = functionals[0]
    _write_ensemble_csv(
        os.path.join(out_dir, "ensemble.csv"), cfg.experiment_seed,
        [(f"{first.kind}[{leg}]", first.values(ens[leg], model.space))
         for leg in ("shifted", "unshifted")])
    chain = [conc.t2_chain_check(model, functional, ens, c_t2)
             for functional in functionals]
    contraction = contraction_report(model, ens, c_t2)
    return {"shift_entropy": float(ens["shift_entropy"]),
            "contraction": contraction, "chain": chain}


def _run_verify_t1(cfg: ExperimentConfig, out_dir: str) -> dict:
    _require_verifiable(cfg)
    model, vals = cfg.model, cfg.constants
    t1 = cst.t1_constants(**{k: vals[k] for k in cst.T1_INPUTS})
    moment, _ = t1.pop("gaussian_moment"), t1.pop("D")

    functional = conc.l2_v_path_functional()
    values = conc.functional_ensemble(model, cfg.solver, cfg.x0, functional,
                                      cfg.replicates, cfg.experiment_seed)
    _write_ensemble_csv(os.path.join(out_dir, "ensemble.csv"),
                        cfg.experiment_seed, [(functional.kind, values)])
    lip = functional.lipschitz_constant
    return {
        **t1,
        "exp_moment": {
            **conc.exp_moment_check(values, moment["a"], moment["b"]),
            "model": model.kind, "c": t1["c"], "lambda0": t1["lambda0"],
            "lambda0_max_lemma": t1["ranges"]["lambda0_max_lemma"],
            "experiment_seed": cfg.experiment_seed,
            "f_tilde_integral": vals["f_tilde_integral"],
            "x0_h_norm_sq": vals["x0_h_norm_sq"]},
        "bobkov_gotze": conc.bobkov_gotze_check(values, lip, t1["C_T1"],
                                                cfg.lambda_grid),
        "gaussian_tail": conc.gaussian_tail_check(values, lip, t1["C_T1"],
                                                  cfg.r_grid),
    }


def _run_inequalities(cfg: ExperimentConfig) -> dict:
    model = cfg.model
    # the model's own space where it has that type
    kind, space = (None, None) if model is None else (model.kind, model.space)
    line = space if isinstance(space, SineSpace) else SineSpace(32)
    torus = space if isinstance(space, TorusSpace) else TorusSpace(8)

    suite_1d = norm_inequality_suite(line, cfg.n_fields, _field_rng(cfg))
    suite_2d = norm_inequality_suite(torus, cfg.n_fields,
                                     _field_rng(cfg, index=1))

    op = NoiseOperator(4, gains_inverse_k(4, 1.0), 1.0)
    burgers = model if kind == "burgers" else burgers_model(line.n_modes, op)
    ns = model if kind == "ns2d" else ns2d_model(torus.cutoff, 0.1, op)
    energy_1d = nonlinearity_energy_suite(burgers, cfg.n_fields,
                                          cfg.experiment_seed)
    energy_2d = nonlinearity_energy_suite(ns, cfg.n_fields,
                                          cfg.experiment_seed)

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


def _strict_json(obj):
    """``obj`` with NumPy values as Python ones and every non-finite float
    as the string "inf", "-inf" or "nan", so the report is RFC 8259 JSON."""
    if isinstance(obj, dict):
        return {key: _strict_json(val) for key, val in obj.items()}
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_strict_json(item) for item in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


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
        json.dump(_strict_json(report), fh, sort_keys=True, indent=2,
                  allow_nan=False)
        fh.write("\n")
    print(f"{subcommand}: config {cfg.hash[:12]} -> {path}")
    for key, val in sorted(report.items()):  # by the rule of all_passed
        items = enumerate(val) if isinstance(val, list) else [(None, val)]
        for i, item in items:
            if isinstance(item, dict) and "pass" in item:
                label = key if i is None else f"{key}[{i}]"
                print(f"  {label}: {'PASS' if _all_pass(item) else 'FAIL'}")
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
        worker_count()  # a bad worker count is refused before any work
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
