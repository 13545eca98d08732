"""The benchmark's workloads: generated configs, CLI invocations, useful
work and output checks.

Every config is a reference config from ``demos/configs`` with the few
fields changed that each workload in ``WORKLOADS`` lists; the workload seed
reaches the program only as ``experiment_seed``.
"""

from __future__ import annotations

import json
import math
import os

import oracles as orc

CONFIG_DIR = os.path.join("demos", "configs")

# Parameters of the zero-noise oracles run by ``inequalities``.  They are
# the defaults of ``taylor_green_report`` and ``heat_convergence_report``
# and do not appear in the report, so the checks restate them.
TG_DT, TG_HORIZON = 1e-3, 0.5
HEAT_CONV_HORIZON, HEAT_CONV_X0 = 1.0, 1.0 / math.sqrt(2.0)

# Verdicts that are two-sided three-stderr tests of a Monte Carlo mean.
# They fail on a seed-dependent share of seeds by design, so a run reports
# them but does not count them as failed operations.
SEED_DEPENDENT_VERDICTS = ("contraction.martingale",
                           "contraction.entropy_identity")

# Accepted range of the martingale z = (mean - 1) / stderr on ``t2-burgers``
# (R = 64 weights, a^2 T = 1).  From the exact law of the statistic
# (``oracles.lognormal_weight_z``, 2 million draws): z < -8 on 6e-5 of
# seeds and z > 3.5 on none, so a correct program fails it on fewer than
# 1e-4 of seeds.  A symmetric |z| <= 4 would fail on 0.9% of them.
MARTINGALE_Z_RANGE = (-8.0, 3.5)


def n_steps(doc: dict) -> int:
    return round(doc["solver"]["horizon"] / doc["solver"]["dt"])


class Workload:
    """One workload: its configs, its CLI invocations and its oracles."""

    def __init__(self, name, why, edits, invocations, useful_steps, checks):
        self.name = name
        self.why = why
        self.edits = edits              # config name -> (demo file, changes)
        self.invocations = invocations  # [(subcommand, config name)]
        self.useful_steps = useful_steps
        self._checks = checks

    def demo_files(self, root):
        return sorted({os.path.join(root, CONFIG_DIR, src)
                       for src, _ in self.edits.values()})

    def make_configs(self, root, seed: int) -> dict:
        docs = {}
        for name, (src, changes) in self.edits.items():
            with open(os.path.join(root, CONFIG_DIR, src)) as fh:
                doc = json.load(fh)
            for path, value in changes.items():
                node = doc
                *parents, leaf = path.split(".")
                for key in parents:
                    node = node[key]
                node[leaf] = value
            doc["experiment_seed"] = seed
            docs[name] = doc
        return docs

    def checks(self, docs, outs):
        """Oracle checks on one round's outputs; ``outs`` maps a subcommand
        to (exit status, output directory)."""
        results = []
        for sub, (status, out_dir) in outs.items():
            results.append(invocation_check(sub, status, out_dir))
        if all(ok for _, ok, _ in results):
            try:
                results += self._checks(docs,
                                        {s: d for s, (_, d) in outs.items()})
            except (OSError, ValueError, KeyError, IndexError) as exc:
                results.append(("oracles", False, f"unreadable output: {exc!r}"))
        return results


def _report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def invocation_check(sub, status, out_dir):
    """Exit status 0 and every verdict passed, except the seed-dependent
    ones, which a run reports separately (see ``seed_dependent``)."""
    name = f"{sub}.exit_and_verdicts"
    if status not in (0, 1):
        return name, False, f"exit status {status}"
    try:
        report = _report(out_dir)
    except (OSError, ValueError) as exc:
        return name, False, f"no report: {exc}"
    failed = [path for path, ok in orc.verdicts(report)
              if not ok and path not in SEED_DEPENDENT_VERDICTS]
    ok = not failed and (status == 0) == report["all_passed"]
    return name, ok, f"exit {status}, failed verdicts {failed or 'none'}"


def seed_dependent(out_dir) -> list:
    """(path, passed) of the seed-dependent verdicts in a report."""
    report = _report(out_dir)
    return [(path, ok) for path, ok in orc.verdicts(report)
            if path in SEED_DEPENDENT_VERDICTS]


def _simulate_checks(doc, out_dir):
    report = _report(out_dir)
    traj = report["trajectory"]
    cols = orc.read_columns(os.path.join(out_dir, traj["file"]))
    norm_h = [float(x) for x in cols["norm_h"]]
    norm_v = [float(x) for x in cols["norm_v"]]
    out = [
        orc.close("simulate.csv_trapezoid_v_energy",
                  orc.trapezoid_v_energy(cols["time"], norm_v),
                  traj["v_energy"], 1e-9),
        orc.equal("simulate.csv_max_norm_h", max(norm_h), traj["sup_h_norm"]),
    ]
    if doc["model"]["kind"] == "ns2d":
        amp = doc["initial_condition"]["amplitude"]
        out += [
            orc.close("simulate.taylor_green_norm_h", norm_h[0],
                      math.sqrt(amp * amp / 2.0), 1e-12),
            orc.close("simulate.taylor_green_norm_v", norm_v[0],
                      2.0 * math.pi * amp, 1e-12),
        ]
    return out, report


def _heat_ou(doc, dt):
    b = math.sqrt(doc["noise"]["c_b"])  # single_mode gains put C_B on mode 1
    return orc.discrete_ou_v_energy(math.pi ** 2, b, dt,
                                    round(doc["solver"]["horizon"] / dt))


def _moments_heat_checks(docs, outs):
    doc = docs["heat.json"]
    dt = doc["solver"]["dt"]
    out, report = _simulate_checks(doc, outs["simulate"])
    for label, step in (("base", dt), ("refined", dt / 2.0)):
        v = report["moments"][label]["v_energy"]
        out.append(orc.within_stderr(f"simulate.{label}_v_energy_vs_ou",
                                     v["mean"], v["stderr"],
                                     _heat_ou(doc, step)))
    cols = orc.read_columns(os.path.join(outs["verify-t1"], "ensemble.csv"))
    energies = [float(x) ** 2 for x in cols["value"]]
    out.append(orc.within_stderr("verify-t1.ensemble_v_energy_vs_ou",
                                 *orc.mean_stderr(energies), _heat_ou(doc, dt)))
    return out


def _t2_burgers_checks(docs, outs):
    doc = docs["burgers.json"]
    out_dir = outs["verify-t2"]
    report = _report(out_dir)
    amp = doc["shift"]["amplitude"]
    horizon = doc["solver"]["horizon"]
    entropy = 0.5 * amp * amp * horizon
    con = report["contraction"]
    ident = con["entropy_identity"]
    shifted, unshifted = orc.coupled_legs(os.path.join(out_dir, "ensemble.csv"))
    out = [
        orc.equal("verify-t2.shift_entropy", report["shift_entropy"], entropy),
        orc.equal("verify-t2.girsanov_cost", con["girsanov_cost"],
                  amp * amp * horizon),
        orc.within_stderr("verify-t2.log_rn_mean_vs_entropy", ident["mean"],
                          ident["stderr"], entropy),
        orc.z_in_range("verify-t2.martingale_mean_vs_one",
                       con["martingale"]["mean"], con["martingale"]["stderr"],
                       1.0, *MARTINGALE_Z_RANGE),
        orc.close("verify-t2.w2_sorted_from_csv", orc.w2_sorted(shifted, unshifted),
                  report["chain"][0]["w2_empirical"], 1e-12),
    ]
    # K2 = 0 for Burgers, so C_T2 = 4 C_B and the chain bound is L sqrt(2 C H).
    c_t2 = 4.0 * doc["noise"]["c_b"]
    for i, entry in enumerate(report["chain"]):
        out.append(orc.close(f"verify-t2.chain[{i}].bound", entry["bound"],
                             entry["lipschitz_constant"]
                             * math.sqrt(2.0 * c_t2 * entropy), 1e-6))
    return out


def _ns2d_checks(docs, outs):
    return _simulate_checks(docs["ns2d.json"], outs["simulate"])[0]


def _suites_checks(docs, outs):
    audit = _report(outs["audit"])
    ineq = _report(outs["inequalities"])
    cons = _report(outs["constants"])
    tg = ineq["taylor_green"]
    out = [orc.close("inequalities.taylor_green_rate", tg["measured_rate"],
                     orc.semi_implicit_decay_rate(
                         8.0 * math.pi ** 2 * tg["viscosity"], TG_DT, TG_HORIZON),
                     1e-9)]
    hc = ineq["heat_convergence"]
    for dt, err in zip(hc["dts"], hc["errors"]):
        out.append(orc.close(f"inequalities.heat_error[dt={dt:g}]", err,
                             orc.semi_implicit_heat_error(
                                 HEAT_CONV_X0, dt, HEAT_CONV_HORIZON), 1e-9))
    c_b = docs["constants.json"]["constants"]["C_B"]
    out.append(orc.close("constants.C_T2", cons["C_T2"]["value"], 4.0 * c_b, 1e-6))
    for label, suite in (("audit.norm_inequalities", audit["norm_inequalities"]),
                         ("inequalities.fields_1d", ineq["fields_1d"]),
                         ("inequalities.fields_2d", ineq["fields_2d"])):
        out.append(orc.equal(f"{label}.violations", orc.suite_violations(suite), 0))
    return out


def _heat_steps(docs):
    doc = docs["heat.json"]
    m, r = n_steps(doc), doc["replicates"]
    # simulate: trajectory_0 + base pass + refined pass at dt/2;
    # verify-t1: one pass.
    return (m + r * m + r * 2 * m) + r * m


def _ns2d_steps(docs):
    doc = docs["ns2d.json"]
    m, r = n_steps(doc), doc["replicates"]
    return m + r * m + r * 2 * m


def _t2_steps(docs):
    doc = docs["burgers.json"]
    # One coupled ensemble: shifted and unshifted solve per replicate, counted
    # once however many times the program re-solves it.
    return 2 * doc["replicates"] * n_steps(doc)


def _suites_steps(docs):
    heat_dts = (4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4)
    return round(TG_HORIZON / TG_DT) + sum(round(HEAT_CONV_HORIZON / dt)
                                           for dt in heat_dts)


WORKLOADS = {w.name: w for w in (
    Workload(
        "t2-burgers",
        "verify-t2 on Burgers: drift kernel, solver loop and the coupled "
        "ensemble that is solved once per functional",
        {"burgers.json": ("burgers_reference.json", {"replicates": 64})},
        [("verify-t2", "burgers.json")],
        _t2_steps, _t2_burgers_checks),
    Workload(
        "moments-heat",
        "simulate and verify-t1 on heat: no drift kernel, so per-step solver "
        "overhead, noise tables and statistics; checked against exact OU moments",
        {"heat.json": ("heat_reference.json", {"replicates": 128})},
        [("simulate", "heat.json"), ("verify-t1", "heat.json")],
        _heat_steps, _moments_heat_checks),
    Workload(
        "ns2d-k16",
        "simulate on ns2d at cutoff 16: FFT advection kernel and every stored "
        "state of every trajectory (peak memory)",
        {"ns2d.json": ("ns2d_reference.json",
                       {"model.cutoff": 16, "replicates": 2})},
        [("simulate", "ns2d.json")],
        _ns2d_steps, _ns2d_checks),
    Workload(
        "suites",
        "audit, inequalities and constants: norm suites, hypothesis audits, "
        "T2 constant and zero-noise solver oracles, no ensembles",
        {"ns2d.json": ("ns2d_reference.json", {}),
         "constants.json": ("constants_minimal.json", {})},
        [("audit", "ns2d.json"), ("inequalities", "ns2d.json"),
         ("constants", "constants.json")],
        _suites_steps, _suites_checks),
)}
