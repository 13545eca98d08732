"""Benchmark of the tci-spde command line, run as a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round runs the workload's CLI invocations one after another, each as
a child process on configs generated from ``demos/configs`` with the seed
as ``experiment_seed``, and checks every output with ``oracles``.  Rounds
repeat until S seconds have passed.  Round times are calibrated against
a fixed loop run between timed blocks (see ``Speed``).  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates
an untraced round with a traced one (``tracer.py``) and reports the
per-layer metrics and the tracing overhead, the difference of their
calibrated times.  ``--workload all`` runs every workload in turn.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import tracer
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".out")
CHILD_TIMEOUT_S = 170.0
RUN_BUDGET_S = 150.0      # no round starts that would end past this
SETUP_SAMPLES = 5

# One worker and one BLAS/OpenMP thread: the machine has two shared cores
# and results must not depend on what else runs on it.
PINNED = {"TCI_SPDE_WORKERS": "1", "OMP_NUM_THREADS": "1",
          "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "BLIS_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1"}

# Seconds the calibration loop takes on the reference machine (2 cores,
# Python 3.11.7, numpy 2.4.6) when no neighbour slows it down.
CALIBRATION_REF_S = 0.2

SETUP_CODE = ("import sys\n"
              "import tci_spde.cli\n"
              "from tci_spde.config import load_config\n"
              "for path in sys.argv[1:]:\n"
              "    load_config(path)\n")


def calibration_s() -> float:
    """Time of a fixed loop of the program's kind of work: small mat-vecs,
    FFTs and Python scalar arithmetic.  It does not run the program, so a
    change to the program cannot move it; it moves with the machine."""
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((128, 32)) / 16.0
    x = rng.standard_normal(32)
    grid = rng.standard_normal((2, 36, 36))
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(6000):
        x = (x + 1e-3 * (a.T @ (a @ x))) / 1.001
        if i % 4 == 0:
            acc += float(np.fft.ifft2(np.fft.fft2(grid, axes=(1, 2)),
                                      axes=(1, 2)).real[0, 0, 0])
        acc += math.sqrt(float(x @ x))
    return time.perf_counter() - t0


class Speed:
    """The machine's slowdown against the reference, from calibration loops
    run before and after each timed block; a block's seconds are divided
    by the mean of the two loops over CALIBRATION_REF_S."""

    def __init__(self):
        self.last = calibration_s()
        self.slowdowns = []

    def scale(self, seconds: float) -> float:
        now = calibration_s()
        slowdown = (self.last + now) / (2.0 * CALIBRATION_REF_S)
        self.last = now
        self.slowdowns.append(slowdown)
        return seconds / slowdown


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, log_path) -> tuple[int, float, float]:
    """(exit status, wall seconds from start to exit, peak RSS in MB)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Round:
    def __init__(self, wall, raw_wall, peak, checks, outs, layers, counters,
                 output_bytes):
        self.wall, self.raw_wall = wall, raw_wall
        self.peak, self.checks, self.outs = peak, checks, outs
        self.layers, self.counters = layers, counters
        self.output_bytes = output_bytes


def _dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def run_round(work, docs, cfg_paths, traced: bool, speed=None) -> Round:
    """One round; with ``speed`` each invocation's wall time is calibrated."""
    wall = raw = peak = 0.0
    outs, layers, counters, nbytes = {}, [], [], 0
    tag = "traced" if traced else "plain"
    for sub, cfg in work.invocations:
        out_dir = os.path.join(WORK, f"{tag}-{sub}")
        shutil.rmtree(out_dir, ignore_errors=True)
        cli_args = [sub, "--config", cfg_paths[cfg], "--out", out_dir]
        spans = os.path.join(WORK, f"spans-{sub}.npz")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans] + cli_args
        else:
            argv = [sys.executable, "-m", "tci_spde.cli"] + cli_args
        status, w, rss = run_child(argv, out_dir + ".log")
        raw += w
        wall += speed.scale(w) if speed else w
        peak = max(peak, rss)
        outs[sub] = (status, out_dir)
        if os.path.isdir(out_dir):
            nbytes += _dir_bytes(out_dir)
        if traced and os.path.exists(spans):
            summary, count = tracer.load(spans)
            os.remove(spans)
            layers.append((sub, summary))
            counters.append((sub, count))
    return Round(wall, raw, peak, work.checks(docs, outs), outs, layers,
                 counters, nbytes)


def measure_setup(cfg_paths, speed) -> tuple[list[float], list[float]]:
    """(calibrated, measured) set-up seconds after one warm-up sample."""
    argv = [sys.executable, "-c", SETUP_CODE] + sorted(set(cfg_paths.values()))
    log = os.path.join(WORK, "setup.log")
    run_child(argv, log)   # warms the file cache and the bytecode cache
    speed.last = calibration_s()
    calibrated, measured = [], []
    for _ in range(SETUP_SAMPLES):
        status, wall, _ = run_child(argv, log)
        if status != 0:
            raise RuntimeError(f"set-up child exited with status {status}; "
                               f"see {log}")
        calibrated.append(speed.scale(wall))
        measured.append(wall)
    return calibrated, measured


def repeat_rounds(seconds, once):
    """Call ``once`` until ``seconds`` have passed; whole rounds only."""
    t0 = time.perf_counter()
    results = [once()]
    longest = time.perf_counter() - t0
    while True:
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds or elapsed + 1.2 * longest > RUN_BUDGET_S:
            return results
        t1 = time.perf_counter()
        results.append(once())
        longest = max(longest, time.perf_counter() - t1)


def layer_metrics(rnd: Round, names) -> dict:
    """Per-layer values of one traced round, summed over its invocations."""
    total: dict = {}
    for _, summary in rnd.layers:
        for name, vals in summary.items():
            acc = total.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            for key in acc:
                acc[key] += vals[key]
    work: dict = {}
    for _, count in rnd.counters:
        for name, vals in count.items():
            acc = work.setdefault(name, {})
            for key, val in vals.items():
                acc[key] = acc.get(key, 0) + val
    out = {}
    for metric in names:
        if metric == "cli.import_s":
            out[metric] = total.get("cli.import", {}).get("s", 0.0)
        elif metric == "cli.output_bytes":
            out[metric] = rnd.output_bytes
        elif metric.endswith(".useful_ratio"):
            layer = metric.rsplit(".", 1)[0]
            calls = total.get(layer, {}).get("calls", 0)
            out[metric] = work[layer]["distinct"] / calls if calls else 1.0
        elif metric.startswith("trace."):
            continue
        else:
            layer, key = metric.rsplit(".", 1)
            if key in ("s", "self_s", "calls"):
                out[metric] = total.get(layer, {}).get(key, 0)
            else:
                out[metric] = work.get(layer, {}).get(key, 0)
    return out


def per_invocation_ratios(rnd: Round):
    for (sub, summary), (_, count) in zip(rnd.layers, rnd.counters):
        parts = []
        for layer in ("solver.solve", "noise.increment_table"):
            calls = summary.get(layer, {}).get("calls", 0)
            distinct = count[layer]["distinct"]
            ratio = f"{distinct / calls:.4f}" if calls else "n/a"
            parts.append(f"{layer} distinct {distinct} / calls {calls} = {ratio}")
        print(f"  {sub}: " + "; ".join(parts))


def report_checks(rounds):
    attempted = sum(len(r.checks) for r in rounds)
    failed = sum(not ok for r in rounds for _, ok, _ in r.checks)
    for name, ok, detail in rounds[0].checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for r in rounds[1:]:
        for name, ok, detail in r.checks:
            if not ok:
                print(f"  check FAIL {name} (later round): {detail}")
    first = rounds[0]
    for sub, (status, out_dir) in first.outs.items():
        if sub == "verify-t2" and status in (0, 1):
            for path, ok in wl.seed_dependent(out_dir):
                print(f"  not counted: {path} {'PASS' if ok else 'FAIL'}")
    return attempted, failed


def run_workload(work, seed, seconds, trace, spec) -> dict:
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    docs = work.make_configs(ROOT, seed)
    cfg_paths = {}
    for name, doc in docs.items():
        cfg_paths[name] = os.path.join(WORK, name)
        with open(cfg_paths[name], "w") as fh:
            json.dump(doc, fh, indent=1)
    print(f"workload {work.name}, seed {seed}, {seconds} s, trace {trace}")

    if not trace:
        speed = Speed()
        setup, setup_measured = measure_setup(cfg_paths, speed)
        rounds = repeat_rounds(seconds, lambda: run_round(
            work, docs, cfg_paths, False, speed))
        setup_s = statistics.median(setup)
        wall_s = statistics.median(r.wall for r in rounds)
        useful = work.useful_steps(docs)
        values = {"wall_s": wall_s, "setup_s": setup_s,
                  "replicate_steps_per_s": useful / (wall_s - setup_s),
                  "peak_rss_mb": statistics.median(r.peak for r in rounds)}
        metrics = spec["end_to_end"]
        print(f"  {len(rounds)} rounds, {SETUP_SAMPLES} set-up samples, "
              f"{useful} useful replicate-steps per round")
        print(f"  measured: wall {statistics.median(r.raw_wall for r in rounds):.4f}"
              f" s, set-up {statistics.median(setup_measured):.4f} s; slowdown "
              + " ".join(f"{s:.3f}" for s in speed.slowdowns))
        print("  rounds (measured / calibrated s): " + " ".join(
            f"{r.raw_wall:.3f}/{r.wall:.3f}" for r in rounds))
    else:
        speed = Speed()
        pairs = repeat_rounds(seconds, lambda: (
            run_round(work, docs, cfg_paths, False, speed),
            run_round(work, docs, cfg_paths, True, speed)))
        rounds = [r for pair in pairs for r in pair]
        names = [m["name"] for m in spec["per_layer"]]
        per_round = [layer_metrics(t, names) for _, t in pairs]
        values = {m: statistics.median(v[m] for v in per_round)
                  for m in per_round[0]}
        plain = statistics.median(p.wall for p, _ in pairs)
        traced = statistics.median(t.wall for _, t in pairs)
        values["trace.overhead_s"] = traced - plain
        metrics = spec["per_layer"]
        print(f"  {len(pairs)} untraced/traced round pairs; calibrated wall "
              f"{plain:.3f} s untraced, {traced:.3f} s traced")
        print("  per invocation:")
        per_invocation_ratios(pairs[0][1])

    attempted, failed = report_checks(rounds)
    out = {}
    for m in metrics:
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<44} {values[m['name']]:>16.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": out}


def preflight(names) -> str | None:
    """A problem that stops the benchmark before any run, or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "tci_spde", "cli.py")):
        return f"no tci_spde sources under {os.path.join(ROOT, 'src')}"
    for name in names:
        for path in wl.WORKLOADS[name].demo_files(ROOT):
            if not os.path.isfile(path):
                return f"missing reference config {path}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative (it becomes experiment_seed)")
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    problem = preflight(names)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    try:
        results = {n: run_workload(wl.WORKLOADS[n], args.seed, args.seconds,
                                   args.trace, spec) for n in names}
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
