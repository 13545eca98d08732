"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steadiness.py [--first-seed 1]

Each set is RUNS runs of ``run.py --trace 0`` per workload of
BENCHMARK.json, at its ``run_seconds``, each run in a child process with
its own seed.  The two sets use disjoint seeds, so the second also shows
that the output checks pass on seeds that were not used while the
benchmark was written.  For each workload and end-to-end metric it prints
each set's median, quartiles and spread (quartile distance over median).
The code is steady when every spread is within the metric's bound, the
second median is within the bound of the first, and the share of failed
operations is the same in both sets.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def one_run(workload, seed, seconds) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]

    # sets[s][workload] -> run outputs; runs interleave the workloads so
    # that a slow spell of the machine touches all of them.
    sets = ({w: [] for w in names}, {w: [] for w in names})
    for s, runs in enumerate(sets):
        for i in range(RUNS):
            seed = args.first_seed + s * RUNS + i
            for w in names:
                out = one_run(w, seed, spec["run_seconds"])
                runs[w].append(out)
                print(f"set {s} seed {seed:>3} {w:<13} correct {out['correct']} "
                      f"failed {out['failed']}/{out['attempted']} " + " ".join(
                          f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()),
                      flush=True)

    ok = True
    print()
    for w in names:
        for m in spec["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            stats = [summarize([r["metrics"][name]["value"] for r in runs[w]])
                     for runs in sets]
            (med0, *_), (med1, *_) = stats
            worse = (med1 - med0 if better == "lower" else med0 - med1) / med0
            steady = all(spread <= bound for *_, spread in stats)
            agree = worse <= bound
            ok = ok and steady and agree
            print(f"{w:<13} {name:<22} " + " | ".join(
                f"set {s}: median {med:.4g} q1 {q1:.4g} q3 {q3:.4g} spread {spread:.3f}"
                for s, (med, q1, q3, spread) in enumerate(stats))
                + f" | bound {bound} spread ok {steady}, second worse by "
                f"{worse:+.3f}, agree {agree}")
        shares = [sum(r["failed"] for r in runs[w])
                  / sum(r["attempted"] for r in runs[w]) for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs[w])
        ok = ok and shares[0] == shares[1] and correct
        print(f"{w:<13} failed share per set {shares} all correct {correct}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
