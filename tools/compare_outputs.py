"""Compare the CLI outputs of two source trees, byte for byte.

Runs every subcommand on every config with each tree's ``src`` on the
Python path, then compares, per (subcommand, config) pair:

- the exit statuses;
- ``report.json`` with its ``timestamp`` key removed;
- every CSV the run wrote, byte for byte.

It prints one line per pair, then, when the two reports differ, one
indented line per differing key path with its old -> new values, and
exits 1 if any pair differs.  Usage:

    python tools/compare_outputs.py OLD_TREE NEW_TREE
    python tools/compare_outputs.py OLD NEW --config extra.json --workers 1 3

The configs default to ``demos/configs/*.json`` of NEW_TREE, then its
``tools/configs/*.json``, which reach what no reference config does (a
ramp shift, a ``mode`` start, the ``terminal_H_norm`` and
``linear_probe`` functionals, a partial replicate block, a clamped
noise, ``constants`` overrides, the ``t1`` inputs ``lambda0`` and
``mu_moment`` given, verdicts on infinite estimates, stderrs and
bounds); ``--config`` adds more (repeatable),
and ``--only`` drops the defaults.  ``--workers A B`` runs OLD with A
worker processes and NEW with B (default 1 and 1); both run with one
BLAS thread.  Run outputs go to a temporary directory.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile

SUBCOMMANDS = ("audit", "constants", "simulate", "verify-t2", "verify-t1",
               "inequalities")


def run(tree: str, subcommand: str, config: str, out: str, workers: int) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.abspath(tree), "src")
    env["TCI_SPDE_WORKERS"] = str(workers)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "tci_spde.cli", subcommand, "--config",
         os.path.abspath(config), "--out", out],
        env=env, cwd=out, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode


def outputs(out: str) -> dict:
    """File name -> comparable content: the report without its timestamp,
    the raw bytes of every CSV."""
    found = {}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        if name == "report.json":
            with open(path) as fh:
                report = json.load(fh)
            report.pop("timestamp", None)
            found[name] = report
        elif name.endswith(".csv"):
            with open(path, "rb") as fh:
                found[name] = fh.read()
    return found


def compare(old: tuple, new: tuple) -> list[str]:
    """Differences between (status, outputs) pairs, as short phrases."""
    (old_status, old_files), (new_status, new_files) = old, new
    diffs = []
    if old_status != new_status:
        diffs.append(f"exit {old_status} != {new_status}")
    for name in sorted(set(old_files) | set(new_files)):
        if name not in old_files or name not in new_files:
            diffs.append(f"{name} only in {'new' if name in new_files else 'old'}")
        elif old_files[name] != new_files[name]:
            diffs.append(f"{name} differs")
    return diffs


def key_diffs(old, new, path: str = "report") -> list[str]:
    """``path: old -> new`` for every leaf at which two JSON values differ;
    a key missing on one side reads <absent>."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [d for key in sorted(set(old) | set(new))
                for d in key_diffs(old.get(key, "<absent>"),
                                   new.get(key, "<absent>"), f"{path}.{key}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [d for i, (a, b) in enumerate(zip(old, new))
                for d in key_diffs(a, b, f"{path}[{i}]")]
    return [] if old == new else [f"{path}: {old!r} -> {new!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="source tree of the reference outputs")
    parser.add_argument("new", help="source tree to compare against it")
    parser.add_argument("--config", action="append", default=[],
                        help="extra config to run (repeatable)")
    parser.add_argument("--only", action="store_true",
                        help="run only the --config files, no default ones")
    parser.add_argument("--workers", type=int, nargs=2, default=(1, 1),
                        metavar=("OLD", "NEW"),
                        help="worker processes for each tree (default 1 1)")
    args = parser.parse_args(argv)

    configs = [] if args.only else [
        path for folder in ("demos", "tools") for path in sorted(
            glob.glob(os.path.join(args.new, folder, "configs", "*.json")))]
    configs += args.config

    n_diff = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as work:
        for config in configs:
            stem = os.path.splitext(os.path.basename(config))[0]
            for sub in SUBCOMMANDS:
                results = []
                for side, tree, workers in (("old", args.old, args.workers[0]),
                                            ("new", args.new, args.workers[1])):
                    out = os.path.join(work, f"{stem}.{sub}.{side}")
                    os.makedirs(out)
                    results.append((run(tree, sub, config, out, workers),
                                    outputs(out)))
                diffs = compare(*results)
                n_diff += bool(diffs)
                files = ", ".join(results[1][1]) or "no files"
                line = (f"{'DIFF' if diffs else 'same'}  {sub:<12} {stem:<28} "
                        f"exit {results[1][0]}  [{files}]")
                print(line + "".join(f"; {d}" for d in diffs), flush=True)
                reports = [outs.get("report.json") for _, outs in results]
                if None not in reports:
                    for d in key_diffs(*reports):
                        print(f"    {d}", flush=True)
    print(f"{n_diff} of {len(configs) * len(SUBCOMMANDS)} pairs differ")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
