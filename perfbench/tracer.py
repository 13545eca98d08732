"""Traced CLI invocation and the span arithmetic that reads its output.

Run as a child process in place of ``python3 -m tci_spde.cli``:

    python3 perfbench/tracer.py SPANS.npz <subcommand> --config ... --out ...

It imports ``tci_spde.cli``, wraps every public function of the layer
modules at each binding that names it (``solve`` in ``girsanov``,
``concentration`` and ``cli`` as well as in ``solver``), runs the CLI
in-process, and writes the spans (name, start, end, parent) and the
work counters to SPANS.npz when the invocation ends.  Spans are kept in
flat arrays so that a run with a million kernel calls stays small.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

MODULES = ("config", "noise", "models", "solver", "girsanov", "concentration",
           "constants", "fields", "parallel", "cli")


class Recorder:
    """Spans of one process; children of a span never overlap because the
    traced process runs one thread."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def add(self, name: str, start: float, end: float):
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(start)
        self.end.append(end)

    def wrap(self, name: str, fn, hook=None):
        nid = self._id(name)
        stack, clock = self._stack, time.perf_counter
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def save(self, path: str, counters: dict):
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.intc),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.intc),
                 counters=np.array(json.dumps(counters)))


class Counters:
    """Work and waste counted at the layer boundaries of one invocation."""

    def __init__(self, default_grid_2d):
        self._default_grid_2d = default_grid_2d
        self.solve_keys, self.solve_steps, self.state_bytes = set(), 0, 0
        self.table_keys = set()
        self.burgers_points = 0
        self.ns_points = 0
        self._solve_sig = None

    def hooks(self, originals: dict) -> dict:
        self._solve_sig = inspect.signature(originals["solver.solve"])
        return {"solver.solve": self.on_solve,
                "noise.increment_table": self.on_table,
                "models.burgers_nonlinearity": self.on_burgers,
                "models.ns_advection": self.on_ns}

    def on_solve(self, *args, **kwargs):
        call = self._solve_sig.bind(*args, **kwargs)
        call.apply_defaults()
        a = call.arguments
        cfg, x0 = a["cfg"], a["x0"]
        self.solve_keys.add((a["model"].kind, a["experiment_seed"],
                             a["replicate"], cfg.dt,
                             a["shift_values"] is not None, a["zero_noise"]))
        self.solve_steps += cfg.n_steps
        raw = x0.spec if hasattr(x0, "spec") else x0.coeffs
        self.state_bytes += (cfg.n_steps + 1) * raw.nbytes

    def on_table(self, op, dt, experiment_seed, replicate, n_steps):
        self.table_keys.add((experiment_seed, replicate, n_steps))

    def on_burgers(self, coeffs, n_grid=None):
        self.burgers_points += n_grid if n_grid is not None else 4 * coeffs.shape[0]

    def on_ns(self, spec, cutoff, n_grid=None):
        n = n_grid if n_grid is not None else self._default_grid_2d(cutoff)
        self.ns_points += n * n

    def as_dict(self) -> dict:
        return {
            "solver.solve": {"distinct": len(self.solve_keys),
                             "steps": self.solve_steps,
                             "state_bytes": self.state_bytes},
            "noise.increment_table": {"distinct": len(self.table_keys)},
            "models.burgers_nonlinearity": {"grid_points": self.burgers_points},
            "models.ns_advection": {"grid_points": self.ns_points},
        }


def instrument(rec: Recorder, counters: Counters):
    """Wrap the public functions of MODULES at every binding in tci_spde."""
    mods = [importlib.import_module(f"tci_spde.{m}") for m in MODULES]
    found = {}
    for mod in mods:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                    and not name.startswith("_"):
                found[f"{short}.{name}"] = obj
    hooks = counters.hooks(found)
    wrapped = {id(fn): (fn, rec.wrap(name, fn, hooks.get(name)))
               for name, fn in found.items()}
    for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "tci_spde"]:
        for name, obj in list(vars(mod).items()):
            orig, traced = wrapped.get(id(obj), (None, None))
            if orig is obj:
                setattr(mod, name, traced)


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    t0 = time.perf_counter()
    import tci_spde.cli as cli
    from tci_spde.fields import default_grid_2d
    rec.add("cli.import", t0, time.perf_counter())
    counters = Counters(default_grid_2d)
    instrument(rec, counters)
    try:
        status = cli.main(cli_args)
    except SystemExit as exc:  # argparse errors
        status = exc.code if isinstance(exc.code, int) else 2
    rec.save(spans_path, counters.as_dict())
    return status


# ---------------------------------------------------------------------------
# span arithmetic (used by the benchmark process)


def self_times(start, end, parent) -> tuple[np.ndarray, np.ndarray]:
    """Durations and self times: a span's duration minus the time covered by
    its direct children (which do not overlap in one thread)."""
    start, end = np.asarray(start, float), np.asarray(end, float)
    parent = np.asarray(parent)
    dur = end - start
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur, dur - covered


def summarize(start, end, parent, name_id, names) -> dict:
    """Per span name: inclusive seconds ``s``, ``self_s`` and ``calls``."""
    dur, own = self_times(start, end, parent)
    name_id = np.asarray(name_id)
    n = len(names)
    s = np.bincount(name_id, weights=dur, minlength=n)
    self_s = np.bincount(name_id, weights=own, minlength=n)
    calls = np.bincount(name_id, minlength=n)
    return {name: {"s": float(s[i]), "self_s": float(self_s[i]),
                   "calls": int(calls[i])} for i, name in enumerate(names)}


def load(path: str) -> tuple[dict, dict]:
    """(per-name summary, counters) of one traced invocation."""
    with np.load(path) as z:
        layers = summarize(z["start"], z["end"], z["parent"], z["name_id"],
                           [str(x) for x in z["names"]])
        counters = json.loads(str(z["counters"]))
    return layers, counters


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
