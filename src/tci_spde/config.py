"""Experiment configuration: one JSON document resolved into live objects.

Validation is whole-document: every offending field is collected and
reported in a single schema error instead of failing at the first one.
Reports embed the resolved document and its canonical hash so every
number in a report is traceable to an exact configuration.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .concentration import (FunctionalSpec, l2_v_path_functional,
                            linear_probe_functional, sup_h_functional,
                            terminal_h_functional)
from .errors import SchemaError
from .girsanov import shift_from_descriptor
from .models import ModelSpec, burgers_model, heat_model, ns2d_model, taylor_green_field
from .noise import NoiseOperator, gains_inverse_k, gains_single_mode
from .solver import SolverConfig

_REQUIRED = object()


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


class _Reader:
    """Typed getters over a nested dict, accumulating problems by path.

    The reader remembers every key its ``get`` and ``section`` calls read;
    ``close`` flags the others as unknown, so a section names its keys
    once, where it reads them.
    """

    def __init__(self, raw: dict, problems: list, prefix: str = ""):
        self.raw = raw
        self.problems = problems
        self.prefix = prefix
        self.read = set()

    def _path(self, key):
        return f"{self.prefix}{key}"

    def section(self, key, required=False) -> "_Reader":
        self.read.add(key)
        sub = self.raw.get(key)
        if sub is None:
            if required:
                self.problems.append(f"{self._path(key)}: missing section")
            sub = {}
        elif not isinstance(sub, dict):
            self.problems.append(f"{self._path(key)}: must be an object")
            sub = {}
        return _Reader(sub, self.problems, self._path(key) + ".")

    def get(self, key, kinds, default=_REQUIRED, check=None, describe=""):
        self.read.add(key)
        if key not in self.raw:
            if default is _REQUIRED:
                self.problems.append(f"{self._path(key)}: missing")
                return None
            return default
        val = self.raw[key]
        if kinds is float and isinstance(val, int) and not isinstance(val, bool):
            val = float(val)
        if not isinstance(val, kinds) or isinstance(val, bool) and kinds is not bool:
            names = kinds if isinstance(kinds, tuple) else (kinds,)
            self.problems.append(f"{self._path(key)}: expected "
                                 + " or ".join(k.__name__ for k in names))
            return None
        if isinstance(val, float) and not math.isfinite(val):
            self.problems.append(f"{self._path(key)}: must be finite")
            return None
        if check is not None and not check(val):
            self.problems.append(f"{self._path(key)}: {describe}")
            return None
        return val

    def unread(self) -> list:
        return [f"{self._path(key)}: unknown key" for key in self.raw
                if key not in self.read]

    def close(self):
        """Flag every key that no ``get`` or ``section`` call read."""
        self.problems.extend(self.unread())


_POSITIVE = {"check": lambda v: v > 0, "describe": "must be positive"}
_NONNEGATIVE = {"check": lambda v: v >= 0, "describe": "must be nonnegative"}
_INDEX = {"check": lambda v: v >= 1, "describe": "must be a positive integer"}


def _finite_numbers(items) -> bool:
    return all(isinstance(x, (int, float)) and not isinstance(x, bool)
               and math.isfinite(x) for x in items)


@dataclass
class ExperimentConfig:
    """Resolved experiment pieces plus the raw document they came from;
    ``constants`` is the constants record, the resolved inputs of every
    constant that ``constants``, ``verify-t1`` and ``verify-t2`` report
    (the ``t1`` section's c, lambda0 and mu_moment among them), and
    ``snapshot_stride`` (read from the solver section) thins the rows of
    ``simulate``'s trajectory CSV."""

    raw: dict
    model: ModelSpec | None
    solver: SolverConfig | None
    x0: np.ndarray | None
    shift: np.ndarray | None
    functionals: list
    lambda_grid: list
    r_grid: list
    replicates: int
    experiment_seed: int
    outputs: str
    constants: dict
    moment_p: float = 2.0
    n_fields: int = 1000
    snapshot_stride: int = 1

    @property
    def hash(self) -> str:
        return config_hash(self.raw)


def _build_noise(reader: _Reader):
    mark = len(reader.problems)
    noise = reader.section("noise", required=True)
    n_w = noise.get("n_w", int, default=8, **_INDEX)
    c_b = noise.get("c_b", float, default=1.0, **_POSITIVE)
    gains_kind = noise.get(
        "gains", (str, list), default="inverse_k",
        check=lambda v: isinstance(v, list) or v in ("inverse_k", "single_mode"),
        describe="expected 'inverse_k', 'single_mode', or a list")
    if isinstance(gains_kind, list) and not _finite_numbers(gains_kind):
        noise.problems.append("noise.gains: must be a list of finite numbers")
        gains_kind = None
    # mode_index applies to single_mode gains only (and is still checked
    # when the gains failed their own check)
    if gains_kind in (None, "single_mode"):
        mode_index = noise.get("mode_index", int, default=1, **_INDEX)
    clamp = noise.get("clamp", float, default=None, **_POSITIVE)
    noise.close()
    if len(reader.problems) > mark:
        return None
    if isinstance(gains_kind, list):
        gains = np.asarray(gains_kind, dtype=np.float64)
        if gains.shape != (n_w,):
            reader.problems.append("noise.gains: list length must equal n_w")
            return None
    elif gains_kind == "inverse_k":
        gains = gains_inverse_k(n_w, c_b)
    elif mode_index > n_w:
        reader.problems.append("noise.mode_index: exceeds n_w")
        return None
    else:
        gains = gains_single_mode(n_w, c_b, mode_index)
    try:
        return NoiseOperator(n_w, gains, c_b, clamp=clamp)
    except ValueError as exc:
        reader.problems.append(f"noise: {exc}")
        return None


def _build_model(reader: _Reader):
    """The model and its noise operator.  The noise section is read
    whenever it or a non-empty model section is present; the model section
    reads only its kind's keys."""
    section = reader.section("model")
    if not section.raw:
        return None, _build_noise(reader) if "noise" in reader.raw else None
    mark = len(reader.problems)
    kind = section.get("kind", str, check=lambda v: v in ("heat", "burgers", "ns2d"),
                       describe="must be one of heat, burgers, ns2d")
    if kind == "ns2d":
        size = section.get("cutoff", int, default=8, **_POSITIVE)
        viscosity = section.get("viscosity", float, default=0.1, **_POSITIVE)
    elif kind is not None:
        size = section.get("n_modes", int, default=32, **_POSITIVE)
    if kind == "heat":
        theta = section.get("theta", float, default=None,
                            check=lambda v: 0 < v <= 2,
                            describe="must lie in (0, 2]")
        f_tilde = section.get("f_tilde", float, default=None, **_NONNEGATIVE)
    elif kind is not None:
        k2_tilde = section.get("K2_tilde", float, default=1.0, **_POSITIVE)
    if kind is not None:  # without a kind, no key is known to apply
        section.close()
    noise = _build_noise(reader)
    if noise is None or len(reader.problems) > mark:
        return None, noise
    try:
        if kind == "heat":
            extra = {} if theta is None else {"theta": theta}
            return heat_model(size, noise, f_tilde=f_tilde, **extra), noise
        if kind == "burgers":
            return burgers_model(size, noise, K2_tilde=k2_tilde), noise
        return ns2d_model(size, viscosity, noise, K2_tilde=k2_tilde), noise
    except ValueError as exc:
        reader.problems.append(f"model: {exc}")
        return None, noise


def _build_solver(reader: _Reader):
    """The solver and the stride that thins ``simulate``'s CSV."""
    section = reader.section("solver")
    if not section.raw:
        return None, 1
    dt = section.get("dt", float, **_POSITIVE)
    horizon = section.get("horizon", float, **_POSITIVE)
    stride = section.get("snapshot_stride", int, default=1, **_POSITIVE)
    section.close()
    if dt is None or horizon is None:
        return None, stride
    try:
        return SolverConfig(dt=dt, horizon=horizon), stride
    except ValueError as exc:
        reader.problems.append(f"solver: {exc}")
        return None, stride


def _build_x0(reader: _Reader, model):
    mark = len(reader.problems)
    section = reader.section("initial_condition")
    kind = section.get("type", str, default="zero",
                       check=lambda v: v in ("zero", "mode", "taylor_green"),
                       describe="must be one of zero, mode, taylor_green")
    # amplitude applies to mode and taylor_green starts, mode_index to mode
    # only (both are still checked when the type failed its own check)
    if kind in (None, "mode", "taylor_green"):
        amplitude = section.get("amplitude", float, default=1.0)
    if kind in (None, "mode"):
        mode_index = section.get("mode_index", int, default=1, **_INDEX)
    section.close()
    if model is None or len(reader.problems) > mark:
        return None
    space = model.space
    if model.kind == "ns2d":
        if kind == "taylor_green":
            return taylor_green_field(space.cutoff, amplitude)
        if kind == "mode":
            reader.problems.append(
                "initial_condition.type: 'mode' is one-dimensional; "
                "use taylor_green")
            return None
        return np.zeros((2, 2 * space.cutoff + 1, space.cutoff + 1),
                        dtype=np.complex128)
    if kind == "taylor_green":
        reader.problems.append(
            "initial_condition.type: taylor_green needs the ns2d model")
        return None
    coeffs = np.zeros(space.n_modes)
    if kind == "mode":
        if mode_index > space.n_modes:
            reader.problems.append("initial_condition.mode_index: exceeds n_modes")
            return None
        coeffs[mode_index - 1] = amplitude
    return coeffs


def _build_shift(reader: _Reader, noise, model, solver):
    """The shift's values on the solver's grid; its mode index is checked
    against the noise whenever the noise section is valid."""
    mark = len(reader.problems)
    section = reader.section("shift")
    if reader.raw.get("shift") is None:  # absent or null: no shift
        return None
    desc = {"type": section.get("type", str, default="constant",
                                check=lambda v: v in ("constant", "ramp", "mode"),
                                describe="must be one of constant, ramp, mode"),
            "amplitude": section.get("amplitude", float, default=1.0),
            "mode_index": section.get("mode_index", int, default=1, **_INDEX)}
    section.close()
    if noise is not None and desc["mode_index"] is not None \
            and desc["mode_index"] > noise.n_w:
        reader.problems.append("shift.mode_index: exceeds noise.n_w")
    if model is None or solver is None or len(reader.problems) > mark:
        return None
    return shift_from_descriptor(desc, noise.n_w, solver)


_FUNCTIONALS = {
    "sup_H_norm": sup_h_functional,
    "l2_V_path_norm": l2_v_path_functional,
    "terminal_H_norm": terminal_h_functional,
}


def _build_functionals(reader: _Reader, model):
    items = reader.get("functionals", list,
                       default=["sup_H_norm", "l2_V_path_norm"])
    # a model section that failed its own checks has listed its problems
    model_failed = model is None and bool(reader.raw.get("model"))
    out = []
    for i, item in enumerate(items or ()):
        if isinstance(item, str) and item in _FUNCTIONALS:
            out.append(_FUNCTIONALS[item]())
            continue
        if not isinstance(item, dict):
            reader.problems.append(
                f"functionals[{i}]: unknown functional {item!r}")
            continue
        mark = len(reader.problems)
        entry = _Reader(item, reader.problems, f"functionals[{i}].")
        if entry.get("kind", str, check=lambda v: v == "linear_probe",
                     describe="must be linear_probe") is None:
            continue
        idx = entry.get("mode_index", int, default=1,
                        check=lambda v: v >= 1, describe="out of range")
        amp = entry.get("amplitude", float, default=1.0,
                        check=lambda v: v != 0,
                        describe="must be finite and nonzero")
        entry.close()
        if model is None or model.kind == "ns2d":
            if not model_failed:
                reader.problems.append(
                    f"functionals[{i}]: linear_probe config supports 1-D models")
            continue
        if idx is not None and idx > model.space.n_modes:
            reader.problems.append(f"functionals[{i}].mode_index: out of range")
        if len(reader.problems) > mark:
            continue
        probe = np.zeros(model.space.n_modes)
        probe[idx - 1] = amp
        try:
            out.append(linear_probe_functional(probe, model.space))
        except ValueError as exc:  # an amplitude whose square underflows
            reader.problems.append(f"functionals[{i}].amplitude: {exc}")
    return out


def _grid(reader: _Reader, key, default, low=-math.inf):
    """A nonempty list of finite numbers, each at least ``low``."""
    grid = reader.get(key, list, default=default, check=lambda v: bool(v)
                      and _finite_numbers(v) and min(v) >= low,
                      describe="must be a nonempty list of finite numbers"
                      + ("" if low == -math.inf else f" >= {low:g}"))
    return [float(v) for v in grid or ()]


def _build_constants(reader: _Reader, model, solver, x0) -> dict:
    """The constants record, the one source of every constant a report
    gives: each input is one key, read once with its default.  The ``t1``
    section gives c, lambda0 and mu_moment (None: ``t1_constants``'s
    default); the solver the horizon; the model K2, C_B, theta, eta, K3 and
    f_tilde_integral = f_tilde * horizon (both 0.0 without a model); x0
    its squared H-norm, which must be finite."""
    t1 = reader.section("t1")
    vals = {"c": t1.get("c", float, default=0.5, check=lambda v: 0 < v < 1,
                        describe="must lie in (0, 1)"),
            "lambda0": t1.get("lambda0", float, default=None, **_POSITIVE),
            "mu_moment": t1.get("mu_moment", float, default=None,
                                check=lambda v: v >= 1,
                                describe="must be at least 1")}
    t1.close()
    cons = reader.section("constants")
    vals.update(C1=cons.get("C1", float, default=2.0, **_POSITIVE),
                horizon=cons.get("horizon", float, default=None
                                 if solver is None else solver.horizon))
    defaults = dict.fromkeys(("K2", "C_B", "theta", "eta"))
    defaults["K3"] = f_int = 0.0
    if model is not None:
        c = model.constants
        defaults.update(K2=c.K2, C_B=model.noise.c_b, theta=c.theta,
                        eta=c.eta, K3=c.K3)
        f_int = None if vals["horizon"] is None else c.f_tilde * vals["horizon"]
    for key, default in defaults.items():
        vals[key] = cons.get(key, float, default=default)
    vals["f_tilde_integral"] = cons.get("f_tilde_integral", float,
                                        default=f_int, **_NONNEGATIVE)
    x0_sq = 0.0
    if x0 is not None:
        with np.errstate(over="ignore"):
            x0_sq = float(model.space.sq_norms(x0))
        if not math.isfinite(x0_sq):
            reader.problems.append("initial_condition.amplitude: the squared "
                                   "H-norm of the start overflows")
    vals["x0_h_norm_sq"] = cons.get("x0_h_norm_sq", float, default=x0_sq,
                                    **_NONNEGATIVE)
    cons.close()
    return vals


def parse_config(raw: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a config document; raises one schema error listing every
    offending field."""
    if not isinstance(raw, dict):
        raise SchemaError(["document: must be a JSON object"])
    raw = dict(raw)
    if seed_override is not None:
        raw["experiment_seed"] = int(seed_override)
    problems: list[str] = []
    reader = _Reader(raw, problems)

    model, noise = _build_model(reader)
    solver, stride = _build_solver(reader)
    x0 = _build_x0(reader, model)
    shift = _build_shift(reader, noise, model, solver)
    functionals = _build_functionals(reader, model)
    lambda_grid = _grid(reader, "lambda_grid", [-1.0, -0.5, -0.1, 0.1, 0.5, 1.0])
    r_grid = _grid(reader, "r_grid", [0.5, 1.0, 2.0], low=0.0)
    replicates = reader.get("replicates", int, default=256,
                            check=lambda v: v >= 2,
                            describe="must be at least 2")
    seed = reader.get("experiment_seed", int, default=0, **_NONNEGATIVE)
    outputs = reader.get("outputs", str, default=".")
    moment_p = reader.get("moment_p", float, default=2.0, **_POSITIVE)
    n_fields = reader.get("n_fields", int, default=1000, **_POSITIVE)

    constants = _build_constants(reader, model, solver, x0)
    # the document's own unknown keys are listed first
    problems[:0] = reader.unread()
    if problems:
        raise SchemaError(problems)
    return ExperimentConfig(
        raw=raw, model=model, solver=solver, x0=x0, shift=shift,
        functionals=functionals, lambda_grid=lambda_grid, r_grid=r_grid,
        replicates=replicates, experiment_seed=seed, outputs=outputs,
        constants=constants, moment_p=moment_p, n_fields=n_fields,
        snapshot_stride=stride)


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SchemaError([f"document: invalid JSON ({exc})"]) from exc
    except OSError as exc:
        raise SchemaError([f"document: cannot read {path} ({exc})"]) from exc
    return parse_config(raw, seed_override)
