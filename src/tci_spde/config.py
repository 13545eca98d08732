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
from dataclasses import dataclass, field

import numpy as np

from .concentration import (FunctionalSpec, l2_v_path_functional,
                            linear_probe_functional, sup_h_functional,
                            terminal_h_functional)
from .errors import SchemaError
from .girsanov import ShiftFunction, shift_from_descriptor
from .models import ModelSpec, burgers_model, heat_model, ns2d_model, taylor_green_field
from .noise import NoiseOperator, gains_inverse_k, gains_single_mode
from .solver import SolverConfig

_REQUIRED = object()


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


class _Reader:
    """Typed getters over a nested dict, accumulating problems by path."""

    def __init__(self, raw: dict, problems: list, prefix: str = ""):
        self.raw = raw
        self.problems = problems
        self.prefix = prefix

    def _path(self, key):
        return f"{self.prefix}{key}"

    def section(self, key, required=False) -> "_Reader":
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
        if check is not None and not check(val):
            self.problems.append(f"{self._path(key)}: {describe}")
            return None
        return val

    def unknown_keys(self, allowed):
        for key in self.raw:
            if key not in allowed:
                self.problems.append(f"{self._path(key)}: unknown key")


@dataclass
class ExperimentConfig:
    """Resolved experiment pieces plus the raw document they came from."""

    raw: dict
    model: ModelSpec | None
    solver: SolverConfig | None
    x0: np.ndarray | None
    shift_descriptor: dict | None
    functionals: list
    lambda_grid: list
    r_grid: list
    replicates: int
    experiment_seed: int
    outputs: str
    c: float
    lambda0: float | None
    mu_moment: float | None
    C1: float
    constants_overrides: dict = field(default_factory=dict)
    moment_p: float = 2.0
    n_fields: int = 1000

    @property
    def hash(self) -> str:
        return config_hash(self.raw)

    def shift(self) -> ShiftFunction | None:
        if self.shift_descriptor is None or self.model is None \
                or self.solver is None:
            return None
        return shift_from_descriptor(self.shift_descriptor,
                                     self.model.noise.n_w, self.solver)


def _build_noise(reader: _Reader):
    mark = len(reader.problems)
    noise = reader.section("noise", required=True)
    n_w = noise.get("n_w", int, default=8, check=lambda v: v >= 1,
                    describe="must be a positive integer")
    c_b = noise.get("c_b", float, default=1.0, check=lambda v: v > 0,
                    describe="must be positive")
    gains_kind = noise.get("gains", (str, list), default="inverse_k")
    mode_index = noise.get("mode_index", int, default=1,
                           check=lambda v: v >= 1,
                           describe="must be a positive integer")
    clamp = noise.get("clamp", float, default=None,
                      check=lambda v: v > 0, describe="must be positive")
    noise.unknown_keys({"n_w", "c_b", "gains", "mode_index", "clamp"})
    if len(reader.problems) > mark:
        return None
    if isinstance(gains_kind, list):
        gains = np.asarray(gains_kind, dtype=np.float64)
        if gains.shape != (n_w,):
            reader.problems.append("noise.gains: list length must equal n_w")
            return None
    elif gains_kind == "inverse_k":
        gains = gains_inverse_k(n_w, c_b)
    elif gains_kind == "single_mode":
        if mode_index > n_w:
            reader.problems.append("noise.mode_index: exceeds n_w")
            return None
        gains = gains_single_mode(n_w, c_b, mode_index)
    else:
        reader.problems.append(
            "noise.gains: expected 'inverse_k', 'single_mode', or a list")
        return None
    try:
        return NoiseOperator(n_w, gains, c_b, clamp=clamp)
    except ValueError as exc:
        reader.problems.append(f"noise: {exc}")
        return None


def _build_model(reader: _Reader):
    section = reader.section("model")
    if not section.raw:
        if "noise" in reader.raw:
            _build_noise(reader)  # lists its problems, though no model uses it
        return None
    mark = len(reader.problems)
    kind = section.get("kind", str, check=lambda v: v in ("heat", "burgers", "ns2d"),
                       describe="must be one of heat, burgers, ns2d")
    n_modes = section.get("n_modes", int, default=32,
                          check=lambda v: v >= 1, describe="must be positive")
    cutoff = section.get("cutoff", int, default=8,
                         check=lambda v: v >= 1, describe="must be positive")
    viscosity = section.get("viscosity", float, default=0.1,
                            check=lambda v: v > 0, describe="must be positive")
    theta = section.get("theta", float, default=None,
                        check=lambda v: 0 < v <= 2,
                        describe="must lie in (0, 2]")
    f_tilde = section.get("f_tilde", float, default=None,
                          check=lambda v: v >= 0, describe="must be nonnegative")
    k2_tilde = section.get("K2_tilde", float, default=1.0,
                           check=lambda v: v > 0, describe="must be positive")
    section.unknown_keys({"kind", "n_modes", "cutoff", "viscosity", "theta",
                          "f_tilde", "K2_tilde"})
    noise = _build_noise(reader)
    if noise is None or len(reader.problems) > mark:
        return None
    try:
        if kind == "heat":
            extra = {} if theta is None else {"theta": theta}
            return heat_model(n_modes, noise, f_tilde=f_tilde, **extra)
        if kind == "burgers":
            return burgers_model(n_modes, noise, K2_tilde=k2_tilde)
        return ns2d_model(cutoff, viscosity, noise, K2_tilde=k2_tilde)
    except ValueError as exc:
        reader.problems.append(f"model: {exc}")
        return None


def _build_solver(reader: _Reader):
    section = reader.section("solver")
    if not section.raw:
        return None
    dt = section.get("dt", float, check=lambda v: v > 0,
                     describe="must be positive")
    horizon = section.get("horizon", float, check=lambda v: v > 0,
                          describe="must be positive")
    stride = section.get("snapshot_stride", int, default=1,
                         check=lambda v: v >= 1, describe="must be positive")
    section.unknown_keys({"dt", "horizon", "snapshot_stride"})
    if dt is None or horizon is None:
        return None
    try:
        return SolverConfig(dt=dt, horizon=horizon, snapshot_stride=stride)
    except ValueError as exc:
        reader.problems.append(f"solver: {exc}")
        return None


def _build_x0(reader: _Reader, model):
    mark = len(reader.problems)
    section = reader.section("initial_condition")
    kind = section.get("type", str, default="zero",
                       check=lambda v: v in ("zero", "mode", "taylor_green"),
                       describe="must be one of zero, mode, taylor_green")
    amplitude = section.get("amplitude", float, default=1.0)
    mode_index = section.get("mode_index", int, default=1,
                             check=lambda v: v >= 1,
                             describe="must be a positive integer")
    section.unknown_keys({"type", "amplitude", "mode_index"})
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


_FUNCTIONALS = {
    "sup_H_norm": sup_h_functional,
    "l2_V_path_norm": l2_v_path_functional,
    "terminal_H_norm": terminal_h_functional,
}


def _build_functionals(reader: _Reader, model):
    raw = reader.raw.get("functionals", ["sup_H_norm", "l2_V_path_norm"])
    if not isinstance(raw, list):
        reader.problems.append("functionals: must be a list")
        return []
    out = []
    for i, item in enumerate(raw):
        if isinstance(item, str) and item in _FUNCTIONALS:
            out.append(_FUNCTIONALS[item]())
        elif isinstance(item, dict) and item.get("kind") == "linear_probe":
            idx = item.get("mode_index", 1)
            amp = item.get("amplitude", 1.0)
            if model is None or model.kind == "ns2d":
                reader.problems.append(
                    f"functionals[{i}]: linear_probe config supports 1-D models")
                continue
            if not isinstance(idx, int) or not 1 <= idx <= model.space.n_modes:
                reader.problems.append(
                    f"functionals[{i}].mode_index: out of range")
                continue
            probe = np.zeros(model.space.n_modes)
            probe[idx - 1] = amp
            out.append(linear_probe_functional(probe, model.space))
        else:
            reader.problems.append(
                f"functionals[{i}]: unknown functional {item!r}")
    return out


def _grid(reader: _Reader, key, default):
    raw = reader.raw.get(key, default)
    if not isinstance(raw, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v) for v in raw):
        reader.problems.append(f"{key}: must be a list of finite numbers")
        return default
    return [float(v) for v in raw]


_TOP_KEYS = {"model", "noise", "solver", "initial_condition", "shift",
             "functionals", "lambda_grid", "r_grid", "replicates",
             "experiment_seed", "outputs", "t1", "constants", "moment_p",
             "n_fields"}


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
    reader.unknown_keys(_TOP_KEYS)

    model = _build_model(reader)
    solver = _build_solver(reader)
    x0 = _build_x0(reader, model)

    shift_desc = raw.get("shift")
    if shift_desc is not None:
        shift_reader = reader.section("shift")
        shift_reader.get("type", str, default="constant",
                         check=lambda v: v in ("constant", "ramp", "mode"),
                         describe="must be one of constant, ramp, mode")
        shift_reader.get("amplitude", float, default=1.0)
        idx = shift_reader.get("mode_index", int, default=1,
                               check=lambda v: v >= 1,
                               describe="must be a positive integer")
        shift_reader.unknown_keys({"type", "amplitude", "mode_index"})
        if model is not None and idx is not None and idx > model.noise.n_w:
            problems.append("shift.mode_index: exceeds noise.n_w")

    functionals = _build_functionals(reader, model)
    lambda_grid = _grid(reader, "lambda_grid", [-1.0, -0.5, -0.1, 0.1, 0.5, 1.0])
    r_grid = _grid(reader, "r_grid", [0.5, 1.0, 2.0])
    replicates = reader.get("replicates", int, default=256,
                            check=lambda v: v >= 2,
                            describe="must be at least 2")
    seed = reader.get("experiment_seed", int, default=0,
                      check=lambda v: v >= 0, describe="must be nonnegative")
    outputs = reader.get("outputs", str, default=".")
    moment_p = reader.get("moment_p", float, default=2.0,
                          check=lambda v: v > 0, describe="must be positive")
    n_fields = reader.get("n_fields", int, default=1000,
                          check=lambda v: v >= 1, describe="must be positive")

    t1 = reader.section("t1")
    c = t1.get("c", float, default=0.5, check=lambda v: 0 < v < 1,
               describe="must lie in (0, 1)")
    lambda0 = t1.get("lambda0", float, default=None,
                     check=lambda v: v > 0, describe="must be positive")
    mu_moment = t1.get("mu_moment", float, default=None,
                       check=lambda v: v >= 1, describe="must be at least 1")
    t1.unknown_keys({"c", "lambda0", "mu_moment"})

    cons = reader.section("constants")
    c1 = cons.get("C1", float, default=2.0, check=lambda v: v > 0,
                  describe="must be positive")
    overrides = {}
    for key in ("horizon", "T", "K2", "C_B", "theta", "eta", "K3",
                "f_tilde_integral", "x0_h_norm_sq"):
        if key in ("f_tilde_integral", "x0_h_norm_sq"):
            val = cons.get(key, float, default=None, check=lambda v: v >= 0,
                           describe="must be nonnegative")
        else:
            val = cons.get(key, float, default=None)
        if val is not None:
            overrides[key] = val
    cons.unknown_keys({"C1", "horizon", "T", "K2", "C_B", "theta", "eta",
                       "K3", "f_tilde_integral", "x0_h_norm_sq"})

    if problems:
        raise SchemaError(problems)
    return ExperimentConfig(
        raw=raw, model=model, solver=solver, x0=x0,
        shift_descriptor=shift_desc, functionals=functionals,
        lambda_grid=lambda_grid, r_grid=r_grid,
        replicates=replicates, experiment_seed=seed, outputs=outputs,
        c=c, lambda0=lambda0, mu_moment=mu_moment, C1=c1,
        constants_overrides=overrides, moment_p=moment_p, n_fields=n_fields)


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
