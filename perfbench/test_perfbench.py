"""Tests of the benchmark's own arithmetic; none of them imports tci_spde.

    python3 -m pytest -q perfbench
"""

import json
import math
import os
import time

import numpy as np

import oracles as orc
import tracer
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _ou_paths(lam, b, dt, n_steps, n_paths, rng):
    """Direct simulation of u_{n+1} = (u_n + b dW_n) / (1 + dt lam)."""
    u = np.zeros(n_paths)
    v_prev = np.zeros(n_paths)
    energy = np.zeros(n_paths)
    for _ in range(n_steps):
        u = (u + b * math.sqrt(dt) * rng.standard_normal(n_paths)) / (1.0 + dt * lam)
        v = lam * u * u
        energy += 0.5 * dt * (v_prev + v)
        v_prev = v
    return energy


def test_discrete_ou_matches_direct_simulation():
    lam, b, dt, n = math.pi ** 2, 1.3, 0.005, 200
    energy = _ou_paths(lam, b, dt, n, 20000, np.random.default_rng(7))
    mean, se = orc.mean_stderr(energy)
    assert abs(mean - orc.discrete_ou_v_energy(lam, b, dt, n)) <= 4.0 * se


def test_discrete_ou_matches_variance_recursion():
    lam, b, dt, n = math.pi ** 2, 1.0, 1e-3, 1000
    var, prev, total = 0.0, 0.0, 0.0
    for _ in range(n):
        var = (var + b * b * dt) / (1.0 + dt * lam) ** 2
        total += 0.5 * dt * lam * (prev + var)
        prev = var
    assert math.isclose(orc.discrete_ou_v_energy(lam, b, dt, n), total,
                        rel_tol=1e-12)


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 7]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 7.0]
    parent = [-1, 0, 1, 0]
    dur, own = tracer.self_times(start, end, parent)
    assert dur.tolist() == [10.0, 3.0, 1.0, 2.0]
    assert own.tolist() == [5.0, 2.0, 1.0, 2.0]
    summary = tracer.summarize(start, end, parent, [0, 1, 2, 1],
                               ["root", "leaf", "inner"])
    assert summary["leaf"] == {"s": 5.0, "self_s": 4.0, "calls": 2}
    assert summary["root"] == {"s": 10.0, "self_s": 5.0, "calls": 1}


def test_recorder_nests_wrapped_calls(tmp_path):
    rec = tracer.Recorder()

    def inner():
        time.sleep(0.01)

    traced_inner = rec.wrap("m.inner", inner)

    def outer():
        traced_inner()
        traced_inner()

    rec.wrap("m.outer", outer)()
    path = str(tmp_path / "spans.npz")
    rec.save(path, {"k": 1})
    layers, counters = tracer.load(path)
    assert counters == {"k": 1}
    assert layers["m.inner"]["calls"] == 2
    assert layers["m.outer"]["calls"] == 1
    assert math.isclose(layers["m.outer"]["self_s"],
                        layers["m.outer"]["s"] - layers["m.inner"]["s"])
    assert layers["m.inner"]["s"] >= 0.02


def test_w2_sorted_hand_case():
    assert math.isclose(orc.w2_sorted([1.0, 0.0], [0.0, 3.0]), math.sqrt(2.0))


def test_useful_steps_per_workload():
    expected = {
        "t2-burgers": 2 * 64 * 1000,              # 2 R M
        "moments-heat": 1000 + 3 * 128 * 1000 + 128 * 1000,  # M + RM + 2RM, RM
        "ns2d-k16": 500 + 3 * 2 * 500,            # M + RM + 2RM
        "suites": 500 + 250 + 500 + 1000 + 2000 + 4000,  # TG + heat oracles
    }
    for name, steps in expected.items():
        work = wl.WORKLOADS[name]
        assert work.useful_steps(work.make_configs(ROOT, seed=3)) == steps


def test_seed_reaches_configs_only_as_experiment_seed():
    work = wl.WORKLOADS["suites"]
    a, b = work.make_configs(ROOT, 1), work.make_configs(ROOT, 2)
    for name in a:
        assert a[name].pop("experiment_seed") == 1
        assert b[name].pop("experiment_seed") == 2
        assert a[name] == b[name]


def test_semi_implicit_oracles():
    rate = 8.0 * math.pi ** 2 * 0.05
    assert math.isclose(orc.semi_implicit_decay_rate(rate, 1e-3, 0.5), rate,
                        rel_tol=5e-3)
    # The error is a small difference of two near-equal numbers, so the
    # step-by-step loop agrees to rounding (1e-11 here), not to 1e-12.
    x0, horizon = 1.0 / math.sqrt(2.0), 1.0
    for dt in (4e-3, 2.5e-4):
        x = x0
        for _ in range(round(horizon / dt)):
            x *= 1.0 / (1.0 + math.pi ** 2 * dt)
        want = abs(x - x0 * math.exp(-math.pi ** 2 * horizon))
        assert math.isclose(orc.semi_implicit_heat_error(x0, dt, horizon), want,
                            rel_tol=1e-9)


def test_martingale_range_false_failure_rate():
    doc = wl.WORKLOADS["t2-burgers"].make_configs(ROOT, 1)["burgers.json"]
    variance = doc["shift"]["amplitude"] ** 2 * doc["solver"]["horizon"]
    z = orc.lognormal_weight_z(variance, doc["replicates"], 400000,
                               np.random.default_rng(11))
    lo, hi = wl.MARTINGALE_Z_RANGE
    assert np.mean((z < lo) | (z > hi)) < 2e-4
    assert np.mean(np.abs(z) > 4.0) > 5e-3   # why a symmetric range is not used


def test_invocation_check_skips_only_seed_dependent_verdicts(tmp_path):
    def write(report):
        (tmp_path / "report.json").write_text(json.dumps(report))

    write({"all_passed": False, "contraction": {
        "pass": True, "martingale": {"pass": False}}})
    assert wl.invocation_check("verify-t2", 1, str(tmp_path))[1]
    write({"all_passed": False, "chain": [{"pass": False}]})
    assert not wl.invocation_check("verify-t2", 1, str(tmp_path))[1]
    write({"all_passed": True, "chain": [{"pass": True}]})
    assert wl.invocation_check("verify-t2", 0, str(tmp_path))[1]
    assert not wl.invocation_check("verify-t2", 3, str(tmp_path))[1]
