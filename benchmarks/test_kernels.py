"""Micro-benchmarks of the layers: drift kernels, grid transforms, the
block solver, noise tables, field suites.

Run with pytest-benchmark (outside the tier-1 ``testpaths``):

    PYTHONPATH=src python -m pytest -q benchmarks

Each kernel case times one call on the product grid the solver uses, at
the sizes of the reference configs and the ``ns2d-k16`` workload.  The
``solve_block`` cases time 100 steps of one block, with the increments
drawn beforehand, so they time the stepping loop alone.  The suite cases
time what ``audit`` and ``inequalities`` run on the ns2d reference config.
"""

import os

import numpy as np
import pytest

from tci_spde import fields as F
from tci_spde import models as M
from tci_spde import noise as N
from tci_spde import solver as S
from tci_spde.config import load_config

NS2D_REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                              "configs", "ns2d_reference.json")


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("cutoff", [8, 16, 32])
def test_ns_advection(benchmark, cutoff, rows):
    rng = np.random.default_rng(cutoff)
    spec = F.random_fields_2d(rows, cutoff, rng)
    out = benchmark(M.ns_advection, spec, cutoff, M.ns_product_grid(cutoff))
    assert out.shape == spec.shape


@pytest.mark.parametrize("direction", ["half_to_grid", "grid_to_half"])
def test_grid_transforms(benchmark, direction):
    # the three stacked fields of one ns_advection call on two rows
    cutoff, rows = 16, 2
    n_grid = M.ns_product_grid(cutoff)
    rng = np.random.default_rng(cutoff)
    if direction == "half_to_grid":
        shape = (rows, 3, 2 * cutoff + 1, cutoff + 1)
        half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out = benchmark(F.half_to_grid, half, n_grid)
        assert out.shape == (rows, 3, n_grid, n_grid)
    else:
        grid = rng.standard_normal((rows, 2, n_grid, n_grid))
        out = benchmark(F.grid_to_half, grid, cutoff)
        assert out.shape == (rows, 2, 2 * cutoff + 1, cutoff + 1)


def _block_case(kind, size):
    """Model and initial condition at the reference parameters."""
    if kind == "ns2d":
        op = N.NoiseOperator(8, N.gains_inverse_k(8, 0.01), 0.01)
        return M.ns2d_model(size, 0.1, op), M.taylor_green_field(size, 0.5)
    op = N.NoiseOperator(8, N.gains_inverse_k(8, 1.0), 1.0)
    model = M.heat_model(size, op) if kind == "heat" else M.burgers_model(size, op)
    return model, F.Field1D(F.random_fields_1d(1, size, np.random.default_rng(size))[0])


@pytest.mark.parametrize("kind,size,rows", [
    ("ns2d", 16, 1), ("ns2d", 16, 2), ("ns2d", 16, 8), ("ns2d", 32, 1),
    ("heat", 32, 8), ("burgers", 32, 8)])
def test_solve_block(benchmark, kind, size, rows):
    model, x0 = _block_case(kind, size)
    cfg = S.SolverConfig(dt=1e-3, horizon=0.1)
    inc = S.block_increments(model, cfg, 0, range(rows))
    block = benchmark(S.solve_block, model, cfg, x0, 0, range(rows),
                      increments=inc)
    assert np.all(np.isfinite(block.paths["v_energy_total"]))


def test_burgers_nonlinearity(benchmark):
    n_modes, rows = 32, 16
    rng = np.random.default_rng(0)
    coeffs = F.random_fields_1d(rows, n_modes, rng)
    out = benchmark(M.burgers_nonlinearity, coeffs,
                    M.burgers_product_grid(n_modes))
    assert out.shape == coeffs.shape


def test_increment_table(benchmark):
    op = N.NoiseOperator(8, N.gains_inverse_k(8, 1.0), 1.0)
    table = benchmark(N.increment_table, op, 1e-3, 0, 3, 1000)
    assert table.shape == (1000, 8)


def test_norm_inequality_suite_2d(benchmark):
    report = benchmark(lambda: F.norm_inequality_suite(
        F.TorusSpace(8), 1000, N.generator(0, N.derived_replicate(N.LANE_FIELDS, 1))))
    assert report["parseval"]["violations"] == 0


@pytest.fixture(scope="module")
def ns2d_reference():
    return load_config(NS2D_REFERENCE).model


def test_nonlinearity_energy_suite_ns2d(benchmark, ns2d_reference):
    report = benchmark(M.nonlinearity_energy_suite, ns2d_reference, 1000, 0)
    assert report["violations"] == 0


def test_audit_hypotheses_ns2d(benchmark, ns2d_reference):
    report = benchmark(M.audit_hypotheses, ns2d_reference, 64, 0)
    assert report["pass"]
