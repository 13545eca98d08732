"""Micro-benchmarks of the layers: drift kernels, noise tables, field suites.

Run with pytest-benchmark (outside the tier-1 ``testpaths``):

    PYTHONPATH=src python -m pytest -q benchmarks

Each kernel case times one call on the product grid the solver uses, at
the sizes of the reference configs and the ``ns2d-k16`` workload.  The
suite cases time what ``audit`` and ``inequalities`` run on the ns2d
reference config.
"""

import os

import numpy as np
import pytest

from tci_spde import fields as F
from tci_spde import models as M
from tci_spde import noise as N
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


def test_burgers_nonlinearity(benchmark):
    n_modes, rows = 32, 16
    rng = np.random.default_rng(0)
    coeffs = F.random_fields_1d(rows, n_modes, rng)
    out = benchmark(M.burgers_nonlinearity, coeffs,
                    M.burgers_product_grid(n_modes))
    assert out.shape == coeffs.shape


def test_increment_table(benchmark):
    op = N.noise_operator_1d(8, N.gains_inverse_k(8, 1.0), 1.0)
    table = benchmark(N.increment_table, op, 1e-3, 0, 3, 1000)
    assert table.shape == (1000, 8)


def test_norm_inequality_suite_2d(benchmark):
    report = benchmark(lambda: F.norm_inequality_suite_2d(
        1000, 8, N.generator(0, N.derived_replicate(N.LANE_FIELDS, 1))))
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
