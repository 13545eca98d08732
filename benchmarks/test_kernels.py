"""Micro-benchmarks of the drift kernels, one row set per call.

Run with pytest-benchmark (outside the tier-1 ``testpaths``):

    PYTHONPATH=src python -m pytest -q benchmarks

Each case times one kernel call on the product grid the solver uses, at
the sizes of the reference configs and the ``ns2d-k16`` workload.
"""

import numpy as np
import pytest

from tci_spde import fields as F
from tci_spde import models as M


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("cutoff", [8, 16, 32])
def test_ns_advection(benchmark, cutoff, rows):
    rng = np.random.default_rng(cutoff)
    spec = np.stack([F.random_field_2d(cutoff, rng).spec for _ in range(rows)])
    out = benchmark(M.ns_advection, spec, cutoff, M.ns_product_grid(cutoff))
    assert out.shape == spec.shape


def test_burgers_nonlinearity(benchmark):
    n_modes, rows = 32, 16
    rng = np.random.default_rng(0)
    coeffs = np.stack([F.random_field_1d(n_modes, rng).coeffs
                       for _ in range(rows)])
    out = benchmark(M.burgers_nonlinearity, coeffs,
                    M.burgers_product_grid(n_modes))
    assert out.shape == coeffs.shape
