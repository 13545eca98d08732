"""Replicate fan-out with a worker count taken from the environment.

``TCI_SPDE_WORKERS`` selects the process count (default 1).  Results are
returned in submission order and every replicate derives its randomness
from its own counter-based stream; the ensemble pass maps over replicate
blocks of a fixed size (``solver.ensemble``), so the outputs are bitwise
identical for any worker count.
"""

from __future__ import annotations

import multiprocessing
import os

WORKERS_ENV = "TCI_SPDE_WORKERS"


def worker_count() -> int:
    try:
        n = int(os.environ.get(WORKERS_ENV, "1"))
    except ValueError:
        return 1
    return max(1, n)


def parallel_map(fn, items):
    items = list(items)
    n = worker_count()
    if n <= 1 or len(items) < 2 * n:
        return [fn(x) for x in items]
    chunk = max(1, len(items) // (4 * n))
    with multiprocessing.Pool(n) as pool:
        return pool.map(fn, items, chunksize=chunk)
