"""Spectral fields and the norm inequalities the estimates lean on.

Builds a 1-D field by hand, checks Parseval, Poincare, and the L4
interpolation bound on it, then sweeps the randomized suites.  The
norms are the space's squared-norm kernel and grid moments on raw
coefficient arrays, one field or a batch on leading axes.
"""

import numpy as np

from tci_spde import (ETA_1D, ETA_2D, SineSpace, TorusSpace,
                      norm_inequality_suite)
from tci_spde.noise import generator

# sin(pi x) has unit L2 norm with the sqrt(2) sine convention
space = SineSpace(8)
v = np.zeros(8)
v[0] = 2.0 ** -0.5
h_sq = float(space.sq_norms(v))
v_sq = float(space.sq_norms(v, space.laplacian_eigenvalues()))
print(f"sin(pi x):  ||v||_H = {h_sq ** 0.5:.6f}   ||v||_V = {v_sq ** 0.5:.6f}")

ratio = v_sq / h_sq
print(f"Poincare ratio ||v||_V^2 / ||v||_H^2 = {ratio:.6f} "
      f"(>= pi^2 = {np.pi**2:.6f}, embedding eta = {ETA_1D:.6f})")

l4_4 = float(space.grid_moments(v)[1])
print(f"L4 interpolation: ||v||_L4^4 = {l4_4:.6f} <= "
      f"4 ||v||_H^2 ||v||_V^2 = {4 * h_sq * v_sq:.6f}")

# a batch of fields: 2 sin(pi x) and 3 sin(pi x) at once
print(f"batched H-norms of 2v and 3v: {np.sqrt(space.sq_norms(np.stack([2 * v, 3 * v])))}")

print("\nrandomized suites (500 fields each):")
for name, suite in (
        ("1-D", norm_inequality_suite(SineSpace(16), 500, generator(1, 0))),
        ("2-D", norm_inequality_suite(TorusSpace(8), 500, generator(1, 1)))):
    for key, sub in suite.items():
        if isinstance(sub, dict) and "violations" in sub:
            print(f"  {name} {key}: {sub['violations']} violations")
    print(f"  {name} suite passes: {suite['pass']}")
print(f"eta constants: 1-D {ETA_1D:.6f}, 2-D {ETA_2D:.6f}")
