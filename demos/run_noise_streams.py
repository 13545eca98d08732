"""Counter-based noise streams and the truncated Wiener operator.

Shows that replicate streams are independent of execution order, that
increments have the right variance, and that the operator respects its
Hilbert-Schmidt budget.
"""

import numpy as np

from tci_spde.fields import TorusSpace
from tci_spde.noise import (LANE_NOISE, NoiseOperator, derived_replicate,
                            gains_inverse_k, gains_single_mode, generator,
                            hs_norm, increment_table)

SEED = 42
DT = 1e-3

op = NoiseOperator(4, gains_inverse_k(4, 2.5), 2.5)

# drawing replicate 7 first or last gives the same numbers
inc_a = increment_table(op, DT, SEED, replicate=7, n_steps=4)
for rep in (0, 1, 2):
    increment_table(op, DT, SEED, replicate=rep, n_steps=4)
inc_b = increment_table(op, DT, SEED, replicate=7, n_steps=4)
print(f"replicate 7, drawn twice with other draws between: "
      f"identical? {np.array_equal(inc_a, inc_b)}")

table = increment_table(op, DT, SEED, replicate=7, n_steps=10)
print(f"a 10-step table starts with the 4-step one? "
      f"{np.array_equal(table[:4], inc_a)}")

draws = increment_table(op, DT, SEED, replicate=0, n_steps=20000)
print(f"increment variance {draws.var():.2e} (target dt = {DT:.2e})")

# lanes keep field sampling, noise, and refinement streams disjoint
r_noise = derived_replicate(LANE_NOISE, 5)
print(f"derived replicate for noise lane, index 5: {r_noise:#x}")
g = generator(SEED, r_noise)
print(f"first uniform from that stream: {g.random():.6f}")

print(f"\ninverse_k gains: {np.round(op.gains, 6)}")
print(f"sum of squared gains = {np.sum(op.gains**2):.6f} (budget C_B = 2.5)")
print(f"HS norm at any state (additive) = {hs_norm(op, 0.0):.6f} "
      f"= sqrt(C_B) = {2.5**0.5:.6f}")

single = NoiseOperator(4, gains_single_mode(4, 1.0, 1), 1.0)
torus = TorusSpace(4)
state = np.zeros((1, 2, 9, 9), dtype=np.complex128)
torus.add_noise(state, single, np.array([[1.0, 0.0, 0.0, 0.0]]))
print(f"2-D single-mode operator: B e1 is one basis field, non-zero at "
      f"{np.count_nonzero(state)} of {2 * 9 * 9} spectral entries, "
      f"with H-norm {np.linalg.norm(state):.6f} = sqrt(C_B)")
