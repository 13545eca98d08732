"""Counter-based noise streams and the truncated Wiener operator.

Shows that replicate streams are independent of execution order, that
increments have the right variance, and that the operator respects its
Hilbert-Schmidt budget.
"""

import numpy as np

from tci_spde.fields import TorusSpace
from tci_spde.noise import (LANE_NOISE, SLAB_STEPS, NoiseOperator,
                            derived_replicate, gains_inverse_k,
                            gains_single_mode, generator, hs_norm,
                            increment_slabs)

SEED = 42
DT = 1e-3

op = NoiseOperator(4, gains_inverse_k(4, 2.5), 2.5)


def table(replicates, n_steps):
    """(n_steps, P, n_w) increments of a block of replicates."""
    return np.concatenate(list(increment_slabs(op, DT, SEED, replicates,
                                               n_steps)))


# replicate 7 drawn alone or in a block with others gives the same numbers
inc_a = table([7], 4)[:, 0]
inc_b = table([0, 1, 2, 7], 4)[:, 3]
print(f"replicate 7, drawn alone and in a block of four: "
      f"identical? {np.array_equal(inc_a, inc_b)}")

longer = table([7], 2 * SLAB_STEPS)[:, 0]
print(f"a {2 * SLAB_STEPS}-step table, drawn in two slabs, starts with the "
      f"4-step one? {np.array_equal(longer[:4], inc_a)}")

draws = table([0], 20000)
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
# a torus state stores the k2 >= 0 half of its spectrum, (2, 2K+1, K+1)
state = np.zeros((1, 2, 9, 5), dtype=np.complex128)
torus.add_noise(state, single, np.array([[1.0, 0.0, 0.0, 0.0]]))
print(f"2-D single-mode operator: B e1 is one basis field, non-zero at "
      f"{np.count_nonzero(state)} of {2 * 9 * 5} stored spectral entries, "
      f"with H-norm {np.sqrt(torus.sq_norms(state)[0]):.6f} = sqrt(C_B)")
