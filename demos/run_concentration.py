"""Concentration checks for path functionals of the Burgers equation.

Estimates the exponential V-energy moment against its closed-form bound,
sweeps the Bobkov-Gotze moment criterion and the Gaussian tail bound at
the computed T1 constant, and finishes with the empirical Wasserstein
checks on the coupled marginals.
"""

import numpy as np

from tci_spde.concentration import (bobkov_gotze_check, exp_moment_check,
                                    functional_ensemble, gaussian_tail_check,
                                    l2_v_path_functional,
                                    sup_h_functional, t2_chain_check,
                                    w2_small_cloud, w2_sorted_1d)
from tci_spde.constants import admissible_ranges, t1_constant, t2_constant
from tci_spde.fields import Field1D
from tci_spde.girsanov import coupled_ensemble, shift_from_descriptor
from tci_spde.models import burgers_model
from tci_spde.noise import NoiseOperator, gains_inverse_k
from tci_spde.solver import SolverConfig

REPLICATES = 256

op = NoiseOperator(8, gains_inverse_k(8, 1.0), 1.0)
model = burgers_model(32, op)
cfg = SolverConfig(dt=1e-3, horizon=1.0)
x0 = Field1D(np.zeros(32))

cons = model.constants
ranges = admissible_ranges(cons.theta, cons.eta, cons.K3, model.noise.c_b, 0.5)
lam0 = 0.5 * ranges["lambda0_max_lemma"]
print(f"admissible lambda0 < {ranges['lambda0_max_lemma']:.4f}; "
      f"using half: {lam0:.4f}")

# One ensemble of the path V-norm feeds every T1 check below.
functional = l2_v_path_functional()
values = functional_ensemble(model, cfg, x0, functional, REPLICATES, 0)
f_int = model.f_tilde * cfg.horizon
rep = exp_moment_check(model, values, 0.5, lam0, ranges["lambda0_max_lemma"],
                       f_int, float(model.space.sq_norms(x0.coeffs)),
                       experiment_seed=0)
print(f"exponential moment: estimate {rep['estimate']:.4f} + 3se "
      f"<= bound {rep['bound']:.4f}  ->  {rep['pass']}")

c_t1 = t1_constant(lam0, 0.5, cons.theta, f_int, 1.0)
lip = functional.lipschitz_constant
print(f"\nBobkov-Gotze at C_T1 = {c_t1:.4f}, F = l2_V_path_norm:")
bg = bobkov_gotze_check(values, lip, c_t1, [-1.0, -0.5, 0.5, 1.0])
for entry in bg["entries"]:
    print(f"  lambda={entry['lambda']:5.2f}: estimate {entry['estimate']:.4f} "
          f"vs bound {entry['bound']:.4f} -> {entry['pass']}")

tails = gaussian_tail_check(values, lip, c_t1, [0.5, 1.0, 2.0])
print("Gaussian tails:")
for entry in tails["entries"]:
    print(f"  r={entry['r']:.1f}: empirical {entry['empirical']:.4f} "
          f"vs bound {entry['bound']:.4f} -> {entry['pass']}")

h = shift_from_descriptor(
    {"type": "constant", "mode_index": 1, "amplitude": 1.0}, 8, cfg)
coupled = coupled_ensemble(model, cfg, x0, h, REPLICATES, 0)
c_t2 = t2_constant(cfg.horizon, cons.K2, model.noise.c_b)["value"]
chain = t2_chain_check(model, h, sup_h_functional(), coupled, c_t2)
print(f"\nT2 chain on sup_H marginals: W2 = {chain['w2_empirical']:.4f} "
      f"<= {chain['bound']:.4f} -> {chain['pass']}")

print(f"\nW2 oracles: sorted {{0,1}} vs {{0,3}} = "
      f"{w2_sorted_1d([0.0, 1.0], [0.0, 3.0]):.6f} (sqrt(2) = {2**0.5:.6f})")
a = np.array([[0.0, 0.0], [1.0, 0.0]])
b = np.array([[1.0, 0.0], [0.0, 1.0]])
print(f"assignment on 2-point clouds = {w2_small_cloud(a, b):.6f}")
