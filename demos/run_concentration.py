"""Concentration checks for path functionals of the Burgers equation.

Estimates the exponential V-energy moment against its closed-form bound,
sweeps the Bobkov-Gotze moment criterion and the Gaussian tail bound at
the computed T1 constant, and finishes with the empirical Wasserstein
check on the coupled marginals.
"""

import numpy as np

from tci_spde.concentration import (bobkov_gotze_check, exp_moment_check,
                                    functional_ensemble, gaussian_tail_check,
                                    l2_v_path_functional,
                                    sup_h_functional, t2_chain_check,
                                    w2_sorted_1d)
from tci_spde.constants import t1_constants, t2_constant
from tci_spde.girsanov import coupled_ensemble, shift_from_descriptor
from tci_spde.models import burgers_model
from tci_spde.noise import NoiseOperator, gains_inverse_k
from tci_spde.solver import SolverConfig

REPLICATES = 256

op = NoiseOperator(8, gains_inverse_k(8, 1.0), 1.0)
model = burgers_model(32, op)
cfg = SolverConfig(dt=1e-3, horizon=1.0)
x0 = np.zeros(32)

# The T1 record at c = 0.5: lambda0 defaults to half its admissible bound.
cons = model.constants
t1 = t1_constants(cons.theta, cons.eta, cons.K3, model.noise.c_b, 0.5,
                  cons.f_tilde * cfg.horizon, float(model.space.sq_norms(x0)))
print(f"admissible lambda0 < {t1['ranges']['lambda0_max_lemma']:.4f}; "
      f"using half: {t1['lambda0']:.4f}")

# One ensemble of the path V-norm feeds every T1 check below.
functional = l2_v_path_functional()
values = functional_ensemble(model, cfg, x0, functional, REPLICATES, 0)
moment = t1["gaussian_moment"]
rep = exp_moment_check(values, moment["a"], moment["b"])
print(f"exponential moment: estimate {rep['estimate']:.4f} + 3se "
      f"<= bound {rep['bound']:.4f}  ->  {rep['pass']}")

c_t1 = t1["C_T1"]
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
chain = t2_chain_check(model, sup_h_functional(), coupled, c_t2)
print(f"\nT2 chain on sup_H marginals: W2 = {chain['w2_empirical']:.4f} "
      f"<= {chain['bound']:.4f} -> {chain['pass']}")

print(f"\nW2 oracle: sorted {{0,1}} vs {{0,3}} = "
      f"{w2_sorted_1d([0.0, 1.0], [0.0, 3.0]):.6f} (sqrt(2) = {2**0.5:.6f})")
