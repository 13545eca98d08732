"""Girsanov coupling on the additive heat equation.

Runs the shifted/unshifted pair, checks the martingale normalization
E[M_T] = 1 and the entropy identity E_Q[log M_T] = 0.5 int ||h||^2 dt,
then compares the squared coupling gap against the transport bound.
"""

import numpy as np

from tci_spde._stats import mean_and_stderr
from tci_spde.constants import t2_constant
from tci_spde.fields import Field1D
from tci_spde.girsanov import (contraction_report, coupled_ensemble,
                               shift_from_descriptor, shift_entropy)
from tci_spde.models import heat_model
from tci_spde.noise import NoiseOperator, gains_single_mode
from tci_spde.solver import SolverConfig

REPLICATES = 512

op = NoiseOperator(8, gains_single_mode(8, 1.0, 1), 1.0)
model = heat_model(32, op)
cfg = SolverConfig(dt=1e-3, horizon=1.0)
x0 = Field1D(np.zeros(32))
h = shift_from_descriptor(
    {"type": "constant", "mode_index": 1, "amplitude": 1.0}, 8, cfg)
print(f"shift entropy H(Q|P) = {shift_entropy(h):.4f} "
      f"(constant unit shift over T=1 gives 0.5)")

ens = coupled_ensemble(model, cfg, x0, h, REPLICATES, 0)
print(f"replicate 0: sup gap^2 = {ens['sup_gap_sq'][0]:.6f}, "
      f"log RN derivative = {ens['log_rn'][0]:.4f}")

mart, mart_se = mean_and_stderr(np.exp(ens["log_rn_base_view"]))
ent, ent_se = mean_and_stderr(ens["log_rn"])
print(f"\n{REPLICATES} replicates:")
print(f"  E[M_T]        = {mart:.4f} +- {mart_se:.4f}  (expected 1)")
print(f"  E_Q[log M_T]  = {ent:.4f} +- {ent_se:.4f}  (expected 0.5)")

c_t2 = t2_constant(cfg.horizon, model.constants.K2, model.noise.c_b)["value"]
report = contraction_report(model, h, ens, c_t2)
gap = report["sup_gap_sq"]
print(f"  E[sup gap^2]  = {gap['mean']:.6f} vs bound "
      f"C_T2 * 2H = {report['bound']:.4f}")
print(f"  verdicts: martingale {report['martingale']['pass']}, "
      f"entropy {report['entropy_identity']['pass']}, "
      f"contraction {report['pass']}")

# the continuum gap for this configuration is ((1 - e^{-pi^2}) / pi^2)^2
exact = ((1.0 - np.exp(-np.pi**2)) / np.pi**2) ** 2
print(f"\nclosed-form gap oracle: {exact:.8f} "
      f"(Monte Carlo mean is off by "
      f"{abs(gap['mean'] - exact) / exact:.2%} at dt=1e-3)")
