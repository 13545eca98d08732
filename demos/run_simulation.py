"""Integrate the three models and check the solver against its oracles.

Semi-implicit Euler: linear part implicit, nonlinearity and noise
explicit.  The heat run has a closed-form decay rate, the Taylor-Green
vortex decays at the exact Stokes rate, and Burgers dissipates H-energy
pathwise when the noise is off.
"""

import numpy as np

from tci_spde.fields import Field1D
from tci_spde.models import (burgers_model, heat_model, ns2d_model,
                             taylor_green_field)
from tci_spde.noise import NoiseOperator, gains_inverse_k, gains_single_mode
from tci_spde.solver import (SolverConfig, heat_convergence_report, solve,
                             taylor_green_report)

op = NoiseOperator(4, gains_single_mode(4, 1.0, 1), 1.0)
heat = heat_model(16, op, f_tilde=0.0)
cfg = SolverConfig(dt=1e-3, horizon=1.0)

x0 = np.zeros(16)
x0[0] = 2.0 ** -0.5  # sin(pi x)
traj = solve(heat, cfg, Field1D(x0), experiment_seed=0, zero_noise=True)
print(f"zero-noise heat: terminal mode-1 coefficient "
      f"{traj.states[-1][0]:.6e}")
print(f"exact e^(-pi^2):                             "
      f"{x0[0] * np.exp(-np.pi**2):.6e}")

traj = solve(heat, cfg, Field1D(x0), experiment_seed=0)
print(f"with noise: sup_t ||X||_H = {traj.sup_h_total:.4f}, "
      f"int ||X||_V^2 dt = {traj.v_energy_total:.4f}")

burgers = burgers_model(16, NoiseOperator(4, gains_inverse_k(4, 1.0), 1.0))
traj = solve(burgers, cfg, Field1D(x0), experiment_seed=0, zero_noise=True)
h_norms = np.sqrt(traj.h_sq[::250]).tolist()
print(f"\nburgers, zero noise: ||X||_H at t = 0, .25, .5, .75, 1 -> "
      + ", ".join(f"{h:.4f}" for h in h_norms))
print("monotone decay?", all(a >= b for a, b in zip(h_norms, h_norms[1:])))

op2 = NoiseOperator(2, gains_inverse_k(2, 1e-4), 1e-4)
ns = ns2d_model(8, 0.05, op2)
tg = taylor_green_field(8)
traj = solve(ns, SolverConfig(dt=1e-3, horizon=0.25), tg,
             experiment_seed=0, zero_noise=True)
amp0 = abs(tg.spec[0, 9, 9])
amp1 = abs(traj.states[-1][0, 9, 9])
print(f"\nTaylor-Green mode decay over T=0.25: measured rate "
      f"{-np.log(amp1 / amp0) / 0.25:.4f}, exact 8 pi^2 nu = "
      f"{8 * np.pi**2 * 0.05:.4f}")

print("\nsolver oracle reports:")
rep = heat_convergence_report(n_modes=16)
print(f"  heat convergence: fitted order {rep['fitted_order']:.3f} "
      f"(errors {['%.2e' % e for e in rep['errors']]})")
rep = taylor_green_report(cutoff=16)
print(f"  taylor-green: projected advection {rep['projected_nonlinearity_linf']:.1e}, "
      f"rate error {rep['relative_error']:.2%}")
