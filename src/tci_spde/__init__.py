"""Numerical laboratory for transportation-cost inequalities of monotone SPDEs.

Simulates the stochastic heat, Burgers and 2-D Navier-Stokes equations
with spectral Galerkin truncations, couples shifted and unshifted
dynamics through Girsanov shifts, and checks every desk-scale
consequence of the T1/T2 inequalities: exponential moments, Gaussian
tails, contraction bounds, and the closed-form constants behind them.
"""

from .concentration import (FunctionalSpec, bobkov_gotze_check,
                            exp_moment_check, exp_moment_empirical,
                            functional_ensemble, gaussian_tail_check,
                            l2_v_path_functional, linear_probe_functional,
                            moment_report, sup_h_functional, t2_chain_check,
                            terminal_h_functional, w2_sorted_1d)
from .config import ExperimentConfig, config_hash, load_config, parse_config
from .constants import (admissible_ranges, ccr_constant, gaussian_moment_pair,
                        t1_constant, t1_constants, t2_constant, t2_objective)
from .errors import (DivergenceError, InfeasibleError, InvalidFieldError,
                     ParameterError, ResolutionError, SchemaError)
from .fields import (L4_INTERPOLATION_1D, L4_INTERPOLATION_2D, POINCARE_1D,
                     POINCARE_2D, SineSpace, TorusSpace, norm_inequality_suite)
from .girsanov import (contraction_report, coupled_ensemble, shift_entropy,
                       shift_from_descriptor)
from .models import (ETA_1D, ETA_2D, AssumptionConstants, ModelSpec,
                     audit_hypotheses, burgers_model, burgers_nonlinearity,
                     heat_model, linear_eigenvalues, nonlinearity_energy_suite,
                     ns2d_model, ns_advection, t1_feasibility,
                     taylor_green_field)
from .noise import (NoiseOperator, derived_replicate, gains_inverse_k,
                    gains_single_mode, generator, hs_norm, increment_slabs)
from .solver import (BLOCK_REPLICATES, SolverConfig, heat_convergence_report,
                     solve, solve_block, taylor_green_report)

__version__ = "0.1.0"
