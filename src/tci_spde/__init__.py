"""Numerical laboratory for transportation-cost inequalities of monotone SPDEs.

Simulates the stochastic heat, Burgers and 2-D Navier-Stokes equations
with spectral Galerkin truncations, couples shifted and unshifted
dynamics through Girsanov shifts, and checks every desk-scale
consequence of the T1/T2 inequalities: exponential moments, Gaussian
tails, contraction bounds, and the closed-form constants behind them.
"""

from .concentration import (Ensemble, FunctionalSpec, bobkov_gotze_check,
                            ensemble_to_csv, exp_moment_check,
                            exp_moment_empirical, functional_ensemble,
                            gaussian_tail_check, l2_v_path_functional,
                            linear_probe_functional, lipschitz_audit,
                            metric_distance, moment_report, sup_h_functional,
                            t2_chain_check, terminal_h_functional,
                            trajectory_from_states, w2_small_cloud,
                            w2_sorted_1d)
from .config import ExperimentConfig, config_hash, load_config, parse_config
from .constants import (admissible_ranges, ccr_constant, gaussian_moment_pair,
                        t1_constant, t2_constant, t2_objective)
from .errors import (DivergenceError, InfeasibleError, InvalidFieldError,
                     ParameterError, ResolutionError, SchemaError)
from .fields import (L4_INTERPOLATION_1D, L4_INTERPOLATION_2D, POINCARE_1D,
                     POINCARE_2D, Field1D, Field2D, Quadrature,
                     default_quadrature, divergence_linf, evaluate_1d,
                     helmholtz_project, inner_h, laplacian_apply, norm_h,
                     norm_inequality_suite_1d, norm_inequality_suite_2d,
                     norm_l4, norm_v, norm_vstar, poincare_audit, project_1d,
                     random_field_1d, random_field_2d)
from .girsanov import (CoupledPair, ShiftFunction, contraction_report,
                       coupled_ensemble, coupled_solve, log_radon_nikodym,
                       shift_entropy, shift_from_descriptor)
from .models import (ETA_1D, ETA_2D, AssumptionConstants, ModelSpec,
                     audit_hypotheses, burgers_model, burgers_nonlinearity,
                     drift_eval, heat_model, linear_eigenvalues,
                     nonlinearity_energy, nonlinearity_energy_suite,
                     ns2d_model, ns_advection, rho_local, t1_feasibility,
                     taylor_green_field)
from .noise import (NoiseOperator, SeedSpec, apply_noise, derived_replicate,
                    gains_inverse_k, gains_single_mode, generator, hs_norm,
                    increment_table, noise_operator_1d, noise_operator_2d,
                    sample_increment, standard_normal_table, standard_normals)
from .solver import (BLOCK_REPLICATES, SolverConfig, Trajectory,
                     heat_convergence_report, solve, solve_block,
                     taylor_green_report)

__version__ = "0.1.0"
