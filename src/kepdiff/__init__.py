"""Toolkit for a Kepler-ellipse-localised diffusion.

Closed-form drift and density fields, ensemble Euler-Maruyama
simulation, invariant-measure reconstruction on the attracting ellipse,
and spectral-gap estimation for the generator.
"""

from .params import (BranchPointWarning, ConfigError, ConvergenceError,
                     InsufficientSamplesError, KepdiffError, NodeError,
                     PhysParams, ResolutionError, SingularPointError)
from .fields import (alpha_beta, complex_velocity, drift, drift_root,
                     ellipse_point, ellipse_tangent, field_report,
                     from_elliptic, in_jump_set, jump_distance_many,
                     jump_interval, kepler_speed, nodal_coordinate,
                     to_elliptic, wave_gradients)
from .specfun import (complex_velocity_finite, hermite_ratio, laguerre_ratio,
                      log_amplitude, log_wave)
from .measure import (EmpiricalMarginal, GAUSS_WIDTH_FACTOR,
                      cross_section_widths, empirical_marginal,
                      laplace_weight, laplace_weight_integral,
                      log_invariant_density, tangential_factor,
                      tangential_factor_ode_grid, tangential_log_slope,
                      z_spread_by_angle)
from .sde import (CONV_U_TOL, CONV_Z_TOL, RingStart, SimConfig,
                  TrajectoryEnsemble, areal_velocity, kepler_diagnostics,
                  simulate_ensemble, simulate_ensembles)
from .spectral import (AutocorrGap, DirichletCheck, GapResult,
                       GeneratorMatrix, GridSpec, HamiltonianResidual,
                       RadialScan, adjoint_residual, build_generator,
                       dirichlet_form_residual, gap_from_autocorrelation,
                       gap_from_matrix, hamiltonian_residual,
                       osmotic_radial_scan, stationary_vector,
                       sup_grad_log_tangential)
from .quadrature import adaptive_quad

__version__ = "0.1.0"
