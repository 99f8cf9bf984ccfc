"""Numerical solver and verification lab for sigma_k(lambda(eta)) = f.

The curved pipeline solves the prescribed-curvature equation for the
first Newton transformation eta = H g - h on star-shaped hypersurfaces
by a continuity method; the flat pipeline solves the Euclidean Dirichlet
analogue sigma_k(lambda((lap phi) I - D^2 phi)) = f(x, phi, grad phi).
"""

from .errors import (ConeExit, ConeViolationError, ConfigError,
                     ContinuationStuck, DomainError, EtacurvError,
                     LUOutOfMemory, NewtonDiverged, PreconditionError)
from .flatcase import (DomainGrid, FlatState, build_flat_grid,
                       build_flat_state, dirichlet_solve, flat_jacobian,
                       flat_residual, pogorelov_monitor)
from .geometry import (SphereGrid, SurfaceJet, build_grid, sigma_k_of_eta,
                       surface_jet)
from .newton import NewtonConfig, NewtonReport, damped_newton
from .solver import (ConditionsReport, HomotopyRun, PrescribedData,
                     assemble_jacobian, continue_to_target, homotopy_f,
                     newton_solve, residual, validate_conditions)
from .symm import (OperatorCoefficients, SpectrumVector, elem_sym_all,
                   elem_sym_all_batch, operator_coefficients)
from .verify import (curvature_bound, estimate_report, gradient_bound,
                     identity_check, q_monitor, w_monitor)

__version__ = "0.1.0"
