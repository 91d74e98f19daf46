"""qcurve: constant Q- and U-curvature conformal metrics on the ball.

Radial construction and verification of conformally hyperbolic metrics of
constant fourth-order curvature, built around a factored linear operator,
a series kernel, a generalized inverse, and a contraction iteration.
"""

from .grid import RadialFunction, RadialGrid, differentiate, fd_weights
from .geometry import (CurvatureConstants, DimensionError, PositivityError,
                       check_dimension, hyperbolic_curvature_report,
                       paneitz_apply, q_of_conformal, scalar_of_conformal)
from .indicial import (BoundarySpectrum, DegenerateOperatorError,
                       IndicialPolynomial, RootCheckError,
                       q_indicial_polynomial, q_indicial_spectrum,
                       u_indicial_polynomial, u_indicial_spectrum)
from .bessel import (ModelSolution, bessel_I_derivatives, bessel_K_derivatives,
                     model_operator, model_residual, model_solutions)
from .linear import (BandedFactor, FactoredOperator, IllConditionedFitError,
                     KernelElement, ProjectionP1, WindowError, apply_L,
                     assemble, generalized_inverse, kernel_element,
                     make_projection, project_P1, solve_T1)
from .expansion import (ExpansionFit, SignalToNoiseError, fit_leading,
                        scalar_asymptotic_coefficient,
                        scalar_linearization_coefficient, weighted_norm)
from .nonlinear import (AdmissibilityError, IterationConfig, Machinery,
                        SolveReport, TargetCurvature, build_machinery,
                        e_residual, fixed_point_solve, nonlinear_rhs,
                        sweep_family)
from .ucurve import (DetParams, sigma2_identity_check,
                     u_curvature_conformal, u_curvature_hyperbolic,
                     u_e_residual, u_fixed_point_solve, u_kernel_element,
                     u_linearized_apply, u_nonlinear_rhs)

__version__ = "0.1.0"
