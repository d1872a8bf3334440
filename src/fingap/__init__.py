"""Spectral-gap toolkit for Finsler/weighted diffusions.

Computes sharp first-Neumann-eigenvalue lower bounds lambda_1(K, N, d) from
1-D comparison operators, solves the discrete eigenproblem on anisotropic
grids by Rayleigh-quotient minimization, and verifies the comparison
inequalities end to end.
"""

from .norms import (
    NormSpec,
    euclidean_norm,
    quadratic_norm,
    randers_norm,
    two_slope_norm,
    norm_eval,
    dual_norm_eval,
    legendre,
    legendre_inverse,
)
from .model1d import (
    ModelProblem,
    ModelSolution,
    centered_model,
    coeff_T,
    invariant_density,
    shoot,
    lambda1_interval,
    lambda1_model,
    model_solution,
    fit_model_solution,
    sturm_liouville_oracle,
    SolverError,
)
from .domain import (
    DomainSpec,
    DiscreteDomain,
    MeshOperator,
    CurvatureCertificate,
    build_domain,
    diameter,
    analytic_diameter,
    curvature_certificate,
)
from .eigensolver import (
    EigenResult,
    discrete_gradient,
    rayleigh_quotient,
    minimize_rayleigh,
    dense_oracle,
)
from .harness import (
    BoundReport,
    ComparisonReport,
    check_gradient_comparison,
    check_maxima,
    lichnerowicz_check,
    run_suite,
    golden_cases,
)

__version__ = "0.1.0"
