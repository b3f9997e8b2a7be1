"""Convergence theory: Theorem-1 bound, Lemma-2 variance, estimation."""

from repro.theory.assumptions import ProblemConstants
from repro.theory.bound import heterogeneity_term
from repro.theory.estimation import (
    ReferenceOptima,
    compute_reference_optima,
    estimate_gradient_bounds,
    estimate_gradient_variances,
    estimate_problem_constants,
    fit_bound_scale,
    pilot_trajectory,
)
from repro.theory.variance import (
    empirical_aggregation_moments,
    full_participation_aggregate,
    lemma2_variance_bound,
)

__all__ = [
    "ProblemConstants",
    "heterogeneity_term",
    "ReferenceOptima",
    "compute_reference_optima",
    "estimate_gradient_bounds",
    "estimate_gradient_variances",
    "estimate_problem_constants",
    "fit_bound_scale",
    "pilot_trajectory",
    "lemma2_variance_bound",
    "full_participation_aggregate",
    "empirical_aggregation_moments",
]
