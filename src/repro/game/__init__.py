"""The CPL (Client Participation Level) Stackelberg game — core contribution.

Implements Secs. IV-V of *Incentive Mechanism Design for Unbiased Federated
Learning with Randomized Client Participation* (Luo et al., ICDCS 2023):
the server posts per-client prices ``P_n`` (Stage I), each client best-
responds with a participation level ``q_n`` (Stage II), and backward
induction yields the Stackelberg equilibrium ``{P^SE, q^SE}``.

Public symbols and their paper correspondence:

* :class:`ClientPopulation` / :func:`sample_population` — the client
  economy: weights ``W_n``, gradient bounds ``G_n``, participation costs
  ``c_n``, intrinsic values ``v_n`` (Table I, Sec. VI-A).
* :func:`surrogate_utility` — client utility ``U_n(q_n, P_n)`` under the
  Theorem-1 convergence surrogate (Eq. 8a with Eq. 7's loss term).
* :func:`best_response` / :func:`best_response_vector` — the Stage-II
  maximizer ``q_n*(P_n)`` (Lemma 3 / Eq. 15).
* :func:`inverse_price` — the Eq.-17 price that induces a target ``q_n``.
* :class:`ServerProblem` — the Stage-I data: surrogate coefficients
  ``alpha, beta``, horizon ``R``, budget ``B`` (Eq. 10's constraint set).
* :class:`StageIResult` / :func:`solve_stage1_kkt` /
  :func:`solve_stage1_msearch` / :func:`solve_stage1_approx` — the
  Stage-I optimum; ``kkt`` bisects the budget multiplier ``lambda*``,
  ``m-search`` is the paper's fixed-M convex decomposition (Sec. V-B),
  ``approx`` is the fast tier's bucketed search with bounded exact
  refinement (100k+ fleets).
* :func:`solve_cpl_game` / :class:`StackelbergEquilibrium` /
  :data:`STAGE1_SOLVERS` — backward induction to ``{P^SE, q^SE}``, with
  the Stage-I solver picked by method name from the table, and the
  reporting quantities the analysis highlights: ``lambda*``, the
  bi-directional-payment threshold
  ``v_t = 1/(3 lambda*)`` (Theorem 3), and per-client payment directions.
* :func:`population_utilities` — Eq. 8a evaluated at a profile (Table
  IV's quantity).
* :class:`PricingScheme` / :class:`OptimalPricing` /
  :class:`WeightedPricing` / :class:`UniformPricing` /
  :func:`evaluate_posted_prices` /
  :class:`PricingOutcome` — the proposed mechanism vs the paper's two
  budget-matched benchmarks ``P^w`` (datasize-weighted) and ``P^u``
  (uniform), Sec. VI-B.
* :class:`Mechanism` / :class:`FullParticipationMechanism` /
  :class:`FixedSubsetMechanism` / :class:`RandomSelectionMechanism` /
  :data:`MECHANISMS` / :func:`build_mechanism` /
  :func:`default_mechanisms` / :func:`estimator_bias_mass` /
  :func:`subset_objective_gap` — the scenario layer's mechanism suite:
  the paper's schemes plus the client-selection baselines the related
  literature compares against (pay-for-full-participation, deterministic
  valuable-subset selection, no-incentive random cohorts).
* :func:`theorem2_invariant` / :func:`predicted_prices` — Theorem 2's
  closed-form SE price structure.
* :func:`value_threshold` / :func:`interior_mask` /
  :func:`check_proposition1` / :func:`corollary1_violations` /
  :class:`MonotonicityReport` — Proposition 1 / Corollary 1 monotonicity
  and the Theorem-3 threshold used by Table V.
* :func:`bayesian_outcome` / :func:`expected_profile_prices` /
  :func:`monte_carlo_prices` — the incomplete-information extension
  (Sec. V-C).
"""

from repro.game.bayesian import (
    bayesian_outcome,
    expected_profile_prices,
    monte_carlo_prices,
)
from repro.game.best_response import (
    best_response,
    best_response_vector,
    inverse_price,
    surrogate_utility,
)
from repro.game.client_model import ClientPopulation, sample_population
from repro.game.equilibrium import (
    STAGE1_SOLVERS,
    StackelbergEquilibrium,
    population_utilities,
    solve_cpl_game,
)
from repro.game.mechanisms import (
    MECHANISMS,
    FixedSubsetMechanism,
    FullParticipationMechanism,
    Mechanism,
    RandomSelectionMechanism,
    build_mechanism,
    default_mechanisms,
    estimator_bias_mass,
    subset_objective_gap,
)
from repro.game.pricing import (
    OptimalPricing,
    PricingOutcome,
    PricingScheme,
    UniformPricing,
    WeightedPricing,
    evaluate_posted_prices,
)
from repro.game.properties import (
    MonotonicityReport,
    check_proposition1,
    corollary1_violations,
    interior_mask,
    predicted_prices,
    theorem2_invariant,
    value_threshold,
)
from repro.game.server_problem import (
    ServerProblem,
    StageIResult,
    solve_stage1_approx,
    solve_stage1_kkt,
    solve_stage1_msearch,
)

__all__ = [
    "ClientPopulation",
    "sample_population",
    "best_response",
    "best_response_vector",
    "inverse_price",
    "surrogate_utility",
    "ServerProblem",
    "StageIResult",
    "solve_stage1_approx",
    "solve_stage1_kkt",
    "solve_stage1_msearch",
    "StackelbergEquilibrium",
    "STAGE1_SOLVERS",
    "solve_cpl_game",
    "population_utilities",
    "PricingScheme",
    "PricingOutcome",
    "OptimalPricing",
    "UniformPricing",
    "WeightedPricing",
    "evaluate_posted_prices",
    "Mechanism",
    "MECHANISMS",
    "FullParticipationMechanism",
    "FixedSubsetMechanism",
    "RandomSelectionMechanism",
    "build_mechanism",
    "default_mechanisms",
    "estimator_bias_mass",
    "subset_objective_gap",
    "theorem2_invariant",
    "predicted_prices",
    "value_threshold",
    "interior_mask",
    "check_proposition1",
    "corollary1_violations",
    "MonotonicityReport",
    "bayesian_outcome",
    "expected_profile_prices",
    "monte_carlo_prices",
]
