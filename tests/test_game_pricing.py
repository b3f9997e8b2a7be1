"""Tests for pricing schemes: optimal vs uniform vs weighted."""

import numpy as np
import pytest

from repro.game import (
    STAGE1_SOLVERS,
    OptimalPricing,
    UniformPricing,
    WeightedPricing,
    evaluate_posted_prices,
)


def compare_schemes(problem):
    """The proposed mechanism and both benchmarks, keyed by name."""
    schemes = (OptimalPricing(), WeightedPricing(), UniformPricing())
    return {scheme.name: scheme.apply(problem) for scheme in schemes}


class TestUniformPricing:
    def test_single_price_for_all(self, small_problem):
        outcome = UniformPricing().apply(small_problem)
        assert np.allclose(outcome.prices, outcome.prices[0])

    def test_budget_spent_exactly(self, small_problem):
        outcome = UniformPricing().apply(small_problem)
        assert outcome.spending == pytest.approx(
            small_problem.budget, rel=1e-5
        )

    def test_zero_budget_means_zero_price(self, small_population):
        from repro.game import ServerProblem

        problem = ServerProblem(
            population=small_population,
            alpha=2_000.0,
            num_rounds=200,
            budget=0.0,
        )
        outcome = UniformPricing().apply(problem)
        assert np.allclose(outcome.prices, 0.0)
        # Clients with intrinsic value still participate.
        assert outcome.q.max() > 0


class TestWeightedPricing:
    def test_prices_proportional_to_datasize(self, small_problem):
        outcome = WeightedPricing().apply(small_problem)
        weights = small_problem.population.weights
        ratios = outcome.prices / weights
        assert np.allclose(ratios, ratios[0])

    def test_budget_spent_exactly(self, small_problem):
        outcome = WeightedPricing().apply(small_problem)
        assert outcome.spending == pytest.approx(
            small_problem.budget, rel=1e-5
        )


class TestOptimalPricing:
    def test_budget_respected(self, small_problem):
        outcome = OptimalPricing().apply(small_problem)
        assert outcome.spending <= small_problem.budget * (1 + 1e-4)

    def test_equilibrium_attached(self, small_problem):
        outcome = OptimalPricing().apply(small_problem)
        assert outcome.equilibrium is not None
        assert outcome.equilibrium.method == "kkt"

    def test_msearch_variant(self, small_problem):
        outcome = OptimalPricing(method="m-search").apply(small_problem)
        assert outcome.equilibrium.method == "m-search"

    def test_unknown_method_rejected_at_construction(self):
        # Like UniformPricing/WeightedPricing: a typo fails in __init__,
        # naming the valid methods, not at the first apply().
        with pytest.raises(ValueError, match="unknown method") as info:
            OptimalPricing(method="bogus")
        for method in STAGE1_SOLVERS:
            assert repr(method) in str(info.value)


class TestSchemeComparison:
    def test_optimal_dominates_benchmarks_on_bound(self, small_problem):
        """The headline claim at the surrogate level: same budget, lower
        expected loss than uniform and weighted pricing."""
        outcomes = compare_schemes(small_problem)
        proposed = outcomes["proposed"].objective_gap
        assert proposed <= outcomes["uniform"].objective_gap + 1e-9
        assert proposed <= outcomes["weighted"].objective_gap + 1e-9

    def test_optimal_dominates_across_populations(self, small_population):
        from repro.game import ServerProblem

        rng = np.random.default_rng(7)
        for trial in range(5):
            population = small_population.with_values(
                rng.exponential(30.0, size=8)
            )
            problem = ServerProblem(
                population=population,
                alpha=float(rng.uniform(500, 5_000)),
                num_rounds=200,
                budget=float(rng.uniform(10, 80)),
            )
            outcomes = compare_schemes(problem)
            assert (
                outcomes["proposed"].objective_gap
                <= outcomes["uniform"].objective_gap + 1e-9
            )
            assert (
                outcomes["proposed"].objective_gap
                <= outcomes["weighted"].objective_gap + 1e-9
            )

    def test_outcome_payments_consistent(self, small_problem):
        outcome = UniformPricing().apply(small_problem)
        assert np.allclose(outcome.payments, outcome.prices * outcome.q)

    def test_total_client_utility_field(self, small_problem):
        outcome = UniformPricing().apply(small_problem)
        assert outcome.total_client_utility == pytest.approx(
            float(outcome.client_utilities.sum())
        )


class TestEvaluatePostedPrices:
    def test_arbitrary_prices_scored(self, small_problem):
        prices = np.linspace(0, 20, 8)
        outcome = evaluate_posted_prices(small_problem, prices, "custom")
        assert outcome.scheme == "custom"
        assert outcome.q.shape == (8,)
        assert outcome.spending == pytest.approx(
            float(np.sum(prices * outcome.q))
        )
