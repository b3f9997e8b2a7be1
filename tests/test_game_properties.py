"""Tests for the paper's equilibrium properties (Thm 2-3, Cor 1, Prop 1)."""

import dataclasses
import math

import numpy as np
import pytest

from repro.game import (
    ClientPopulation,
    ServerProblem,
    check_proposition1,
    corollary1_violations,
    interior_mask,
    predicted_prices,
    solve_cpl_game,
    theorem2_invariant,
    value_threshold,
)


def _uniform_quality_population(values, costs=None):
    """Clients identical in (a, G, q_max); only v (and optionally c) vary."""
    n = len(values)
    costs = np.full(n, 25.0) if costs is None else np.asarray(costs, float)
    return ClientPopulation(
        weights=np.full(n, 1.0 / n),
        gradient_bounds=np.full(n, 3.0),
        costs=costs,
        values=np.asarray(values, dtype=float),
        q_max=np.ones(n),
    )


class TestTheorem2:
    def test_invariant_constant_across_interior_clients(self, small_problem):
        equilibrium = solve_cpl_game(small_problem)
        values, interior = theorem2_invariant(small_problem, equilibrium.q)
        inner = values[interior]
        assert inner.size >= 2
        assert np.allclose(inner, inner[0], rtol=1e-5)

    def test_higher_quality_higher_q(self):
        """Clients with larger a_n G_n participate more (same c, v)."""
        n = 6
        population = ClientPopulation(
            weights=np.full(n, 1.0 / n),
            gradient_bounds=np.linspace(1.0, 6.0, n),
            costs=np.full(n, 25.0),
            values=np.full(n, 10.0),
            q_max=np.ones(n),
        )
        problem = ServerProblem(
            population=population, alpha=3_000.0, num_rounds=200, budget=20.0
        )
        equilibrium = solve_cpl_game(problem)
        assert np.all(np.diff(equilibrium.q) >= -1e-9)

    def test_higher_cost_lower_q(self):
        """Clients with larger c_n participate less (same aG, v)."""
        population = _uniform_quality_population(
            values=np.full(6, 10.0), costs=np.linspace(10.0, 60.0, 6)
        )
        problem = ServerProblem(
            population=population, alpha=3_000.0, num_rounds=200, budget=20.0
        )
        equilibrium = solve_cpl_game(problem)
        assert np.all(np.diff(equilibrium.q) <= 1e-9)

    def test_higher_value_lower_q(self):
        """Counter-intuitive: larger v_n means lower q^SE (same aG, c)."""
        population = _uniform_quality_population(
            values=np.linspace(0.0, 100.0, 6)
        )
        problem = ServerProblem(
            population=population, alpha=3_000.0, num_rounds=200, budget=20.0
        )
        equilibrium = solve_cpl_game(problem)
        interior = interior_mask(problem, equilibrium.q)
        q_interior = equilibrium.q[interior]
        assert np.all(np.diff(q_interior) <= 1e-9)


class TestTheorem3:
    def test_predicted_prices_match_solver(self, small_problem):
        equilibrium = solve_cpl_game(small_problem)
        predictions = predicted_prices(small_problem, equilibrium.lambda_star)
        interior = interior_mask(small_problem, equilibrium.q)
        assert np.allclose(
            predictions[interior], equilibrium.prices[interior], rtol=1e-4
        )

    def test_price_zero_exactly_at_threshold(self):
        """A client with v_n = v_t has P_n = 0 (the Theorem-3 boundary).

        Setting one client's value to the threshold shifts the equilibrium
        (and hence the threshold itself), so we iterate to the fixed point
        where v_2 equals the resulting v_t, and check P_2 vanishes there.
        """
        population = _uniform_quality_population(values=np.zeros(4))
        boundary_value = 0.0
        for _ in range(40):
            values = np.array([0.0, 0.0, boundary_value, 0.0])
            problem = ServerProblem(
                population=population.with_values(values),
                alpha=3_000.0,
                num_rounds=200,
                budget=15.0,
            )
            equilibrium = solve_cpl_game(problem)
            new_boundary = equilibrium.value_threshold
            if abs(new_boundary - boundary_value) < 1e-9 * max(
                1.0, boundary_value
            ):
                boundary_value = new_boundary
                break
            boundary_value = new_boundary
        assert abs(equilibrium.prices[2]) < 1e-3 * np.abs(
            equilibrium.prices
        ).max()

    def test_higher_cost_higher_price(self):
        """Counter-intuitive Theorem-3 insight: larger c_n, larger P_n."""
        population = _uniform_quality_population(
            values=np.full(6, 5.0), costs=np.linspace(10.0, 60.0, 6)
        )
        problem = ServerProblem(
            population=population, alpha=3_000.0, num_rounds=200, budget=20.0
        )
        equilibrium = solve_cpl_game(problem)
        interior = interior_mask(problem, equilibrium.q)
        prices = equilibrium.prices[interior]
        assert np.all(np.diff(prices) >= -1e-9)

    def test_value_threshold_helper(self):
        assert value_threshold(0.0) == math.inf
        assert value_threshold(0.5) == pytest.approx(1.0 / 1.5)

    def test_predicted_prices_requires_positive_lambda(self, small_problem):
        with pytest.raises(ValueError):
            predicted_prices(small_problem, 0.0)


class TestProposition1:
    def test_q_and_p_increase_with_budget(self, small_population):
        problem = ServerProblem(
            population=small_population,
            alpha=2_000.0,
            num_rounds=200,
            budget=30.0,
        )
        report = check_proposition1(problem, budgets=[5.0, 15.0, 40.0, 90.0])
        assert report.q_monotone
        assert report.price_monotone
        assert np.all(np.diff(report.mean_q) >= -1e-9)

    def test_budgets_sorted_and_binding_budgets_monotone(
        self, straddling_problem
    ):
        """Budgets arrive in any order; across budgets that all bind, both
        the mean participation and the mean price rise."""
        report = check_proposition1(
            straddling_problem, budgets=[40.0, 10.0, 25.0]
        )
        assert list(report.budgets) == [10.0, 25.0, 40.0]
        assert report.q_monotone and report.price_monotone
        assert np.all(np.diff(report.mean_q) > 0)
        assert np.all(np.diff(report.mean_price) > 0)


class TestCorollary1:
    def test_no_violations_at_equilibrium(self, small_problem):
        equilibrium = solve_cpl_game(small_problem)
        assert corollary1_violations(equilibrium) == []

    def test_no_violations_with_values_straddling_threshold(
        self, straddling_problem
    ):
        """Interior clients on both sides of ``v_t``: both of the
        corollary's orderings have pairs to check."""
        equilibrium = solve_cpl_game(straddling_problem)
        values = straddling_problem.population.values
        interior = values[interior_mask(straddling_problem, equilibrium.q)]
        assert np.sum(interior < equilibrium.value_threshold) >= 2
        assert np.sum(interior > equilibrium.value_threshold) >= 2
        assert corollary1_violations(equilibrium) == []

    def test_reversed_prices_are_reported(self, straddling_problem):
        """Negated prices break both orderings; every reported pair is two
        interior clients, the first of higher ``c a G``."""
        equilibrium = solve_cpl_game(straddling_problem)
        reversed_prices = dataclasses.replace(
            equilibrium, prices=-equilibrium.prices
        )
        pairs = corollary1_violations(reversed_prices)
        assert pairs
        interior = interior_mask(straddling_problem, equilibrium.q)
        population = straddling_problem.population
        quality = population.costs * population.data_quality
        for i, j in pairs:
            assert interior[i] and interior[j]
            assert quality[i] > quality[j]
