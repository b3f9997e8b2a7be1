"""Tests for the SE object, utilities, and game-level invariants."""

import math

import numpy as np
import pytest

from repro.game import (
    ServerProblem,
    best_response_vector,
    population_utilities,
    solve_cpl_game,
)


class TestSolveCplGame:
    def test_kkt_and_msearch_agree(self, small_problem):
        kkt = solve_cpl_game(small_problem, method="kkt")
        msearch = solve_cpl_game(small_problem, method="m-search")
        assert msearch.objective_gap == pytest.approx(
            kkt.objective_gap, rel=0.02
        )

    def test_unknown_method_rejected(self, small_problem):
        with pytest.raises(ValueError, match="unknown method"):
            solve_cpl_game(small_problem, method="magic")

    def test_equilibrium_prices_induce_equilibrium_q(self, small_problem):
        """Fixed-point check: posting P^SE must elicit exactly q^SE."""
        equilibrium = solve_cpl_game(small_problem)
        induced = best_response_vector(
            equilibrium.prices,
            small_problem.population,
            small_problem.contributions,
        )
        assert np.allclose(induced, equilibrium.q, atol=1e-6)

    def test_no_client_wants_to_deviate(self, small_problem):
        """SE definition (9a): unilateral q deviations cannot help."""
        from repro.game import surrogate_utility

        equilibrium = solve_cpl_game(small_problem)
        base = surrogate_utility(
            equilibrium.q,
            equilibrium.prices,
            small_problem.population,
            small_problem.contributions,
        )
        rng = np.random.default_rng(0)
        for _ in range(30):
            deviation = np.clip(
                equilibrium.q + rng.normal(0, 0.1, size=8), 1e-6, 1.0
            )
            utilities = surrogate_utility(
                deviation,
                equilibrium.prices,
                small_problem.population,
                small_problem.contributions,
            )
            assert np.all(utilities <= base + 1e-8)

    def test_server_prefers_equilibrium_to_feasible_alternatives(
        self, small_problem
    ):
        """SE definition (9b): no feasible q does better on the surrogate."""
        equilibrium = solve_cpl_game(small_problem)
        rng = np.random.default_rng(1)
        for _ in range(50):
            q = rng.uniform(0.02, 1.0, size=8)
            if small_problem.spending(q) <= small_problem.budget:
                assert (
                    small_problem.objective_gap(q)
                    >= equilibrium.objective_gap - 1e-9
                )

    def test_summary_fields(self, small_problem):
        summary = solve_cpl_game(small_problem).summary()
        assert summary["budget"] == 30.0
        assert summary["budget_tight"] is True
        assert summary["method"] == "kkt"
        assert 0 < summary["mean_q"] <= 1

    def test_value_threshold_infinite_when_slack(self, small_population):
        problem = ServerProblem(
            population=small_population,
            alpha=2_000.0,
            num_rounds=200,
            budget=1e9,
        )
        equilibrium = solve_cpl_game(problem)
        assert equilibrium.value_threshold == math.inf


class TestPaymentDirections:
    def test_threshold_separates_payment_sign(self, small_population):
        """Theorem 3: P_n > 0 iff v_n below v_t (for interior clients)."""
        # Push some values above the threshold with a wide spread.
        values = np.array([0.0, 1.0, 5.0, 20.0, 60.0, 150.0, 400.0, 1000.0])
        population = small_population.with_values(values)
        problem = ServerProblem(
            population=population,
            alpha=2_000.0,
            num_rounds=200,
            budget=30.0,
        )
        equilibrium = solve_cpl_game(problem)
        threshold = equilibrium.value_threshold
        interior = (equilibrium.q > 1e-5) & (
            equilibrium.q < population.q_max - 1e-5
        )
        for n in np.flatnonzero(interior):
            if values[n] < threshold * (1 - 1e-6):
                assert equilibrium.prices[n] > -1e-9
            elif values[n] > threshold * (1 + 1e-6):
                assert equilibrium.prices[n] < 1e-9

    def test_negative_payment_clients_listed(self, small_population):
        values = np.array([0.0, 0.0, 0.0, 0.0, 500.0, 800.0, 900.0, 1000.0])
        population = small_population.with_values(values)
        problem = ServerProblem(
            population=population,
            alpha=2_000.0,
            num_rounds=200,
            budget=20.0,
        )
        equilibrium = solve_cpl_game(problem)
        listed = set(equilibrium.negative_payment_clients.tolist())
        actual = set(np.flatnonzero(equilibrium.prices < 0).tolist())
        assert listed == actual


class TestUtilities:
    def test_population_utilities_shape(self, small_problem):
        equilibrium = solve_cpl_game(small_problem)
        utilities = population_utilities(
            small_problem, equilibrium.q, equilibrium.prices
        )
        assert utilities.shape == (8,)

    def test_local_gaps_raise_value_term(self, small_population):
        base = ServerProblem(
            population=small_population,
            alpha=2_000.0,
            num_rounds=200,
            budget=30.0,
        )
        with_gaps = ServerProblem(
            population=small_population,
            alpha=2_000.0,
            num_rounds=200,
            budget=30.0,
            local_gaps=np.full(8, 0.5),
        )
        equilibrium = solve_cpl_game(base)
        u_base = population_utilities(base, equilibrium.q, equilibrium.prices)
        u_gaps = population_utilities(
            with_gaps, equilibrium.q, equilibrium.prices
        )
        boost = small_population.values * 0.5
        assert np.allclose(u_gaps - u_base, boost)

    @pytest.mark.parametrize(
        "field", ["expected_loss", "objective_gap", "spending"]
    )
    def test_reported_field_is_the_problem_at_q(self, small_problem, field):
        """The server's utility (Eq. 5a) and budget use, as reported on the
        equilibrium, are the problem's own functions at ``q^SE``."""
        equilibrium = solve_cpl_game(small_problem)
        at_q = getattr(small_problem, field)(equilibrium.q)
        assert getattr(equilibrium, field) == pytest.approx(at_q)
