"""Tests for Stage-I solvers: KKT bisection vs the paper's M-search."""

import numpy as np
import pytest

import repro.game.server_problem as server_problem
from repro.experiments import (
    SCALES,
    SETUPS,
    apply_scale,
    calibrate_value_scale,
    prepare_setup,
)
from repro.game import (
    ClientPopulation,
    ServerProblem,
    solve_stage1_approx,
    solve_stage1_kkt,
    solve_stage1_msearch,
)
from repro.scenarios import ScenarioRunner, get_scenario


class TestServerProblemBasics:
    def test_contributions_formula(self, small_problem):
        population = small_problem.population
        expected = (
            small_problem.alpha
            * population.weights**2
            * population.gradient_bounds**2
            / small_problem.num_rounds
        )
        assert np.allclose(small_problem.contributions, expected)

    def test_spending_matches_price_times_q(self, small_problem):
        q = np.random.default_rng(0).uniform(0.1, 0.9, size=8)
        prices = small_problem.prices_for(q)
        assert small_problem.spending(q) == pytest.approx(
            float(np.sum(prices * q))
        )

    def test_objective_gap_decreases_in_q(self, small_problem):
        low = small_problem.objective_gap(np.full(8, 0.3))
        high = small_problem.objective_gap(np.full(8, 0.9))
        assert low > high

    def test_local_gaps_length_checked(self, small_population):
        with pytest.raises(ValueError):
            ServerProblem(
                population=small_population,
                alpha=10.0,
                num_rounds=10,
                budget=5.0,
                local_gaps=np.zeros(3),
            )


class TestKktSolver:
    def test_budget_tight(self, small_problem):
        result = solve_stage1_kkt(small_problem)
        assert result.budget_tight
        assert result.spending == pytest.approx(small_problem.budget, rel=1e-5)

    def test_q_in_bounds(self, small_problem):
        result = solve_stage1_kkt(small_problem)
        assert np.all(result.q > 0)
        assert np.all(result.q <= small_problem.population.q_max + 1e-12)

    def test_lambda_positive_when_tight(self, small_problem):
        result = solve_stage1_kkt(small_problem)
        assert 0 < result.lambda_star < np.inf

    def test_budget_slack_returns_caps(self, small_population):
        # Enormous budget: everyone participates fully, constraint slack.
        problem = ServerProblem(
            population=small_population,
            alpha=5_000.0,
            num_rounds=200,
            budget=1e9,
        )
        result = solve_stage1_kkt(problem)
        assert not result.budget_tight
        assert np.allclose(result.q, small_population.q_max)
        assert result.lambda_star == 0.0

    def test_prices_consistent_with_eq17(self, small_problem):
        result = solve_stage1_kkt(small_problem)
        assert np.allclose(
            result.prices, small_problem.prices_for(result.q)
        )

    def test_larger_budget_lower_gap(self, small_population):
        gaps = []
        for budget in (10.0, 30.0, 100.0):
            problem = ServerProblem(
                population=small_population,
                alpha=5_000.0,
                num_rounds=200,
                budget=budget,
            )
            gaps.append(solve_stage1_kkt(problem).objective_gap)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_zero_values_population(self, small_population):
        """With v = 0 everywhere the game is pure payment-for-service."""
        population = small_population.with_values(np.zeros(8))
        problem = ServerProblem(
            population=population, alpha=5_000.0, num_rounds=200, budget=30.0
        )
        result = solve_stage1_kkt(problem)
        assert result.budget_tight
        assert np.all(result.prices >= 0)  # no one pays the server
        assert result.spending == pytest.approx(30.0, rel=1e-5)

    def test_kkt_stationarity_at_interior_solution(self, small_problem):
        """Eq. 22 must hold for interior clients."""
        result = solve_stage1_kkt(small_problem)
        population = small_problem.population
        interior = (result.q > 1e-6) & (result.q < population.q_max - 1e-6)
        assert interior.any()
        t_values = (
            4.0
            * population.costs[interior]
            * result.q[interior] ** 3
            / small_problem.contributions[interior]
            + population.values[interior]
        )
        assert np.allclose(t_values, 1.0 / result.lambda_star, rtol=1e-6)


class TestMSearchSolver:
    def test_agrees_with_kkt_on_objective(self, small_problem):
        kkt = solve_stage1_kkt(small_problem)
        msearch = solve_stage1_msearch(small_problem, grid_size=20, refinements=2)
        assert msearch.objective_gap == pytest.approx(
            kkt.objective_gap, rel=0.02
        )

    def test_agrees_with_kkt_on_q(self, small_problem):
        kkt = solve_stage1_kkt(small_problem)
        msearch = solve_stage1_msearch(small_problem, grid_size=20, refinements=2)
        assert np.allclose(msearch.q, kkt.q, atol=0.05)

    def test_respects_budget(self, small_problem):
        result = solve_stage1_msearch(small_problem)
        assert result.spending <= small_problem.budget * (1 + 1e-4)

    def test_zero_value_agreement(self, small_population):
        population = small_population.with_values(np.zeros(8))
        problem = ServerProblem(
            population=population, alpha=5_000.0, num_rounds=200, budget=25.0
        )
        kkt = solve_stage1_kkt(problem)
        msearch = solve_stage1_msearch(problem, grid_size=20, refinements=2)
        assert msearch.objective_gap == pytest.approx(
            kkt.objective_gap, rel=0.02
        )

    @pytest.mark.parametrize("setup_name", ["setup1", "setup2", "setup3"])
    def test_agrees_with_kkt_on_prepared_setups(self, setup_name):
        """M-search reaches the KKT optimum on the calibrated economies.

        Warm-starting each fixed-M solve from the incumbent ended 66% above
        the KKT gap on ci-scale Setup 1 (seed 0); cold starts stay within
        0.3% on every ci-scale setup over seeds 0-2.
        """
        scale = SCALES["ci"]
        config = apply_scale(SETUPS[setup_name], scale)
        problem = prepare_setup(config, scale=scale, seed=0).problem
        kkt = solve_stage1_kkt(problem)
        msearch = solve_stage1_msearch(problem, grid_size=20, refinements=2)
        assert msearch.spending <= problem.budget * (1 + 1e-6) + 1e-9
        assert msearch.objective_gap == pytest.approx(
            kkt.objective_gap, rel=0.01
        )


# -- The preallocated KKT family against the probe it replaced -------------


def _oracle_q_of_t(problem, t):
    """The per-probe KKT candidate as it was computed before the family."""
    slack = np.maximum(t - problem.population.values, 0.0)
    cube = problem.contributions * slack / (4.0 * problem.population.costs)
    return np.clip(np.cbrt(cube), 1e-9, problem.population.q_max)


class _OracleFamily:
    """``problem.spending(_oracle_q_of_t(...))``, fresh arrays every probe."""

    def __init__(self, problem):
        self.problem = problem
        self.contributions = problem.contributions
        self.four_costs = 4.0 * problem.population.costs

    def q(self, t):
        return _oracle_q_of_t(self.problem, t)

    def spending(self, t):
        return self.problem.spending(self.q(t))


def _solve_both_bytes(problem):
    """KKT and approx results as bytes: equal bytes mean equal bits."""
    return [
        (
            result.q.tobytes(),
            result.prices.tobytes(),
            float(result.lambda_star).hex(),
            float(result.spending).hex(),
            result.budget_tight,
        )
        for result in (
            solve_stage1_kkt(problem),
            solve_stage1_approx(problem),
        )
    ]


def _assert_probe_bit_identical(problem, monkeypatch):
    fast = _solve_both_bytes(problem)
    with monkeypatch.context() as patch:
        patch.setattr(server_problem, "_KKTFamily", _OracleFamily)
        oracle = _solve_both_bytes(problem)
    assert fast == oracle


def _sub_floor_problem():
    """Some ``q_max`` below the 1e-9 floor, with a stake the floor moves."""
    rng = np.random.default_rng(5)
    n = 12
    q_max = np.ones(n)
    q_max[:3] = 1e-11
    values = rng.exponential(5.0, size=n)
    values[:3] = 1e-9
    population = ClientPopulation(
        weights=np.full(n, 1.0 / n),
        gradient_bounds=rng.uniform(1.0, 5.0, size=n),
        costs=rng.uniform(5.0, 60.0, size=n),
        values=values,
        q_max=q_max,
    )
    return ServerProblem(
        population=population, alpha=2_000.0, num_rounds=200, budget=30.0
    )


class TestKktFamilyBitIdentity:
    def test_small_problem(self, small_problem, monkeypatch):
        _assert_probe_bit_identical(small_problem, monkeypatch)

    def test_zero_values(self, small_population, monkeypatch):
        problem = ServerProblem(
            population=small_population.with_values(np.zeros(8)),
            alpha=5_000.0,
            num_rounds=200,
            budget=30.0,
        )
        _assert_probe_bit_identical(problem, monkeypatch)

    def test_slack_budget(self, small_population, monkeypatch):
        problem = ServerProblem(
            population=small_population,
            alpha=5_000.0,
            num_rounds=200,
            budget=1e9,
        )
        assert not solve_stage1_kkt(problem).budget_tight
        _assert_probe_bit_identical(problem, monkeypatch)

    def test_q_max_below_floor(self, monkeypatch):
        problem = _sub_floor_problem()
        result = solve_stage1_kkt(problem)
        assert result.budget_tight
        assert np.all(result.q[:3] == 1e-11)
        _assert_probe_bit_identical(problem, monkeypatch)

    @pytest.mark.parametrize("seed", range(5))
    def test_megafleet(self, seed, monkeypatch):
        runner = ScenarioRunner(scale="ci", seed=seed)
        problem = runner.prepare(get_scenario("megafleet")).problem
        _assert_probe_bit_identical(problem, monkeypatch)

    def test_calibrated_scale(self, monkeypatch):
        scale = SCALES["ci"]
        prepared = prepare_setup(
            apply_scale(SETUPS["setup1"], scale), scale=scale, seed=0
        )
        base = prepared.problem
        mean_value = prepared.config.mean_value

        def calibrate():
            return calibrate_value_scale(base, prepared.raw_values, mean_value)

        fast = calibrate()
        with monkeypatch.context() as patch:
            patch.setattr(server_problem, "_KKTFamily", _OracleFamily)
            oracle = calibrate()
        assert fast.hex() == oracle.hex()
        assert fast.hex() == float(prepared.value_scale).hex()
