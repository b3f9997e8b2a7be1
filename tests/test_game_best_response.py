"""Tests for Stage-II best responses (Eq. 13) and inverse pricing (Eq. 17)."""

import importlib
import tracemalloc

import numpy as np
import pytest

from repro.game import (
    best_response,
    best_response_vector,
    inverse_price,
    surrogate_utility,
)
from repro.game.best_response import (
    _bracketed_newton_cubic,
    _cubic_bracket,
    _settled_newton_cubic,
)
from repro.testing.invariants import FIRST_ORDER_RTOL

# ``repro.game.best_response`` is also the name of the re-exported function,
# so attribute access on the package cannot reach the module.
best_response_module = importlib.import_module("repro.game.best_response")


def _brute_force_best(price, cost, value_contribution, q_max):
    grid = np.linspace(1e-6, q_max, 40_000)
    utility = price * grid - cost * grid**2
    if value_contribution > 0:
        utility = utility - value_contribution / grid
    best = grid[np.argmax(utility)]
    # q = 0 competes only when vA = 0 (utility -> -inf otherwise).
    if value_contribution == 0 and 0.0 >= utility.max():
        return 0.0
    return best


class TestBestResponse:
    def test_no_value_positive_price(self):
        # Linear-quadratic case: q* = P / (2c).
        assert best_response(10.0, 5.0, 0.0, 1.0) == pytest.approx(1.0)
        assert best_response(4.0, 5.0, 0.0, 1.0) == pytest.approx(0.4)

    def test_no_value_nonpositive_price_opts_out(self):
        assert best_response(0.0, 5.0, 0.0, 1.0) == 0.0
        assert best_response(-3.0, 5.0, 0.0, 1.0) == 0.0

    def test_with_value_participates_without_payment(self):
        q = best_response(0.0, 5.0, 2.0, 1.0)
        # FOC: vA/q^2 = 2cq -> q = (vA/2c)^(1/3)
        assert q == pytest.approx((2.0 / 10.0) ** (1 / 3))

    def test_with_value_accepts_negative_price(self):
        q = best_response(-5.0, 5.0, 2.0, 1.0)
        assert 0 < q < 1

    def test_cap_binds_for_generous_price(self):
        assert best_response(1e6, 1.0, 0.5, 0.8) == pytest.approx(0.8)

    @pytest.mark.parametrize(
        "price,cost,va,qmax",
        [
            (3.0, 10.0, 1.0, 1.0),
            (-2.0, 8.0, 4.0, 1.0),
            (0.5, 20.0, 0.1, 0.6),
            (50.0, 5.0, 10.0, 1.0),
            (0.0, 1.0, 0.01, 1.0),
        ],
    )
    def test_matches_brute_force(self, price, cost, va, qmax):
        analytic = best_response(price, cost, va, qmax)
        brute = _brute_force_best(price, cost, va, qmax)
        assert analytic == pytest.approx(brute, abs=2e-4)

    def test_monotone_increasing_in_price(self):
        prices = np.linspace(-10, 30, 30)
        responses = [best_response(p, 8.0, 2.0, 1.0) for p in prices]
        assert all(a <= b + 1e-12 for a, b in zip(responses, responses[1:]))

    def test_monotone_decreasing_in_cost(self):
        costs = [2.0, 5.0, 10.0, 50.0]
        responses = [best_response(5.0, c, 1.0, 1.0) for c in costs]
        assert all(a >= b for a, b in zip(responses, responses[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            best_response(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            best_response(1.0, 1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            best_response(1.0, 1.0, 1.0, 1.5)


class TestInversePrice:
    def test_roundtrip_price_to_q_to_price(self, small_population):
        contributions = np.full(8, 0.5)
        q = np.random.default_rng(0).uniform(0.05, 0.95, size=8)
        prices = inverse_price(q, small_population, contributions)
        recovered = best_response_vector(
            prices, small_population, contributions
        )
        assert np.allclose(recovered, q, atol=1e-8)

    def test_formula(self):
        from repro.game import ClientPopulation

        population = ClientPopulation(
            weights=np.array([1.0]),
            gradient_bounds=np.array([2.0]),
            costs=np.array([3.0]),
            values=np.array([4.0]),
            q_max=np.array([1.0]),
        )
        price = inverse_price([0.5], population, [0.25])
        # 2*3*0.5 - 4*0.25/0.25 = 3 - 4 = -1
        assert price[0] == pytest.approx(-1.0)

    def test_zero_q_rejected(self, small_population):
        with pytest.raises(ValueError):
            inverse_price(np.zeros(8), small_population, np.full(8, 0.1))


class TestBestResponseVector:
    def test_shape_checked(self, small_population):
        with pytest.raises(ValueError):
            best_response_vector(np.zeros(3), small_population, np.zeros(8))

    def test_each_entry_is_scalar_best(self, small_population):
        contributions = np.full(8, 0.2)
        prices = np.linspace(-5, 30, 8)
        vector = best_response_vector(prices, small_population, contributions)
        for n in range(8):
            scalar = best_response(
                prices[n],
                small_population.costs[n],
                small_population.values[n] * contributions[n],
                small_population.q_max[n],
            )
            assert vector[n] == pytest.approx(scalar)


class TestSurrogateUtility:
    def test_best_response_maximizes_surrogate(self, small_population):
        contributions = np.full(8, 0.3)
        prices = np.full(8, 12.0)
        q_star = best_response_vector(prices, small_population, contributions)
        base = surrogate_utility(q_star, prices, small_population, contributions)
        rng = np.random.default_rng(1)
        for _ in range(20):
            perturbed = np.clip(
                q_star + rng.normal(0, 0.05, size=8), 1e-6, 1.0
            )
            other = surrogate_utility(
                perturbed, prices, small_population, contributions
            )
            assert np.all(other <= base + 1e-9)


class TestVectorizedNewtonSolver:
    """The vectorized bracketed-Newton solve vs the scalar np.roots path."""

    def test_matches_scalar_reference_on_random_grid(self):
        from repro.game import ClientPopulation

        rng = np.random.default_rng(42)
        n = 300
        population = ClientPopulation(
            weights=np.full(n, 1.0 / n),
            gradient_bounds=np.ones(n),
            costs=rng.uniform(0.1, 80.0, size=n),
            # ~20% of clients hold no intrinsic stake (the closed-form
            # branch), the rest spread over several orders of magnitude.
            values=np.where(
                rng.random(n) < 0.2, 0.0, rng.exponential(5.0, size=n)
            ),
            q_max=rng.uniform(0.2, 1.0, size=n),
        )
        prices = rng.normal(0.0, 25.0, size=n)
        contributions = rng.exponential(0.3, size=n)
        vector = best_response_vector(prices, population, contributions)
        for index in range(n):
            scalar = best_response(
                prices[index],
                population.costs[index],
                population.values[index] * contributions[index],
                population.q_max[index],
            )
            assert vector[index] == pytest.approx(scalar, rel=1e-9, abs=1e-12)

    def test_tiny_value_contributions_where_np_roots_degrades(self):
        """The regime the scalar path handles with bisection recovery."""
        from repro.game import ClientPopulation

        values = np.array([1e-18, 1e-12, 1e-6, 1e8])
        population = ClientPopulation(
            weights=np.full(4, 0.25),
            gradient_bounds=np.ones(4),
            costs=np.array([3.0, 8.0, 1.0, 5.0]),
            values=values,
            q_max=np.ones(4),
        )
        prices = np.array([50.0, -20.0, 0.0, -5.0])
        contributions = np.ones(4)
        vector = best_response_vector(prices, population, contributions)
        for index in range(4):
            scalar = best_response(
                prices[index],
                population.costs[index],
                values[index],
                1.0,
            )
            assert vector[index] == pytest.approx(scalar, rel=1e-9, abs=1e-15)

    def test_zero_stake_branch_is_exact_closed_form(self):
        from repro.game import ClientPopulation

        population = ClientPopulation(
            weights=np.array([0.5, 0.5]),
            gradient_bounds=np.ones(2),
            costs=np.array([5.0, 5.0]),
            values=np.zeros(2),
            q_max=np.array([1.0, 0.3]),
        )
        vector = best_response_vector(
            np.array([4.0, 100.0]), population, np.zeros(2)
        )
        assert vector[0] == 0.4  # P / (2c), bitwise: same expression
        assert vector[1] == 0.3  # capped at q_max


def _dense_bracketed_newton_cubic(
    price, cost, value_contribution, q_max, *, max_iterations=100
):
    """The dense loop the active-set solver replaced, kept as its oracle.

    Every row iterates, with fresh arrays each step, until all brackets
    are narrow at once.
    """

    def residual(q):
        return 2.0 * cost * q**3 - price * q**2 - value_contribution

    upper = np.maximum(q_max, np.abs(price) / (2.0 * cost) + 1.0)
    expand = residual(upper) < 0
    while np.any(expand):
        upper[expand] *= 2.0
        expand = residual(upper) < 0
    lower = np.zeros_like(upper)
    q = 0.5 * (lower + upper)
    tiny = 4.0 * np.finfo(float).eps
    for _ in range(max_iterations):
        value = residual(q)
        negative = value < 0
        lower = np.where(negative, q, lower)
        upper = np.where(negative, upper, q)
        slope = 6.0 * cost * q**2 - 2.0 * price * q
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = q - value / slope
        inside = (
            (slope != 0)
            & np.isfinite(newton)
            & (newton > lower)
            & (newton < upper)
        )
        q = np.where(inside, newton, 0.5 * (lower + upper))
        if np.all(upper - lower <= tiny * np.maximum(upper, 1.0)):
            break
    return np.minimum(q, q_max)


def _dense_responses(prices, costs, value_contribution, q_max):
    """``_raw_responses`` on top of the dense oracle."""
    responses = np.clip(prices / (2.0 * costs), 0.0, q_max)
    stake = value_contribution > 0
    if np.any(stake):
        responses[stake] = _dense_bracketed_newton_cubic(
            prices[stake],
            costs[stake],
            value_contribution[stake],
            q_max[stake],
        )
    return responses


def _random_economy(rng, n):
    """Costs, stakes ``vA``, caps and prices spanning the hard corners.

    Stakes run from 1e-18 to 1e8 with some zero-stake rows; prices mix
    ordinary, negative, zero and very large values; some caps are below 1.
    """
    costs = 10.0 ** rng.uniform(-1.0, 2.0, size=n)
    stakes = np.where(
        rng.random(n) < 0.15, 0.0, 10.0 ** rng.uniform(-18.0, 8.0, size=n)
    )
    q_max = np.where(rng.random(n) < 0.3, rng.uniform(0.05, 1.0, size=n), 1.0)
    kind = rng.integers(0, 4, size=n)
    prices = np.select(
        [kind == 0, kind == 1, kind == 2],
        [
            rng.normal(0.0, 25.0, size=n),
            -(10.0 ** rng.uniform(-3.0, 6.0, size=n)),
            np.zeros(n),
        ],
        10.0 ** rng.uniform(3.0, 9.0, size=n),
    )
    return prices, costs, stakes, q_max


def _bits(array):
    return np.asarray(array, dtype=float).view(np.int64)


@pytest.fixture(params=["default", "eager"])
def retirement(request, monkeypatch):
    """Default retirement, or retiring rows of any size as soon as one
    freezes, so small economies exercise the compaction path too."""
    if request.param == "eager":
        monkeypatch.setattr(best_response_module, "_RETIRE_MIN_ROWS", 1)
        monkeypatch.setattr(best_response_module, "_RETIRE_SHARE", 1e-12)
    return request.param


class TestActiveSetNewtonBitIdentity:
    """Retiring converged rows leaves every bit of q as the dense loop's."""

    @pytest.mark.parametrize("n", [1, 2, 17, 300, 5000])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_economies_through_best_response_vector(
        self, retirement, n, seed
    ):
        from repro.game import ClientPopulation

        rng = np.random.default_rng([n, seed])
        prices, costs, stakes, q_max = _random_economy(rng, n)
        population = ClientPopulation(
            weights=np.full(n, 1.0 / n),
            gradient_bounds=np.ones(n),
            costs=costs,
            values=stakes,
            q_max=q_max,
        )
        solved = best_response_vector(prices, population, np.ones(n))
        oracle = _dense_responses(prices, costs, stakes, q_max)
        np.testing.assert_array_equal(_bits(solved), _bits(oracle))

    @pytest.mark.parametrize("max_iterations", [0, 3, 10])
    @pytest.mark.parametrize("n", [17, 5000])
    def test_iteration_cap_binds_while_rows_move(
        self, retirement, max_iterations, n
    ):
        rng = np.random.default_rng(n)
        prices, costs, stakes, q_max = _random_economy(rng, n)
        stake = stakes > 0
        rows = (prices[stake], costs[stake], stakes[stake], q_max[stake])
        oracle = _dense_bracketed_newton_cubic(
            *rows, max_iterations=max_iterations
        )
        # The cap binds: one more iteration would still move some rows.
        later = _dense_bracketed_newton_cubic(
            *rows, max_iterations=max_iterations + 1
        )
        assert np.any(_bits(oracle) != _bits(later))
        solved = _bracketed_newton_cubic(*rows, max_iterations=max_iterations)
        np.testing.assert_array_equal(_bits(solved), _bits(oracle))

    @pytest.mark.parametrize("n", [300, 5000])
    def test_retired_row_with_wide_bracket_keeps_the_rest_iterating(
        self, retirement, n
    ):
        # A NaN price freezes its row at once, with a bracket that is
        # never narrow: the dense loop then runs to max_iterations, and
        # so must every row that is still moving.
        rng = np.random.default_rng(n + 1)
        prices, costs, stakes, q_max = _random_economy(rng, n)
        stake = stakes > 0
        rows = [prices[stake], costs[stake], stakes[stake], q_max[stake]]
        without = _dense_bracketed_newton_cubic(*rows)
        rows[0] = np.append(rows[0], np.nan)
        for axis in (1, 2, 3):
            rows[axis] = np.append(rows[axis], 1.0)
        oracle = _dense_bracketed_newton_cubic(*rows)
        assert np.isnan(oracle[-1])
        assert np.any(_bits(oracle[:-1]) != _bits(without))
        solved = _bracketed_newton_cubic(*rows)
        np.testing.assert_array_equal(_bits(solved), _bits(oracle))


class TestActiveSetNewtonMemory:
    def test_peak_no_higher_than_the_dense_loop(self):
        """In-place updates: a 100k-row solve allocates no more at peak
        than the dense loop did."""
        rng = np.random.default_rng(7)
        n = 100_000
        price = rng.normal(0.0, 25.0, size=n)
        cost = rng.uniform(0.1, 80.0, size=n)
        stake = rng.exponential(5.0, size=n) * rng.exponential(0.3, size=n)
        q_max = rng.uniform(0.2, 1.0, size=n)
        peaks = []
        for solve in (_dense_bracketed_newton_cubic, _bracketed_newton_cubic):
            tracemalloc.start()
            try:
                solve(price, cost, stake, q_max)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        dense_peak, active_peak = peaks
        assert active_peak <= dense_peak


class TestSettledNewtonCubic:
    @pytest.mark.parametrize("n", [17, 300, 5000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agrees_with_the_reference_and_solves_eq13(self, n, seed):
        rng = np.random.default_rng([n, seed])
        prices, costs, stakes, q_max = _random_economy(rng, n)
        stake = stakes > 0
        price, cost, vA, cap = (
            prices[stake], costs[stake], stakes[stake], q_max[stake]
        )
        reference = _bracketed_newton_cubic(price, cost, vA, cap)
        # Rows still moving at the reference's iteration cap never
        # converged; every other row did.
        converged = _bits(reference) == _bits(
            _bracketed_newton_cubic(price, cost, vA, cap, max_iterations=200)
        )
        assert converged.mean() > 0.99
        settled = _settled_newton_cubic(price, cost, vA, cap)
        # Eight ulps of q where q >= 1/2; below that the reference stops
        # on an absolute width, 4 eps = eight ulps of 1/2.
        gap = np.abs(settled - reference)
        allowed = 8 * np.spacing(np.maximum(reference, 0.5))
        assert np.all(gap[converged] <= allowed[converged])
        # The best-response-first-order invariant's check.
        cubic = 2.0 * cost * settled**3 - price * settled**2 - vA
        scale = 2.0 * cost * settled**3 + np.abs(price) * settled**2 + vA
        interior = np.abs(cubic) <= FIRST_ORDER_RTOL * scale
        capped = (settled == cap) & (
            2.0 * cost * cap**3 - price * cap**2 - vA
            <= FIRST_ORDER_RTOL
            * (2.0 * cost * cap**3 + np.abs(price) * cap**2 + vA)
        )
        assert np.all(interior | capped)

    def test_small_solve_stops_at_its_fixed_points(self):
        rng = np.random.default_rng(16)
        n = 16
        price = rng.normal(0.0, 25.0, size=n)
        cost = 10.0 ** rng.uniform(-1.0, 2.0, size=n)
        vA = 10.0 ** rng.uniform(-4.0, 2.0, size=n)
        cap = np.where(rng.random(n) < 0.3, rng.uniform(0.05, 1.0, n), 1.0)
        full = _settled_newton_cubic(price, cost, vA, cap)
        capped = _settled_newton_cubic(
            price, cost, vA, cap, max_iterations=20
        )
        np.testing.assert_array_equal(_bits(capped), _bits(full))
        early = _settled_newton_cubic(price, cost, vA, cap, max_iterations=2)
        assert np.any(_bits(early) != _bits(full))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cold_bracket_rows_stay_finite_and_capped(self, seed):
        rng = np.random.default_rng([5000, seed])
        prices, costs, stakes, q_max = _random_economy(rng, 5000)
        stake = stakes > 0
        price = np.append(prices[stake], np.nan)
        cost = np.append(costs[stake], 1.0)
        vA = np.append(stakes[stake], 1.0)
        cap = np.append(q_max[stake], 1.0)
        lower, _ = _cubic_bracket(price, 2.0 * cost, vA, cap)
        # Closed-form lower ends are positive, so a zero marks a row that
        # failed its sign check and took the cold bracket.
        cold = lower[:-1] == 0.0
        assert cold.sum() > 10
        q = _settled_newton_cubic(price, cost, vA, cap)
        assert np.isnan(q[-1])
        q, cap = q[:-1], cap[:-1]
        assert np.all(np.isfinite(q))
        assert np.all((q >= 0.0) & (q <= cap))
