"""Pricing schemes: the optimal mechanism and the paper's two benchmarks.

* :class:`OptimalPricing` — the SE prices from the CPL game.
* :class:`UniformPricing` — one price for every client (benchmark ``P^u``).
* :class:`WeightedPricing` — prices proportional to datasize (benchmark
  ``P^w``).

The benchmarks spend the same budget ``B``: their scalar price level is set
by bisection so that total payment under the clients' best responses equals
``B`` (total payment is continuous and strictly increasing in the level, so
the budget-tight level is unique).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.game.best_response import (
    _raw_responses,
    _settled_newton_cubic,
    best_response_vector,
    bucket_representatives,
)
from repro.game.client_model import ClientPopulation
from repro.game.equilibrium import (
    StackelbergEquilibrium,
    check_stage1_method,
    population_utilities,
    solve_cpl_game,
)
from repro.game.server_problem import (
    ServerProblem,
    _bisect,
    _certified_bracket,
    _expand,
    _refine,
    _replay,
)


@dataclass(frozen=True)
class PricingOutcome:
    """Prices, induced participation, and scores of one pricing scheme."""

    scheme: str
    prices: np.ndarray
    q: np.ndarray
    spending: float
    objective_gap: float
    expected_loss: float
    client_utilities: np.ndarray
    equilibrium: Optional[StackelbergEquilibrium] = None

    @property
    def payments(self) -> np.ndarray:
        """Per-client payments ``P_n q_n``."""
        return self.prices * self.q

    @property
    def total_client_utility(self) -> float:
        """``sum_n U_n`` — the Table-IV quantity."""
        return float(self.client_utilities.sum())


def evaluate_posted_prices(
    problem: ServerProblem,
    prices: Sequence[float],
    scheme: str,
    *,
    equilibrium: Optional[StackelbergEquilibrium] = None,
) -> PricingOutcome:
    """Score an arbitrary posted price vector under client best responses."""
    prices = np.asarray(prices, dtype=float)
    q = best_response_vector(prices, problem.population, problem.contributions)
    q = np.maximum(q, 1e-9)
    return PricingOutcome(
        scheme=scheme,
        prices=prices,
        q=q,
        spending=float(np.sum(prices * q)),
        objective_gap=problem.objective_gap(q),
        expected_loss=problem.expected_loss(q),
        client_utilities=population_utilities(problem, q, prices),
        equilibrium=equilibrium,
    )


class PricingScheme(ABC):
    """A rule mapping a :class:`ServerProblem` to posted prices."""

    name: str = "abstract"

    @abstractmethod
    def apply(self, problem: ServerProblem) -> PricingOutcome:
        """Compute prices for ``problem`` and score them."""


# The level searches' relative stopping width, and the approximate search's
# bucket count and exact probes past its guess.
_LEVEL_TOLERANCE = 1e-9
_LEVEL_BUCKETS = 256
_LEVEL_PROBES = 8

# The screen's relative margin (see _LevelFamily.probe). Below 2^38
# clients it bounds |settled - reference| spending twice over:
# * rounding: each side forms N products P q and sums them pairwise, and
#   numpy's pairwise summation adds a term at most 25 + log2(N) times,
#   so each side is off by under 32 eps sum|P q|;
# * the answers: the reference stops with a bracket of width at most
#   4 eps max(upper, 1) around the root, the settled solve within a few
#   ulps of it, and min(q, q_max) with q_max <= 1 keeps the two q's
#   within 16 eps of each other, which moves the sum by 16 eps sum|P|.
_SCREEN_MARGIN = 64.0 * np.finfo(float).eps


class _LevelFamily:
    """Spending at a price level ``level * shape``, screened, per probe.

    A level search only asks which side of the budget each probe lands
    on. So a probe first prices every client with the settling Newton
    solve (:func:`~repro.game.best_response._settled_newton_cubic`),
    which agrees with :func:`best_response_vector` to within the
    reference's own stopping width at a fraction of its iterations. When
    that spending is farther from the budget than
    ``margin * (sum|P q| + sum|P|)``, and ``_SCREEN_MARGIN`` bounds the
    gap, the reference spending lies on the same side, so the probe
    returns the settled spending. Otherwise it re-solves with
    :func:`best_response_vector` and returns the reference spending. A
    search over these probes takes every branch it takes over reference
    probes, and so returns the same bits. The margin assumes the
    reference converged within its iteration cap.

    A settled spending that clears the screen also certifies the levels
    beyond its own (see :meth:`probe`), so a search replays its probes
    through :meth:`search` and evaluates only the few near the root.

    Everything that does not depend on the level (the shape, costs, stake
    ``v A``, ``q_max`` and the stake rows) is computed once per
    ``_LevelPricing.apply``.
    """

    def __init__(
        self,
        problem: ServerProblem,
        shape: np.ndarray,
        margin: float,
        replay: bool = True,
    ):
        population = problem.population
        self.population = population
        self.contributions = problem.contributions
        self.budget = problem.budget
        self.shape = shape
        self.margin = margin
        self.replay = replay
        self.twice_costs = 2.0 * population.costs
        self.q_max = population.q_max
        value_contribution = population.values * self.contributions
        self.stake = value_contribution > 0
        self.stake_costs = population.costs[self.stake]
        self.stake_value = value_contribution[self.stake]
        self.stake_q_max = self.q_max[self.stake]

    def _settled(self, level: float) -> Tuple[np.ndarray, np.ndarray]:
        """Prices at ``level`` and their payments ``P q`` under the
        settling solve."""
        prices = level * self.shape
        q = np.clip(prices / self.twice_costs, 0.0, self.q_max)
        q[self.stake] = _settled_newton_cubic(
            prices[self.stake], self.stake_costs, self.stake_value,
            self.stake_q_max,
        )
        return prices, prices * q

    def settled(self, level: float) -> float:
        """The settled spending at ``level``, unscreened: an estimate."""
        return float(np.sum(self._settled(level)[1]))

    def probe(self, level: float) -> Tuple[float, bool]:
        """The screened spending at ``level``, and whether it certifies.

        A probe at ``a > 0`` whose settled spending ``S`` clears the
        screen, ``|S - B| > margin * sigma`` with ``sigma = sum|P q| +
        sum|P|``, certifies the reference spending's side at every level
        beyond ``a`` (above it if ``S > B``, in ``[0, a]`` if not), when
        ``margin >= _SCREEN_MARGIN`` and ``B > 0``. Let ``T(m)`` be the
        exact spending of the rounded prices ``P(m) = fl(m shape)`` at
        their exact best responses ``q*``. Then:

        * every computed spending at ``m``, settled or reference, is
          within ``32 eps T(m) + 8 eps sum P(m)`` of ``T(m)``: the
          screen's bound above, split between its two sides (each
          ``q`` is within 8 eps of ``q*``);
        * ``P >= 0`` and ``q*`` is non-decreasing in ``P``, and rounding
          is monotone, so for ``m >= a``, ``T(m) >= (m/a)(1 - eps) T(a)``
          and ``sum P(m) <= (m/a)(1 + eps) sum P(a)``; for ``m <= a``
          the same holds with the inequalities reversed.

        Together, the reference spending at ``m >= a`` is at least
        ``(m/a)(S - 65 eps T(a) - 17 eps sum P(a))`` to first order, and
        at ``m <= a`` at most ``(m/a)(S + 65 eps T(a) + 17 eps sum P(a))``.
        As ``q* <= q_max <= 1``, ``T <= sum P``, so ``margin * sigma``
        covers both error terms with room for the second-order ones.
        With ``S > B > 0`` the first bound exceeds ``B`` for ``m/a >= 1``,
        and with ``S < B`` the second stays below ``B`` for ``m/a <= 1``.
        A probe that falls back to the reference certifies nothing.
        """
        prices, payments = self._settled(level)
        spend = float(np.sum(payments))
        scale = float(np.sum(np.abs(payments)) + np.sum(np.abs(prices)))
        if abs(spend - self.budget) > self.margin * scale:
            return spend, True
        q = best_response_vector(prices, self.population, self.contributions)
        return float(np.sum(prices * q)), False

    def spending(self, level: float) -> float:
        """Total payment ``sum_n P_n q_n`` at ``P = level * shape``."""
        return self.probe(level)[0]

    def search(self, hint: float) -> Callable[[float], float]:
        """The spending a level search probes, replayed near ``hint``.

        A certified bracket (:func:`_certified_bracket`) comes from
        settled probes stepping up from ``hint`` and an Illinois estimate
        on them, then two screened probes beside the estimate. The
        returned stand-in for :meth:`spending` decides every level outside
        that bracket without a probe (:func:`_replay`); the search returns
        the same bits. With ``replay=False`` it is :meth:`spending`.
        """
        if not self.replay:
            return self.spending
        # Level 0 prices nothing and so spends 0.
        bracket = _certified_bracket(
            self.settled, self.probe, self.budget, 0.0, 0.0, hint,
            _LEVEL_TOLERANCE,
        )
        return _replay(self.spending, bracket)


def _budget_tight_level(
    spend_at: Callable[[float], float], budget: float
) -> float:
    """Find ``level >= 0`` with ``spend_at(level) == budget`` by bisection.

    ``spend_at`` must be continuous and non-decreasing with
    ``spend_at(0) <= budget`` (always true here: a zero price means zero
    payment regardless of participation).
    """
    if budget <= 0:
        return 0.0
    hi = _expand(spend_at, budget, 1.0)
    lo, hi = _bisect(spend_at, budget, 0.0, hi, _LEVEL_TOLERANCE)
    return 0.5 * (lo + hi)


def _approx_budget_level(
    problem: ServerProblem,
    shape: np.ndarray,
    search: Callable[[float], Callable[[float], float]],
) -> float:
    """Fast-tier budget-tight level: bucketed search + bounded refinement.

    Runs :func:`_budget_tight_level` on a <= 256-client surrogate fleet
    (each bisection probe solves O(buckets) cubics instead of O(N)), then
    polishes the level with a bounded number of *exact* spending probes,
    ``search(guess)`` (:meth:`_LevelFamily.search`, replayed near the
    surrogate's guess).
    The returned level is the feasible side of the final bracket, level 0
    (zero price, zero spend) at worst, so the approximate tier never
    overspends the real fleet's budget; the bucketing error only steers
    where the bounded refinement starts.
    """
    if problem.budget <= 0:
        return 0.0
    counts, costs_b, stake_b, q_max_b, shape_b = bucket_representatives(
        problem.population,
        problem.contributions,
        shape=shape,
        num_buckets=_LEVEL_BUCKETS,
    )

    def bucketed_spend(level: float) -> float:
        prices = level * shape_b
        q = _raw_responses(prices, costs_b, stake_b, q_max_b)
        return float(counts @ (prices * q))

    guess = _budget_tight_level(bucketed_spend, problem.budget)
    return _refine(
        search(guess), problem.budget, guess, 0.0, _LEVEL_PROBES,
        _LEVEL_TOLERANCE,
    )


class OptimalPricing(PricingScheme):
    """The paper's mechanism: SE prices of the CPL game."""

    name = "proposed"

    def __init__(self, method: str = "kkt"):
        check_stage1_method(method)
        self.method = method

    def apply(self, problem: ServerProblem) -> PricingOutcome:
        equilibrium = solve_cpl_game(problem, method=self.method)
        outcome = evaluate_posted_prices(
            problem, equilibrium.prices, self.name, equilibrium=equilibrium
        )
        return outcome


class _LevelPricing(PricingScheme):
    """Budget-tight prices: one scalar level times a per-client shape.

    ``method=None`` (default) finds the budget-tight level with exact
    O(N) spending probes; ``method="approx"`` is the fast tier's bucketed
    level search with a bounded exact refinement. ``None`` keeps the
    scheme spec — and hence historical cache keys — unchanged.
    """

    def __init__(self, method: Optional[str] = None):
        if method not in (None, "approx"):
            raise ValueError(f"method must be None or 'approx', got {method!r}")
        self.method = method

    @staticmethod
    @abstractmethod
    def shape(population: ClientPopulation) -> np.ndarray:
        """The per-client price multipliers."""

    def apply(self, problem: ServerProblem) -> PricingOutcome:
        return self._apply(problem, _SCREEN_MARGIN)

    def _apply(
        self, problem: ServerProblem, margin: float, replay: bool = True
    ) -> PricingOutcome:
        """:meth:`apply` with the screen's relative ``margin``.

        Any margin gives the same bytes; ``math.inf`` sends every probe
        to the reference solver and certifies none. ``replay=False``
        probes every step of the search, for the same bytes again.
        """
        shape = self.shape(problem.population)
        family = _LevelFamily(problem, shape, margin, replay)
        if self.method == "approx":
            level = _approx_budget_level(problem, shape, family.search)
        else:
            level = _budget_tight_level(family.search(1.0), problem.budget)
        del family  # frees its arrays before the final solve
        return evaluate_posted_prices(problem, level * shape, self.name)


class UniformPricing(_LevelPricing):
    """Benchmark ``P^u``: the same price for every client, budget-tight."""

    name = "uniform"

    @staticmethod
    def shape(population: ClientPopulation) -> np.ndarray:
        return np.ones(population.num_clients)


class WeightedPricing(_LevelPricing):
    """Benchmark ``P^w``: prices proportional to datasize, budget-tight."""

    name = "weighted"

    @staticmethod
    def shape(population: ClientPopulation) -> np.ndarray:
        # Normalize so the level has the same scale as a uniform price.
        return population.weights * population.num_clients
