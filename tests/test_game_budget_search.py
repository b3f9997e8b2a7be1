"""The shared budget search against the four searches it replaced.

Stage I (exact and approximate) and the budget-matched benchmarks ``P^u``
and ``P^w`` (exact and approximate) each used to run their own expand /
bisect / refine loops. The oracles below keep those loops as they were;
on economies where the approximate Stage-I surrogate reaches the budget
inside the exact bracket, the shared search must return the same bits.

The level searches replay those loops through a certified bracket
(``_certified_bracket`` / ``_replay``): the tests at the end pin that a
replayed search returns plain bisection's bracket whatever its estimate,
and that a good estimate leaves only a few probes.
"""

import math

import numpy as np
import pytest

import repro.game.pricing as pricing
from repro.game import (
    ServerProblem,
    UniformPricing,
    WeightedPricing,
    solve_stage1_approx,
    solve_stage1_kkt,
)
from repro.game.best_response import _raw_responses, bucket_representatives
from repro.game.server_problem import (
    _Q_FLOOR,
    StageIResult,
    _bisect,
    _certified_bracket,
    _expand,
    _KKTFamily,
    _replay,
)
from repro.scenarios import ScenarioRunner, get_scenario

# -- Oracles: the four searches as they were --------------------------------


def _oracle_slack_result(problem, method):
    q_cap = problem.population.q_max.copy()
    spending_cap = problem.spending(q_cap)
    if spending_cap > problem.budget:
        return None
    return StageIResult(
        q=q_cap,
        prices=problem.prices_for(q_cap),
        lambda_star=0.0,
        objective_gap=problem.objective_gap(q_cap),
        spending=spending_cap,
        budget_tight=False,
        method=method,
    )


def _oracle_tight_result(problem, family, t_star, method):
    q_star = family.q(t_star).copy()
    return StageIResult(
        q=q_star,
        prices=problem.prices_for(q_star),
        lambda_star=1.0 / t_star if t_star > 0 else math.inf,
        objective_gap=problem.objective_gap(q_star),
        spending=problem.spending(q_star),
        budget_tight=True,
        method=method,
    )


def _oracle_bracket(problem, family):
    values = problem.population.values
    t_interior_cap = (
        family.four_costs * problem.population.q_max**3 / family.contributions
        + values
    )
    t_lo = float(values.max()) if values.max() > 0 else 0.0
    t_hi = float(t_interior_cap.max())
    if t_hi <= t_lo:
        t_hi = t_lo + 1.0
    return t_lo, t_hi


def oracle_stage1_kkt(problem, tolerance=1e-10, max_iterations=500):
    slack = _oracle_slack_result(problem, "kkt")
    if slack is not None:
        return slack
    family = _KKTFamily(problem)
    t_lo, t_hi = _oracle_bracket(problem, family)
    for _ in range(100):
        if family.spending(t_hi) >= problem.budget:
            break
        t_hi *= 2.0
    for _ in range(max_iterations):
        t_mid = 0.5 * (t_lo + t_hi)
        if family.spending(t_mid) > problem.budget:
            t_hi = t_mid
        else:
            t_lo = t_mid
        if t_hi - t_lo <= tolerance * max(1.0, abs(t_hi)):
            break
    return _oracle_tight_result(problem, family, t_lo, "kkt")


def oracle_stage1_approx(
    problem, num_buckets=64, refine_iterations=30, tolerance=1e-12
):
    slack = _oracle_slack_result(problem, "approx")
    if slack is not None:
        return slack
    family = _KKTFamily(problem)
    counts, costs_b, stake_b, q_max_b, contributions_b = (
        bucket_representatives(
            problem.population,
            family.contributions,
            shape=family.contributions,
            num_buckets=num_buckets,
        )
    )

    def bucketed_spending(t):
        cube = np.maximum(contributions_b * t - stake_b, 0.0) / (4.0 * costs_b)
        q_b = np.clip(np.cbrt(cube), _Q_FLOOR, q_max_b)
        per_bucket = 2.0 * costs_b * q_b**2 - stake_b / q_b
        return float(counts @ per_bucket)

    t_floor, t_hi = _oracle_bracket(problem, family)
    t_lo = t_floor
    for _ in range(100):
        if bucketed_spending(t_hi) >= problem.budget:
            break
        t_hi *= 2.0
    for _ in range(500):
        t_mid = 0.5 * (t_lo + t_hi)
        if bucketed_spending(t_mid) > problem.budget:
            t_hi = t_mid
        else:
            t_lo = t_mid
        if t_hi - t_lo <= tolerance * max(1.0, abs(t_hi)):
            break
    t_guess = 0.5 * (t_lo + t_hi)

    remaining = refine_iterations
    t_lo = t_hi = t_guess
    width = max(1e-3 * max(abs(t_guess), 1.0), 1e-9)
    if family.spending(t_guess) > problem.budget:
        while remaining > 0:
            remaining -= 1
            t_lo = max(t_floor, t_lo - width)
            width *= 2.0
            if family.spending(t_lo) <= problem.budget or t_lo <= t_floor:
                break
    else:
        while remaining > 0:
            remaining -= 1
            t_hi = t_hi + width
            width *= 2.0
            if family.spending(t_hi) >= problem.budget:
                break
    for _ in range(max(remaining, 0)):
        t_mid = 0.5 * (t_lo + t_hi)
        if family.spending(t_mid) > problem.budget:
            t_hi = t_mid
        else:
            t_lo = t_mid
        if t_hi - t_lo <= tolerance * max(1.0, abs(t_hi)):
            break
    return _oracle_tight_result(problem, family, t_lo, "approx")


def oracle_budget_tight_level(
    spend_at, budget, tolerance=1e-9, max_doublings=200
):
    if budget <= 0:
        return 0.0
    hi = 1.0
    for _ in range(max_doublings):
        if spend_at(hi) >= budget:
            break
        hi *= 2.0
    else:
        raise RuntimeError("could not bracket the budget-tight price level")
    lo = 0.0
    while hi - lo > tolerance * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if spend_at(mid) > budget:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def oracle_approx_budget_level(
    problem,
    shape,
    exact_spend,
    num_buckets=256,
    refine_iterations=8,
    tolerance=1e-9,
):
    if problem.budget <= 0:
        return 0.0
    counts, costs_b, stake_b, q_max_b, shape_b = bucket_representatives(
        problem.population,
        problem.contributions,
        shape=shape,
        num_buckets=num_buckets,
    )

    def bucketed_spend(level):
        prices = level * shape_b
        q = _raw_responses(prices, costs_b, stake_b, q_max_b)
        return float(counts @ (prices * q))

    guess = oracle_budget_tight_level(bucketed_spend, problem.budget)

    remaining = refine_iterations
    lo = hi = max(guess, 0.0)
    width = max(1e-3 * max(guess, 1.0), 1e-9)
    if exact_spend(guess) > problem.budget:
        while remaining > 0:
            remaining -= 1
            lo = max(0.0, lo - width)
            width *= 2.0
            if exact_spend(lo) <= problem.budget or lo <= 0.0:
                break
        if exact_spend(lo) > problem.budget:
            lo = 0.0
    else:
        while remaining > 0:
            remaining -= 1
            hi = hi + width
            width *= 2.0
            if exact_spend(hi) >= problem.budget:
                break
    for _ in range(max(remaining, 0)):
        mid = 0.5 * (lo + hi)
        if exact_spend(mid) > problem.budget:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tolerance * max(1.0, hi):
            break
    return lo


# -- Byte comparisons --------------------------------------------------------


def _stage1_bytes(result):
    return (
        result.q.tobytes(),
        result.prices.tobytes(),
        float(result.lambda_star).hex(),
        float(result.spending).hex(),
        result.budget_tight,
        result.method,
    )


def _level_schemes_bytes(problem):
    return [
        (outcome.prices.tobytes(), outcome.q.tobytes())
        for outcome in (
            scheme_cls(method=method).apply(problem)
            for scheme_cls in (UniformPricing, WeightedPricing)
            for method in (None, "approx")
        )
    ]


def _assert_same_bits(problem, monkeypatch):
    assert _stage1_bytes(solve_stage1_kkt(problem)) == _stage1_bytes(
        oracle_stage1_kkt(problem)
    )
    assert _stage1_bytes(solve_stage1_approx(problem)) == _stage1_bytes(
        oracle_stage1_approx(problem)
    )
    shared = _level_schemes_bytes(problem)
    with monkeypatch.context() as patch:
        # The oracles probe every step through the plain screened spending.
        patch.setattr(
            pricing._LevelFamily, "search", lambda self, hint: self.spending
        )
        patch.setattr(pricing, "_budget_tight_level", oracle_budget_tight_level)
        patch.setattr(
            pricing,
            "_approx_budget_level",
            lambda problem, shape, search: oracle_approx_budget_level(
                problem, shape, search(None)
            ),
        )
        oracle = _level_schemes_bytes(problem)
    assert shared == oracle


class TestSharedSearchBitIdentity:
    def test_small_problem(self, small_problem, monkeypatch):
        assert solve_stage1_kkt(small_problem).budget_tight
        _assert_same_bits(small_problem, monkeypatch)

    def test_slack_budget(self, small_population, monkeypatch):
        problem = ServerProblem(
            population=small_population,
            alpha=5_000.0,
            num_rounds=200,
            budget=1e9,
        )
        assert not solve_stage1_kkt(problem).budget_tight
        _assert_same_bits(problem, monkeypatch)

    def test_zero_budget(self, small_population, monkeypatch):
        problem = ServerProblem(
            population=small_population,
            alpha=5_000.0,
            num_rounds=200,
            budget=0.0,
        )
        assert solve_stage1_kkt(problem).budget_tight
        _assert_same_bits(problem, monkeypatch)

    @pytest.mark.parametrize("seed", range(5))
    def test_megafleet(self, seed, monkeypatch):
        runner = ScenarioRunner(scale="ci", seed=seed)
        problem = runner.prepare(get_scenario("megafleet")).problem
        _assert_same_bits(problem, monkeypatch)


# -- The replayed search -----------------------------------------------------


def _cubic_curve(x):
    """A non-decreasing curve with one crossing of ``BUDGET``."""
    return x**3 - 2.0 * x


BUDGET = 5.0


def _counted(spend):
    calls = []

    def counted(x):
        calls.append(x)
        return spend(x)

    return counted, calls


def _exact_probe(x):
    # The curve is computed exactly enough that every probe certifies.
    return _cubic_curve(x), True


class TestReplayedBisection:
    """``_bisect`` over ``_replay``'s stand-in returns plain ``_bisect``'s
    bracket, however good or bad the estimate behind the bracket."""

    def _plain(self):
        hi = _expand(_cubic_curve, BUDGET, 1.0)
        return _bisect(_cubic_curve, BUDGET, 0.0, hi, 1e-12)

    def _replayed(self, settled):
        bracket = _certified_bracket(
            settled, _exact_probe, BUDGET, 0.0, 0.0, 1.0, 1e-12
        )
        spend, calls = _counted(_cubic_curve)
        replayed = _replay(spend, bracket)
        hi = _expand(replayed, BUDGET, 1.0)
        return _bisect(replayed, BUDGET, 0.0, hi, 1e-12), calls

    def test_a_good_estimate_leaves_few_probes(self):
        bracket, calls = self._replayed(_cubic_curve)
        assert [x.hex() for x in bracket] == [
            x.hex() for x in self._plain()
        ]
        assert len(calls) <= 2

    @pytest.mark.parametrize(
        "settled",
        [
            lambda x: _cubic_curve(x / 40.0),  # estimate far above [lo, hi]
            lambda x: _cubic_curve(x * 40.0),  # far below the root
            lambda x: _cubic_curve(x) + 1e-3,  # near, but off by > delta
            lambda x: -1.0,  # never reaches the budget
        ],
    )
    def test_an_adversarial_estimate_returns_plain_bisection(self, settled):
        bracket, calls = self._replayed(settled)
        assert [x.hex() for x in bracket] == [
            x.hex() for x in self._plain()
        ]
        # A bad estimate costs probes, never more than plain bisection's.
        plain_spend, plain_calls = _counted(_cubic_curve)
        hi = _expand(plain_spend, BUDGET, 1.0)
        _bisect(plain_spend, BUDGET, 0.0, hi, 1e-12)
        assert len(calls) <= len(plain_calls)

    def test_an_uncertified_probe_decides_nothing(self):
        bracket = _certified_bracket(
            _cubic_curve,
            lambda x: (_cubic_curve(x), False),
            BUDGET, 0.0, 0.0, 1.0, 1e-12,
        )
        assert bracket == (-math.inf, math.inf)


def _misleading_family(factor):
    """A level family whose settled estimate sits at ``factor`` times the
    true level."""

    class Misleading(pricing._LevelFamily):
        def settled(self, level):
            return super().settled(level / factor)

    return Misleading


def _level_bytes(outcome):
    return (
        outcome.prices.tobytes(),
        outcome.q.tobytes(),
        float(outcome.spending).hex(),
    )


LEVEL_SCHEMES = [
    scheme_cls(method=method)
    for scheme_cls in (UniformPricing, WeightedPricing)
    for method in (None, "approx")
]


class TestReplayedLevelSearch:
    @pytest.mark.parametrize("factor", [1e-3, 0.5, 3.0, 1e4])
    @pytest.mark.parametrize(
        "scheme", LEVEL_SCHEMES, ids=lambda s: f"{s.name}-{s.method}"
    )
    def test_a_misleading_estimate_prices_the_same_bytes(
        self, small_problem, monkeypatch, scheme, factor
    ):
        plain = scheme._apply(
            small_problem, pricing._SCREEN_MARGIN, replay=False
        )
        monkeypatch.setattr(
            pricing, "_LevelFamily", _misleading_family(factor)
        )
        assert _level_bytes(scheme.apply(small_problem)) == _level_bytes(
            plain
        )

    @pytest.mark.parametrize(
        "scheme", LEVEL_SCHEMES, ids=lambda s: f"{s.name}-{s.method}"
    )
    def test_margins_zero_and_inf_give_the_same_bytes(
        self, small_problem, scheme
    ):
        """Margin 0 certifies every settled probe, margin inf none."""
        assert (
            _level_bytes(scheme._apply(small_problem, 0.0))
            == _level_bytes(scheme._apply(small_problem, math.inf))
            == _level_bytes(
                scheme._apply(small_problem, math.inf, replay=False)
            )
        )

    def test_megafleet_100k_uniform_search_makes_few_screened_probes(
        self, monkeypatch
    ):
        problem = (
            ScenarioRunner(scale="ci", seed=0)
            .prepare(get_scenario("megafleet-100k"))
            .problem
        )
        counts = {"probe": 0, "settled": 0, "reference": 0}

        class Counted(pricing._LevelFamily):
            def settled(self, level):
                counts["settled"] += 1
                return super().settled(level)

            def probe(self, level):
                counts["probe"] += 1
                spend, certified = super().probe(level)
                counts["reference"] += not certified
                return spend, certified

        plain = UniformPricing()._apply(
            problem, pricing._SCREEN_MARGIN, replay=False
        )
        monkeypatch.setattr(pricing, "_LevelFamily", Counted)
        replayed = UniformPricing().apply(problem)
        assert _level_bytes(replayed) == _level_bytes(plain)
        assert counts["probe"] <= 4
        assert counts["reference"] == 0
        assert counts["settled"] <= 16
