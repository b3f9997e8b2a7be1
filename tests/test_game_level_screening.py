"""Screened level searches: the same bytes as all-reference ones.

Each probe of the ``P^u``/``P^w`` level searches first prices the fleet
with the settling cubic solve and re-solves with the reference
``best_response_vector`` only when the probe's spending lies within the
screen's margin of the budget. The screen must never change a byte, and
both of its paths must work. The same holds for the replay that decides
most probes from a certified bracket (the ``bisection-replay``
invariant).
"""

import dataclasses
import math

import numpy as np
import pytest

import repro.game.pricing as pricing
from repro.game import UniformPricing, WeightedPricing
from repro.scenarios import ScenarioRunner, get_scenario
from repro.testing import INVARIANTS
from repro.testing.fuzzer import check_case, draw_case
from repro.testing.invariants import InvariantContext
from repro.utils.rng import spawn_rng


def _level_outcomes(problem, monkeypatch, margin=None):
    """Bytes of the four level-priced outcomes, and how many times the
    reference solver ran while pricing them."""
    calls = []
    reference = pricing.best_response_vector

    def counted(*args):
        calls.append(None)
        return reference(*args)

    with monkeypatch.context() as patch:
        if margin is not None:
            patch.setattr(pricing, "_SCREEN_MARGIN", margin)
        patch.setattr(pricing, "best_response_vector", counted)
        outcomes = [
            (
                outcome.prices.tobytes(),
                outcome.q.tobytes(),
                float(outcome.spending).hex(),
            )
            for outcome in (
                scheme_cls(method=method).apply(problem)
                for scheme_cls in (UniformPricing, WeightedPricing)
                for method in (None, "approx")
            )
        ]
    return outcomes, len(calls)


def _megafleet(seed):
    runner = ScenarioRunner(scale="ci", seed=seed)
    return runner.prepare(get_scenario("megafleet")).problem


class TestScreenBitIdentity:
    """Every probe on the reference path, or none: the same bytes."""

    def _check(self, problem, monkeypatch):
        screened, screened_calls = _level_outcomes(problem, monkeypatch)
        reference, reference_calls = _level_outcomes(
            problem, monkeypatch, margin=math.inf
        )
        unscreened, unscreened_calls = _level_outcomes(
            problem, monkeypatch, margin=0.0
        )
        assert screened == reference == unscreened
        # One reference solve per outcome is the final evaluation; an
        # infinite margin sends every probe to the reference as well.
        assert screened_calls == unscreened_calls == 4
        assert reference_calls > 4 * 10

    def test_small_problem(self, small_problem, monkeypatch):
        self._check(small_problem, monkeypatch)

    @pytest.mark.parametrize("seed", range(5))
    def test_megafleet(self, seed, monkeypatch):
        self._check(_megafleet(seed), monkeypatch)

    def test_probe_at_the_budget_takes_the_reference_path(
        self, small_problem, monkeypatch
    ):
        shape = UniformPricing.shape(small_problem.population)
        level = 3.0
        settled = pricing._LevelFamily(small_problem, shape, 0.0).spending(
            level
        )
        assert settled > 0
        at_budget = dataclasses.replace(small_problem, budget=settled)
        family = pricing._LevelFamily(at_budget, shape, 0.0)
        calls = []
        reference = pricing.best_response_vector

        def counted(*args):
            calls.append(None)
            return reference(*args)

        monkeypatch.setattr(pricing, "best_response_vector", counted)
        spend = family.spending(level)
        assert len(calls) == 1
        prices = level * shape
        q = reference(
            prices, small_problem.population, small_problem.contributions
        )
        assert float(spend).hex() == float(np.sum(prices * q)).hex()


class TestLevelSearchScreeningInvariant:
    def test_registered_in_the_game_family(self):
        assert INVARIANTS["level-search-screening"].family == "game"
        assert len(INVARIANTS) == 18

    @pytest.mark.parametrize("index", range(6))
    def test_clean_on_fuzz_cases(self, index):
        case = draw_case(spawn_rng(7, "fuzz", str(index)), index)
        report = check_case(case, ["level-search-screening"])[
            "level-search-screening"
        ]
        assert report.passed

    def test_the_reference_side_makes_no_settled_probes(
        self, small_problem, monkeypatch
    ):
        """The all-reference side is plain bisection: no replay steering."""
        settled = {"screened": 0, "reference": 0}

        class Counted(pricing._LevelFamily):
            def settled(self, level):
                side = "reference" if self.margin == math.inf else "screened"
                settled[side] += 1
                return super().settled(level)

        monkeypatch.setattr(pricing, "_LevelFamily", Counted)
        invariant = INVARIANTS["level-search-screening"]
        report = invariant.run(InvariantContext(small_problem, None, "uniform"))
        assert report.passed
        assert settled["reference"] == 0
        assert settled["screened"] > 0

    def test_catches_a_comparator_that_lands_on_the_wrong_side(
        self, small_problem, monkeypatch
    ):
        settled = pricing._settled_newton_cubic
        monkeypatch.setattr(
            pricing,
            "_settled_newton_cubic",
            lambda price, cost, vA, cap: 0.5 * settled(price, cost, vA, cap),
        )
        invariant = INVARIANTS["level-search-screening"]
        report = invariant.run(InvariantContext(small_problem, None, "uniform"))
        assert report.failed
        assert {v.details["scheme"] for v in report.violations} == {
            "uniform",
            "weighted",
        }


class TestBisectionReplayInvariant:
    def test_registered_in_the_game_family(self):
        assert INVARIANTS["bisection-replay"].family == "game"

    @pytest.mark.parametrize("index", range(6))
    def test_clean_on_fuzz_cases(self, index):
        case = draw_case(spawn_rng(17, "fuzz", str(index)), index)
        report = check_case(case, ["bisection-replay"])["bisection-replay"]
        assert report.passed

    def test_catches_a_bracket_that_claims_too_much(
        self, small_problem, monkeypatch
    ):
        certified = pricing._certified_bracket

        def halved(*args):
            low, high = certified(*args)
            return low, 0.5 * high

        monkeypatch.setattr(pricing, "_certified_bracket", halved)
        invariant = INVARIANTS["bisection-replay"]
        report = invariant.run(InvariantContext(small_problem, None, "uniform"))
        assert report.failed
        assert {v.details["scheme"] for v in report.violations} == {
            "uniform",
            "weighted",
        }
