"""The value-unit calibration against the full scan it replaced.

``calibrate_value_scale`` stops at the first grid point whose error is
exactly 0. The oracle here is the full scan: every grid point solved with
``solve_cpl_game``, no exit. The chosen scale must keep its bits.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.experiments.setup as experiments_setup
import repro.scenarios.runner as scenarios_runner
from repro.experiments import SCALES, SETUPS, apply_scale, prepare_setup
from repro.experiments.setup import (
    _TARGET_NEGATIVE_FRACTION,
    calibrate_value_scale,
)
from repro.game import solve_cpl_game
from repro.scenarios import ScenarioRunner, get_scenario, list_scenarios


def _oracle_scale(
    base_problem,
    raw_values,
    mean_value,
    *,
    target_fraction=_TARGET_NEGATIVE_FRACTION,
    grid_decades=6.0,
    grid_points=49,
):
    """The full scan: every grid point through ``solve_cpl_game``."""
    if mean_value <= 0:
        return 1.0
    population = base_problem.population
    contributions = base_problem.contributions
    typical_cost_spend = float(np.mean(2.0 * population.costs * 0.25))
    typical_value_spend = float(
        np.mean(raw_values * mean_value * contributions / 0.5)
    )
    center = typical_cost_spend / max(typical_value_spend, 1e-300)
    exponents = np.linspace(-grid_decades / 2, grid_decades / 2, grid_points)
    best_scale, best_error = 1.0, np.inf
    for scale in center * 10.0**exponents:
        problem = dataclasses.replace(
            base_problem,
            population=population.with_values(
                raw_values * mean_value * scale
            ),
        )
        equilibrium = solve_cpl_game(problem)
        if not equilibrium.budget_tight:
            continue
        fraction = (
            equilibrium.negative_payment_clients.size / problem.num_clients
        )
        error = abs(fraction - target_fraction)
        if error < best_error or (
            error == best_error and scale < best_scale
        ):
            best_error, best_scale = error, float(scale)
    return best_scale


def _record_calibrations(monkeypatch):
    """Record every calibration's arguments and answer."""
    calls = []

    def recording(*args, **kwargs):
        scale = calibrate_value_scale(*args, **kwargs)
        calls.append((args, kwargs, scale))
        return scale

    monkeypatch.setattr(experiments_setup, "calibrate_value_scale", recording)
    monkeypatch.setattr(scenarios_runner, "calibrate_value_scale", recording)
    return calls


def _assert_scales_match_the_oracle(calls):
    assert calls
    for args, kwargs, scale in calls:
        assert scale.hex() == _oracle_scale(*args, **kwargs).hex()


class TestAgainstTheFullScan:
    @pytest.mark.parametrize("seed", range(5))
    def test_every_scenario_and_setup(self, seed, monkeypatch):
        calls = _record_calibrations(monkeypatch)
        runner = ScenarioRunner(scale="ci", seed=seed)
        for spec in list_scenarios():
            if spec.name != "megafleet-100k":
                runner.prepare(spec)
        # The training scenarios' base setup is Setup 1's own prepare.
        assert any(key.startswith("setup1/") for key in runner._base_setups)
        scale = SCALES["ci"]
        for name in ("setup2", "setup3"):
            prepare_setup(
                apply_scale(SETUPS[name], scale), scale=scale, seed=seed
            )
        _assert_scales_match_the_oracle(calls)

    def test_megafleet_100k(self, monkeypatch):
        calls = _record_calibrations(monkeypatch)
        ScenarioRunner(scale="ci", seed=0).prepare(
            get_scenario("megafleet-100k")
        )
        _assert_scales_match_the_oracle(calls)

    def test_an_exact_hit_ends_the_scan(self, monkeypatch):
        solved = []
        solve = experiments_setup.solve_cpl_game

        def counted(problem):
            solved.append(problem)
            return solve(problem)

        monkeypatch.setattr(experiments_setup, "solve_cpl_game", counted)
        calls = _record_calibrations(monkeypatch)
        ScenarioRunner(scale="ci", seed=0).prepare(get_scenario("megafleet"))
        assert len(calls) == 1
        assert len(solved) <= 1
        _assert_scales_match_the_oracle(calls)

    def test_off_grid_scale_when_no_point_binds(self, small_problem):
        slack = dataclasses.replace(small_problem, budget=1e12)
        raw = np.ones(slack.num_clients)
        assert calibrate_value_scale(slack, raw, 10.0) == 1.0
        assert _oracle_scale(slack, raw, 10.0) == 1.0
