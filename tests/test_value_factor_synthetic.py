"""``value_factor`` on synthetic economies (game-only and streaming).

:func:`~repro.scenarios.runner.synthetic_problem` calibrates the value
units at the setup's base mean value and applies the population's
``value_factor`` after, as :meth:`PreparedSetup.with_mean_value` does for
eager scenarios. Calibrating at the scaled mean would cancel the factor,
because the calibration grid is centred on the mean it is given.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.scenarios.runner as scenario_runner
from repro.experiments.orchestrator import TrainJob, job_key
from repro.experiments.runner import run_history
from repro.game import build_mechanism
from repro.scenarios import PopulationSpec, ScenarioRunner, ScenarioSpec

FACTOR = 20.0
TRAIN_SEED = 3

GAME_ONLY = ScenarioSpec(
    name="value-factor-game",
    population=PopulationSpec(num_clients=200),
    train=False,
)
STREAMING = ScenarioSpec(
    name="value-factor-streaming",
    population=PopulationSpec(num_clients=40),
    streaming=True,
)


def _with_factor(spec, factor):
    population = dataclasses.replace(spec.population, value_factor=factor)
    return dataclasses.replace(spec, population=population)


def _prepare(spec, monkeypatch):
    """The prepared scenario and every ``calibrate_value_scale`` call."""
    calls = []
    calibrate = scenario_runner.calibrate_value_scale

    def spy(base, raw_values, mean_value, **kwargs):
        scale = calibrate(base, raw_values, mean_value, **kwargs)
        calls.append((np.array(raw_values), mean_value, scale))
        return scale

    with monkeypatch.context() as patch:
        patch.setattr(scenario_runner, "calibrate_value_scale", spy)
        concrete = ScenarioRunner(scale="ci", seed=0).prepare(spec)
    return concrete, calls


@pytest.mark.parametrize("spec", [GAME_ONLY, STREAMING], ids=["game", "stream"])
def test_values_scale_by_the_factor_at_the_base_calibration(spec, monkeypatch):
    base, base_calls = _prepare(spec, monkeypatch)
    scaled, calls = _prepare(_with_factor(spec, FACTOR), monkeypatch)
    [(raw, mean, scale)] = calls
    assert mean == scaled.config.mean_value
    assert [call[1:] for call in base_calls] == [call[1:] for call in calls]
    expected = raw * (scaled.config.mean_value * FACTOR) * scale
    assert np.array_equal(scaled.problem.population.values, expected)
    assert np.allclose(
        scaled.problem.population.values,
        FACTOR * base.problem.population.values,
        rtol=1e-13,
        atol=0.0,
    )
    mechanism = build_mechanism("proposed")
    assert mechanism.apply(scaled.problem).q.tolist() != (
        mechanism.apply(base.problem).q.tolist()
    )


def test_factor_one_is_the_base_economy(monkeypatch):
    base, _ = _prepare(GAME_ONLY, monkeypatch)
    same, _ = _prepare(_with_factor(GAME_ONLY, 1.0), monkeypatch)
    assert np.array_equal(
        base.problem.population.values, same.problem.population.values
    )


def test_streaming_factor_moves_history_and_job_key(monkeypatch):
    digests, keys = [], []
    for factor in (1.0, FACTOR):
        concrete, _ = _prepare(_with_factor(STREAMING, factor), monkeypatch)
        q = build_mechanism("proposed").apply(concrete.problem).q
        history = run_history(
            concrete.prepared, q, seed=TRAIN_SEED, exclude_zero=True
        )
        job = TrainJob(
            q=tuple(float(v) for v in q), seed=TRAIN_SEED, exclude_zero=True
        )
        digests.append(history.digest())
        keys.append(job_key(concrete.prepared, job))
    assert digests[0] != digests[1]
    assert keys[0] != keys[1]
