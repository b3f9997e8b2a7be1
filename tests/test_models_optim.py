"""Tests for SGD, deterministic GD, and learning-rate schedules."""

import numpy as np
import pytest
from helpers import RidgeRegression

from repro.models import (
    ExponentialDecaySchedule,
    MultinomialLogisticRegression,
    gradient_descent,
    sgd_steps,
    theorem1_schedule,
)


@pytest.fixture()
def ridge_problem():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(50, 4))
    targets = features @ np.array([0.5, -1.0, 2.0, 0.0]) + 1.0
    model = RidgeRegression(4, l2=0.05)
    return model, features, targets


class TestSchedules:
    def test_theorem1_formula(self):
        schedule = theorem1_schedule(2.0, 0.1, 10)
        # offset = max(16, 1) = 16 -> eta_0 = 2/16
        assert schedule(0) == pytest.approx(2.0 / 16.0)
        assert schedule(10) == pytest.approx(2.0 / 17.0)

    def test_theorem1_decreasing(self):
        schedule = theorem1_schedule(3.0, 0.2, 5)
        values = [schedule(r) for r in range(20)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_exponential_decay(self):
        schedule = ExponentialDecaySchedule(initial=0.1, decay=0.996)
        assert schedule(0) == pytest.approx(0.1)
        assert schedule(100) == pytest.approx(0.1 * 0.996**100)

    def test_constant_schedule(self):
        schedule = ExponentialDecaySchedule(0.05, decay=1.0)
        assert schedule(0) == schedule(999) == 0.05

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ValueError):
            theorem1_schedule(-1.0, 0.1, 5)
        with pytest.raises(ValueError):
            ExponentialDecaySchedule(initial=0.0)


class TestSgd:
    def test_sgd_decreases_loss(self, ridge_problem):
        model, features, targets = ridge_problem
        start = model.init_params()
        out = sgd_steps(
            model,
            start,
            features,
            targets,
            step_size=0.05,
            num_steps=100,
            batch_size=8,
            rng=0,
        )
        assert model.loss(out, features, targets) < model.loss(
            start, features, targets
        )

    def test_sgd_does_not_mutate_input(self, ridge_problem):
        model, features, targets = ridge_problem
        start = model.init_params()
        before = start.copy()
        sgd_steps(
            model,
            start,
            features,
            targets,
            step_size=0.05,
            num_steps=10,
            batch_size=8,
            rng=0,
        )
        assert np.array_equal(start, before)

    def test_sgd_reproducible_with_seed(self, ridge_problem):
        model, features, targets = ridge_problem
        kwargs = dict(step_size=0.05, num_steps=20, batch_size=8)
        a = sgd_steps(model, model.init_params(), features, targets, rng=7, **kwargs)
        b = sgd_steps(model, model.init_params(), features, targets, rng=7, **kwargs)
        assert np.array_equal(a, b)

    def test_sgd_batch_larger_than_dataset_ok(self, ridge_problem):
        model, features, targets = ridge_problem
        out = sgd_steps(
            model,
            model.init_params(),
            features[:5],
            targets[:5],
            step_size=0.01,
            num_steps=5,
            batch_size=100,
            rng=0,
        )
        assert out.shape == (model.num_params,)

    def test_sgd_invalid_args(self, ridge_problem):
        model, features, targets = ridge_problem
        with pytest.raises(ValueError):
            sgd_steps(
                model, model.init_params(), features, targets,
                step_size=0.0, num_steps=1, batch_size=1,
            )
        with pytest.raises(ValueError):
            sgd_steps(
                model, model.init_params(), features, targets,
                step_size=0.1, num_steps=0, batch_size=1,
            )


class TestGradientDescent:
    def test_reaches_closed_form_optimum(self, ridge_problem):
        model, features, targets = ridge_problem
        solution = gradient_descent(model, features, targets, num_steps=3000)
        reference = model.closed_form_optimum(features, targets)
        assert np.allclose(solution, reference, atol=1e-4)

    def test_logistic_gd_monotone_descent(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(80, 6))
        labels = rng.integers(0, 4, size=80)
        model = MultinomialLogisticRegression(6, 4, l2=0.01)
        losses = []
        params = model.init_params()
        smoothness, _ = model.smoothness_constants(features)
        for _ in range(10):
            losses.append(model.loss(params, features, labels))
            params = gradient_descent(
                model,
                features,
                labels,
                num_steps=10,
                step_size=1.0 / smoothness,
                init=params,
            )
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))
