"""Tests for the convex models: gradients, convexity constants, optima."""

import numpy as np
import pytest
from helpers import RidgeRegression

from repro.models import MultinomialLogisticRegression


def _numerical_gradient(fn, params, eps=1e-6):
    grad = np.zeros_like(params)
    for i in range(len(params)):
        up, down = params.copy(), params.copy()
        up[i] += eps
        down[i] -= eps
        grad[i] = (fn(up) - fn(down)) / (2 * eps)
    return grad


@pytest.fixture()
def logistic_data():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(60, 5))
    labels = rng.integers(0, 3, size=60)
    return features, labels


class TestLogisticRegression:
    def test_param_count(self):
        model = MultinomialLogisticRegression(5, 3)
        assert model.num_params == 3 * 5 + 3

    def test_init_params_zero(self):
        model = MultinomialLogisticRegression(4, 2)
        assert np.all(model.init_params() == 0)

    def test_gradient_matches_numerical(self, logistic_data):
        features, labels = logistic_data
        model = MultinomialLogisticRegression(5, 3, l2=0.05)
        rng = np.random.default_rng(1)
        params = rng.normal(size=model.num_params)
        analytic = model.gradient(params, features, labels)
        numerical = _numerical_gradient(
            lambda p: model.loss(p, features, labels), params
        )
        assert np.allclose(analytic, numerical, atol=1e-5)

    def test_loss_at_zero_is_log_classes(self, logistic_data):
        features, labels = logistic_data
        model = MultinomialLogisticRegression(5, 3, l2=0.01)
        assert model.loss(model.init_params(), features, labels) == (
            pytest.approx(np.log(3))
        )

    def test_strong_convexity_along_segment(self, logistic_data):
        features, labels = logistic_data
        model = MultinomialLogisticRegression(5, 3, l2=0.1)
        rng = np.random.default_rng(2)
        a = rng.normal(size=model.num_params)
        b = rng.normal(size=model.num_params)
        mid = 0.5 * (a + b)
        lhs = model.loss(mid, features, labels)
        rhs = (
            0.5 * model.loss(a, features, labels)
            + 0.5 * model.loss(b, features, labels)
            - 0.125 * model.l2 * np.sum((a - b) ** 2)
        )
        assert lhs <= rhs + 1e-12

    def test_smoothness_bounds_gradient_lipschitz(self, logistic_data):
        features, labels = logistic_data
        model = MultinomialLogisticRegression(5, 3, l2=0.01)
        smoothness, mu = model.smoothness_constants(features)
        assert mu == pytest.approx(0.01)
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.normal(size=model.num_params)
            b = rng.normal(size=model.num_params)
            grad_gap = np.linalg.norm(
                model.gradient(a, features, labels)
                - model.gradient(b, features, labels)
            )
            assert grad_gap <= smoothness * np.linalg.norm(a - b) + 1e-9

    def test_predictions_shape_and_range(self, logistic_data):
        features, labels = logistic_data
        model = MultinomialLogisticRegression(5, 3)
        rng = np.random.default_rng(4)
        preds = model.predict(rng.normal(size=model.num_params), features)
        assert preds.shape == (60,)
        assert set(np.unique(preds)).issubset({0, 1, 2})

    def test_wrong_param_shape_rejected(self, logistic_data):
        features, labels = logistic_data
        model = MultinomialLogisticRegression(5, 3)
        with pytest.raises(ValueError, match="params"):
            model.loss(np.zeros(7), features, labels)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            MultinomialLogisticRegression(0, 3)
        with pytest.raises(ValueError):
            MultinomialLogisticRegression(5, 1)
        with pytest.raises(ValueError):
            MultinomialLogisticRegression(5, 3, l2=0)


class TestRidgeRegression:
    @pytest.fixture()
    def ridge_data(self):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(40, 3))
        targets = features @ np.array([1.0, -2.0, 0.5]) + 0.3
        return features, targets

    def test_gradient_matches_numerical(self, ridge_data):
        features, targets = ridge_data
        model = RidgeRegression(3, l2=0.1)
        rng = np.random.default_rng(6)
        params = rng.normal(size=model.num_params)
        analytic = model.gradient(params, features, targets)
        numerical = _numerical_gradient(
            lambda p: model.loss(p, features, targets), params
        )
        assert np.allclose(analytic, numerical, atol=1e-6)

    def test_closed_form_is_stationary(self, ridge_data):
        features, targets = ridge_data
        model = RidgeRegression(3, l2=0.1)
        optimum = model.closed_form_optimum(features, targets)
        grad = model.gradient(optimum, features, targets)
        assert np.linalg.norm(grad) < 1e-10

    def test_closed_form_recovers_low_noise_weights(self, ridge_data):
        features, targets = ridge_data
        model = RidgeRegression(3, l2=1e-8)
        optimum = model.closed_form_optimum(features, targets)
        assert np.allclose(optimum[:3], [1.0, -2.0, 0.5], atol=1e-3)

    def test_smoothness_constants_bracket_hessian(self, ridge_data):
        features, targets = ridge_data
        model = RidgeRegression(3, l2=0.2)
        smoothness, mu = model.smoothness_constants(features)
        assert smoothness >= mu > 0
