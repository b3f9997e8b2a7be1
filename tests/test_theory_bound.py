"""Tests for ProblemConstants and the Theorem-1 convergence bound."""

import numpy as np
import pytest
from helpers import ConvergenceBound

from repro.theory import ProblemConstants, heterogeneity_term


@pytest.fixture()
def constants():
    return ProblemConstants(
        smoothness=4.0,
        strong_convexity=0.1,
        local_steps=10,
        weights=np.array([0.5, 0.3, 0.2]),
        gradient_bounds=np.array([2.0, 3.0, 1.0]),
        gradient_variances=np.array([0.5, 0.5, 0.5]),
        f_star=0.2,
        f_star_local=np.array([0.1, 0.15, 0.05]),
        initial_distance_sq=4.0,
    )


class TestProblemConstants:
    def test_gamma_formula(self, constants):
        expected = 0.2 - (0.5 * 0.1 + 0.3 * 0.15 + 0.2 * 0.05)
        assert constants.gamma == pytest.approx(expected)

    def test_gamma_zero_without_local_optima(self):
        constants = ProblemConstants(
            smoothness=1.0,
            strong_convexity=0.1,
            local_steps=5,
            weights=np.array([1.0]),
            gradient_bounds=np.array([1.0]),
            gradient_variances=np.array([0.0]),
        )
        assert constants.gamma == 0.0

    def test_data_quality(self, constants):
        assert np.allclose(
            constants.data_quality, [1.0, 0.9, 0.2]
        )

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ProblemConstants(
                smoothness=1.0,
                strong_convexity=0.1,
                local_steps=5,
                weights=np.array([0.5, 0.2]),
                gradient_bounds=np.array([1.0, 1.0]),
                gradient_variances=np.array([0.0, 0.0]),
            )

    def test_mu_cannot_exceed_l(self):
        with pytest.raises(ValueError, match="exceeds"):
            ProblemConstants(
                smoothness=0.1,
                strong_convexity=1.0,
                local_steps=5,
                weights=np.array([1.0]),
                gradient_bounds=np.array([1.0]),
                gradient_variances=np.array([0.0]),
            )

    def test_array_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            ProblemConstants(
                smoothness=1.0,
                strong_convexity=0.1,
                local_steps=5,
                weights=np.array([1.0]),
                gradient_bounds=np.array([1.0, 2.0]),
                gradient_variances=np.array([0.0]),
            )


class TestHeterogeneityTerm:
    def test_zero_at_full_participation(self, constants):
        assert heterogeneity_term(
            constants.weights, constants.gradient_bounds, np.ones(3)
        ) == pytest.approx(0.0)

    def test_explodes_as_q_vanishes(self, constants):
        small = heterogeneity_term(
            constants.weights, constants.gradient_bounds, np.full(3, 1e-6)
        )
        assert small > 1e5

    def test_monotone_decreasing_in_q(self, constants):
        values = [
            heterogeneity_term(
                constants.weights, constants.gradient_bounds, np.full(3, q)
            )
            for q in (0.2, 0.4, 0.6, 0.8, 1.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_zero_q(self, constants):
        with pytest.raises(ValueError):
            heterogeneity_term(
                constants.weights,
                constants.gradient_bounds,
                np.array([0.5, 0.0, 0.5]),
            )


class TestConvergenceBound:
    def test_analytic_alpha(self, constants):
        bound = ConvergenceBound(constants)
        assert bound.alpha == pytest.approx(8 * 4.0 * 10 / 0.1**2)

    def test_analytic_beta_positive(self, constants):
        assert ConvergenceBound(constants).beta > 0

    def test_beta_components(self, constants):
        bound = ConvergenceBound(constants)
        steps = constants.local_steps
        a0 = float(
            np.sum(constants.weights**2 * constants.gradient_variances)
            + 8 * np.sum(constants.weights * constants.gradient_bounds**2)
            * (steps - 1) ** 2
        )
        expected = (
            2 * 4.0 / (0.1**2 * steps) * a0
            + 12 * 16.0 / (0.1**2 * steps) * constants.gamma
            + 4 * 16.0 / (0.1 * steps) * 4.0
        )
        assert bound.beta == pytest.approx(expected)

    def test_gap_decreases_with_rounds(self, constants):
        bound = ConvergenceBound(constants)
        q = np.full(3, 0.5)
        assert bound.gap(q, 100) > bound.gap(q, 1000)

    def test_gap_decreases_with_participation(self, constants):
        bound = ConvergenceBound(constants)
        assert bound.gap(np.full(3, 0.3), 100) > bound.gap(np.full(3, 0.9), 100)

    def test_full_participation_gap_is_beta_over_r(self, constants):
        bound = ConvergenceBound(constants)
        assert bound.gap(np.ones(3), 50) == pytest.approx(bound.beta / 50)
        assert bound.full_participation_gap(50) == pytest.approx(bound.beta / 50)

    def test_fitted_override(self, constants):
        bound = ConvergenceBound(constants).with_fitted(alpha=2.0, beta=1.0)
        assert bound.alpha == 2.0
        q = np.full(3, 0.5)
        penalty = heterogeneity_term(
            constants.weights, constants.gradient_bounds, q
        )
        assert bound.gap(q, 10) == pytest.approx((2.0 * penalty + 1.0) / 10)

    def test_contribution_coefficients(self, constants):
        bound = ConvergenceBound(constants).with_fitted(alpha=3.0, beta=0.5)
        coefficients = bound.contribution_coefficients(num_rounds=10)
        expected = 3.0 * constants.weights**2 * constants.gradient_bounds**2 / 10
        assert np.allclose(coefficients, expected)

    def test_gap_equals_contribution_decomposition(self, constants):
        """gap = sum_n A_n (1-q_n)/q_n + beta/R must hold exactly."""
        bound = ConvergenceBound(constants)
        q = np.array([0.3, 0.6, 0.9])
        coefficients = bound.contribution_coefficients(200)
        reconstructed = float(
            np.sum(coefficients * (1 - q) / q) + bound.beta / 200
        )
        assert bound.gap(q, 200) == pytest.approx(reconstructed)

    def test_marginal_gap_negative(self, constants):
        bound = ConvergenceBound(constants)
        marginals = bound.marginal_gap(np.full(3, 0.5), 100)
        assert np.all(marginals < 0)

    def test_expected_loss_adds_f_star(self, constants):
        bound = ConvergenceBound(constants)
        q = np.full(3, 0.7)
        assert bound.expected_loss(q, 100) == pytest.approx(
            constants.f_star + bound.gap(q, 100)
        )

    def test_invalid_rounds_rejected(self, constants):
        bound = ConvergenceBound(constants)
        with pytest.raises(ValueError):
            bound.gap(np.ones(3), 0)
