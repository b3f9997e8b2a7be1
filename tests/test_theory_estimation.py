"""Tests for parameter estimation (G_n, sigma_n, optima, alpha/beta fit)."""

import numpy as np
import pytest

from repro.theory import (
    compute_reference_optima,
    estimate_gradient_bounds,
    estimate_gradient_variances,
    estimate_problem_constants,
    fit_bound_scale,
    pilot_trajectory,
)
from repro.utils.rng import RngFactory


class TestReferenceOptima:
    def test_f_star_below_initial_loss(self, small_federated, small_model):
        from repro.models import global_loss

        optima = compute_reference_optima(
            small_model, small_federated, num_steps=400
        )
        init_loss = global_loss(
            small_model, small_model.init_params(), small_federated
        )
        assert optima.f_star < init_loss

    def test_local_gaps_nonnegative(self, small_federated, small_model):
        optima = compute_reference_optima(
            small_model, small_federated, num_steps=400
        )
        # F(w*_n) >= F* by optimality of w*.
        assert np.all(optima.local_gaps >= -1e-8)

    def test_local_optima_beat_global_locally(
        self, small_federated, small_model
    ):
        optima = compute_reference_optima(
            small_model, small_federated, num_steps=600
        )
        for index, shard in enumerate(small_federated.client_datasets):
            local_loss_at_global = small_model.dataset_loss(
                optima.w_star, shard
            )
            # The local optimum is at least as good locally (tolerance for
            # finite GD).
            assert optima.f_star_local[index] <= local_loss_at_global + 1e-3


class TestTrajectoryAndMoments:
    def test_pilot_trajectory_checkpoints(self, small_federated, small_model):
        checkpoints = pilot_trajectory(
            small_model,
            small_federated,
            local_steps=5,
            num_rounds=4,
            num_checkpoints=3,
            rng_factory=RngFactory(0),
        )
        assert len(checkpoints) >= 2
        assert not np.allclose(checkpoints[0], checkpoints[-1])

    def test_gradient_bounds_positive_and_stable(
        self, small_federated, small_model
    ):
        checkpoints = [small_model.init_params()]
        bounds_a = estimate_gradient_bounds(
            small_model, small_federated, checkpoints,
            rng_factory=RngFactory(1),
        )
        bounds_b = estimate_gradient_bounds(
            small_model, small_federated, checkpoints,
            rng_factory=RngFactory(1),
        )
        assert np.all(bounds_a > 0)
        assert np.array_equal(bounds_a, bounds_b)

    def test_gradient_variances_nonnegative(self, small_federated, small_model):
        variances = estimate_gradient_variances(
            small_model,
            small_federated,
            small_model.init_params(),
            rng_factory=RngFactory(2),
        )
        assert np.all(variances >= 0)

    def test_variance_shrinks_with_larger_batch(
        self, small_federated, small_model
    ):
        small_batch = estimate_gradient_variances(
            small_model,
            small_federated,
            small_model.init_params(),
            batch_size=4,
            num_samples=64,
            rng_factory=RngFactory(3),
        )
        big_batch = estimate_gradient_variances(
            small_model,
            small_federated,
            small_model.init_params(),
            batch_size=64,
            num_samples=64,
            rng_factory=RngFactory(3),
        )
        assert big_batch.mean() < small_batch.mean()


class TestEstimateProblemConstants:
    def test_constants_complete(self, small_federated, small_model):
        constants, optima = estimate_problem_constants(
            small_model,
            small_federated,
            local_steps=5,
            pilot_rounds=3,
            rng_factory=RngFactory(4),
        )
        assert constants.num_clients == small_federated.num_clients
        assert constants.smoothness > constants.strong_convexity
        assert constants.f_star == pytest.approx(optima.f_star)
        assert constants.initial_distance_sq > 0


class TestFitBoundScale:
    def test_fit_returns_positive_coefficients(
        self, small_federated, small_model
    ):
        constants, optima = estimate_problem_constants(
            small_model,
            small_federated,
            local_steps=5,
            pilot_rounds=3,
            rng_factory=RngFactory(5),
        )
        alpha, beta = fit_bound_scale(
            small_model,
            small_federated,
            constants,
            f_star=optima.f_star,
            local_steps=5,
            pilot_rounds=6,
            q_levels=(0.3, 1.0),
            seeds_per_level=1,
            rng_factory=RngFactory(6),
        )
        assert alpha > 0
        assert beta > 0

    def test_fitted_alpha_far_below_analytic(
        self, small_federated, small_model
    ):
        """The analytic worst-case alpha overstates the measured penalty."""
        from helpers import ConvergenceBound

        constants, optima = estimate_problem_constants(
            small_model,
            small_federated,
            local_steps=5,
            pilot_rounds=3,
            rng_factory=RngFactory(7),
        )
        alpha, _ = fit_bound_scale(
            small_model,
            small_federated,
            constants,
            f_star=optima.f_star,
            local_steps=5,
            pilot_rounds=6,
            q_levels=(0.3, 1.0),
            seeds_per_level=1,
            rng_factory=RngFactory(8),
        )
        assert alpha < ConvergenceBound.analytic_alpha(constants)
