"""Tests for the batched model API (the local-update engine's kernels).

The engine's determinism contract rests on one property:
``batched_gradient`` / ``batched_loss`` over a parameter stack are
**bit-identical** to looping the scalar API over the slices. These tests
pin that property for both library models, the base-class fallback, and
the per-sample loss decomposition the stacked metrics pass uses.
"""

from __future__ import annotations

import numpy as np
import pytest
from helpers import RidgeRegression

from repro.models import MultinomialLogisticRegression
from repro.models.base import Model
from repro.models.optim import sgd_steps


@pytest.fixture()
def mlr_batch():
    rng = np.random.default_rng(11)
    model = MultinomialLogisticRegression(7, 4, l2=1e-2)
    stack = rng.normal(size=(6, model.num_params))
    features = rng.normal(size=(6, 13, 7))
    labels = rng.integers(0, 4, size=(6, 13))
    return model, stack, features, labels


@pytest.fixture()
def ridge_batch():
    rng = np.random.default_rng(12)
    model = RidgeRegression(5, l2=1e-3)
    stack = rng.normal(size=(6, model.num_params))
    features = rng.normal(size=(6, 9, 5))
    labels = rng.normal(size=(6, 9))
    return model, stack, features, labels


class TestBatchedBitIdentity:
    def test_mlr_gradient(self, mlr_batch):
        model, stack, features, labels = mlr_batch
        batched = model.batched_gradient(stack, features, labels)
        for k in range(stack.shape[0]):
            scalar = model.gradient(stack[k], features[k], labels[k])
            assert np.array_equal(batched[k], scalar)

    def test_mlr_loss(self, mlr_batch):
        model, stack, features, labels = mlr_batch
        batched = model.batched_loss(stack, features, labels)
        for k in range(stack.shape[0]):
            assert batched[k] == model.loss(stack[k], features[k], labels[k])

    def test_ridge_gradient(self, ridge_batch):
        model, stack, features, labels = ridge_batch
        batched = model.batched_gradient(stack, features, labels)
        for k in range(stack.shape[0]):
            scalar = model.gradient(stack[k], features[k], labels[k])
            assert np.array_equal(batched[k], scalar)

    def test_ridge_loss(self, ridge_batch):
        model, stack, features, labels = ridge_batch
        batched = model.batched_loss(stack, features, labels)
        for k in range(stack.shape[0]):
            assert batched[k] == model.loss(stack[k], features[k], labels[k])

    def test_broadcast_parameter_stack(self, mlr_batch):
        """A repeated-params stack (gradient-norm sampling) matches too."""
        model, stack, features, labels = mlr_batch
        repeated = np.repeat(stack[:1], stack.shape[0], axis=0)
        batched = model.batched_gradient(repeated, features, labels)
        for k in range(stack.shape[0]):
            scalar = model.gradient(stack[0], features[k], labels[k])
            assert np.array_equal(batched[k], scalar)


class TestBatchedSgdSteps:
    @pytest.mark.parametrize("stack_size", [4, 8, 16, 32])
    def test_fused_round_matches_per_client_sgd(self, stack_size):
        """One fused round over a flat sample pool equals running the
        scalar SGD kernel client by client on the same mini-batches, at
        every stack size the vectorized trainer meets."""
        rng = np.random.default_rng(stack_size)
        batch, steps = 8, 6
        model = MultinomialLogisticRegression(9, 5, l2=1e-2)
        sizes = rng.integers(batch, 4 * batch, size=stack_size)
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        features = rng.normal(size=(bounds[-1], 9))
        labels = rng.integers(0, 5, size=bounds[-1])
        stack = rng.normal(size=(stack_size, model.num_params)) * 0.1
        # The same draw sgd_steps makes from a fresh generator, shifted
        # into each client's slice of the pool.
        indices = np.stack(
            [
                bounds[k]
                + np.random.default_rng(k).integers(
                    0, sizes[k], size=(steps, batch)
                )
                for k in range(stack_size)
            ]
        )
        fused = model.batched_sgd_steps(
            stack, features, labels, indices, step_size=0.05
        )
        for k in range(stack_size):
            shard = slice(bounds[k], bounds[k + 1])
            scalar = sgd_steps(
                model,
                stack[k],
                features[shard],
                labels[shard],
                step_size=0.05,
                num_steps=steps,
                batch_size=batch,
                rng=np.random.default_rng(k),
            )
            assert np.array_equal(fused[k], scalar)


class TestBaseClassFallback:
    def test_fallback_matches_overridden_kernels(self, mlr_batch):
        model, stack, features, labels = mlr_batch

        class FallbackModel(MultinomialLogisticRegression):
            batched_gradient = Model.batched_gradient
            batched_loss = Model.batched_loss

        fallback = FallbackModel(7, 4, l2=1e-2)
        assert np.array_equal(
            fallback.batched_gradient(stack, features, labels),
            model.batched_gradient(stack, features, labels),
        )
        assert np.array_equal(
            fallback.batched_loss(stack, features, labels),
            model.batched_loss(stack, features, labels),
        )

    def test_stack_shape_validated(self, mlr_batch):
        model, stack, features, labels = mlr_batch
        with pytest.raises(ValueError):
            model.batched_gradient(stack[:, :-1], features, labels)
        with pytest.raises(ValueError):
            model.batched_gradient(stack[0], features, labels)

    def test_base_sample_losses_unimplemented(self):
        class Opaque(Model):
            num_params = 1

            def init_params(self):
                return np.zeros(1)

            def loss(self, params, features, labels):
                return 0.0

            def gradient(self, params, features, labels):
                return np.zeros(1)

            def predict(self, params, features):
                return np.zeros(len(features))

            def smoothness_constants(self, features):
                return 1.0, 1.0

        with pytest.raises(NotImplementedError):
            Opaque().sample_losses(np.zeros(1), np.zeros((2, 1)), np.zeros(2))
        assert Opaque().penalty(np.zeros(1)) == 0.0


class TestSampleLossDecomposition:
    def test_mlr_reconstructs_loss(self, mlr_batch):
        model, stack, features, labels = mlr_batch
        samples = model.sample_losses(stack[0], features[0], labels[0])
        assert samples.shape == (features.shape[1],)
        reconstructed = samples.mean() + model.penalty(stack[0])
        assert reconstructed == model.loss(stack[0], features[0], labels[0])

    def test_ridge_reconstructs_loss(self, ridge_batch):
        model, stack, features, labels = ridge_batch
        samples = model.sample_losses(stack[0], features[0], labels[0])
        reconstructed = samples.mean() + model.penalty(stack[0])
        assert reconstructed == model.loss(stack[0], features[0], labels[0])


class TestRidgeDesign:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_design_is_features_plus_ones_column(self, dtype):
        model = RidgeRegression(3)
        features = np.random.default_rng(1).normal(size=(5, 3)).astype(dtype)
        design = model._design(features)
        assert design.shape == (5, 4)
        assert design.dtype == dtype
        assert np.array_equal(design[:, :-1], features)
        assert np.all(design[:, -1] == 1.0)

    def test_in_place_mutation_is_seen(self):
        """No design outlives its features: a mutated matrix is re-read."""
        model = RidgeRegression(2)
        features = np.ones((4, 2))
        model._design(features)
        features[0, 0] = 7.0
        assert model._design(features)[0, 0] == 7.0
