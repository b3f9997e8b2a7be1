"""Tests for evaluation metrics and the global objective."""

import numpy as np
import pytest

from repro.datasets import Dataset, FederatedDataset
from repro.models import (
    MultinomialLogisticRegression,
    global_loss,
    per_client_losses,
)
from repro.models.metrics import losses_for_clients


@pytest.fixture()
def tiny_federation():
    rng = np.random.default_rng(0)
    shards = []
    for size in (30, 60, 10):
        shards.append(
            Dataset(
                features=rng.normal(size=(size, 4)),
                labels=rng.integers(0, 3, size=size),
                num_classes=3,
            )
        )
    test = Dataset(
        features=rng.normal(size=(20, 4)),
        labels=rng.integers(0, 3, size=20),
        num_classes=3,
    )
    return FederatedDataset(client_datasets=shards, test_dataset=test)


@pytest.fixture()
def model():
    return MultinomialLogisticRegression(4, 3, l2=0.01)


def test_held_out_loss_and_accuracy(tiny_federation, model):
    params = model.init_params()
    test = tiny_federation.test_dataset
    assert model.dataset_loss(params, test) > 0
    assert 0 <= model.dataset_accuracy(params, test) <= 1


def test_global_loss_is_weighted_sum(tiny_federation, model):
    params = np.random.default_rng(1).normal(size=model.num_params)
    weights = tiny_federation.weights
    losses = per_client_losses(model, params, tiny_federation)
    assert global_loss(model, params, tiny_federation) == pytest.approx(
        float(weights @ losses)
    )


def test_global_loss_equals_pooled_loss(tiny_federation, model):
    """With a_n = d_n / D, sum_n a_n F_n(w) is the pooled mean loss.

    This identity is what makes F* computable by pooled training; it must
    hold exactly (up to the shared regularizer, which appears once in each
    F_n and once in the pooled loss).
    """
    params = np.random.default_rng(2).normal(size=model.num_params)
    pooled = tiny_federation.pooled_train()
    assert global_loss(model, params, tiny_federation) == pytest.approx(
        model.dataset_loss(params, pooled)
    )


def test_per_client_losses_shape(tiny_federation, model):
    losses = per_client_losses(
        model, model.init_params(), tiny_federation
    )
    assert losses.shape == (3,)
    assert np.all(losses > 0)


def test_weights_follow_sizes(tiny_federation):
    assert np.allclose(
        tiny_federation.weights, np.array([30, 60, 10]) / 100
    )


def test_per_client_losses_equal_each_shards_loss(tiny_federation, model):
    """The stacked scoring pass reproduces every client's own loss."""
    params = np.random.default_rng(3).normal(size=model.num_params)
    losses = per_client_losses(model, params, tiny_federation)
    for loss, shard in zip(losses, tiny_federation.client_datasets):
        assert loss == pytest.approx(model.dataset_loss(params, shard))


def test_losses_for_clients_follow_the_listed_order(tiny_federation, model):
    params = np.random.default_rng(4).normal(size=model.num_params)
    full = per_client_losses(model, params, tiny_federation)
    ids = [2, 0, 2, 1]
    assert np.array_equal(
        losses_for_clients(model, params, tiny_federation, ids), full[ids]
    )


def test_losses_for_no_clients_is_empty(tiny_federation, model):
    losses = losses_for_clients(
        model, model.init_params(), tiny_federation, []
    )
    assert losses.shape == (0,)


def test_row_source_override_is_fetched_once_per_client(
    tiny_federation, model
):
    """``arrays`` replaces the stacked fetch of each chunk, and ``dtype``
    casts the parameters to the precision of the rows it supplies."""
    params = np.random.default_rng(5).normal(size=model.num_params)
    fetched = []

    def arrays(client_ids):
        fetched.extend(client_ids)
        features, labels = tiny_federation.stacked_arrays(client_ids)
        return features.astype(np.float32), labels

    ids = [1, 2]
    losses = losses_for_clients(
        model, params, tiny_federation, ids, arrays=arrays, dtype=np.float32
    )
    assert fetched == ids
    assert np.allclose(
        losses, per_client_losses(model, params, tiny_federation)[ids],
        rtol=1e-5,
    )


def test_evaluation_requires_sample_losses(tiny_federation, model):
    """There is no per-shard fallback: a model without ``sample_losses``
    cannot score the global objective."""

    class NoSampleLosses(MultinomialLogisticRegression):
        def sample_losses(self, params, features, labels):
            raise NotImplementedError

    opaque = NoSampleLosses(4, 3, l2=0.01)
    with pytest.raises(NotImplementedError):
        global_loss(opaque, opaque.init_params(), tiny_federation)
