"""Tests for the streaming shard provider (repro.datasets.streaming).

The provider contract under test: any client's shard regenerates
bit-identically from ``(seed, client_id)`` on every fetch — repeated, in a
fresh provider, or across a pickle round-trip — and the
:class:`StreamingFederatedDataset` is indistinguishable (values-wise) from
its materialized eager twin.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.datasets import (
    StreamingFederatedDataset,
    SyntheticShardProvider,
    streaming_synthetic_federated,
)
from repro.models import MultinomialLogisticRegression


def _provider(**overrides) -> SyntheticShardProvider:
    arguments = dict(
        sizes=np.array([10, 30, 7, 22]),
        seed=11,
        test_fraction=0.25,
    )
    arguments.update(overrides)
    return SyntheticShardProvider(arguments.pop("sizes"), **arguments)


class TestProviderRegeneration:
    def test_repeated_access_is_bit_identical(self):
        provider = _provider()
        first = provider.shard(1)
        second = provider.shard(1)
        assert np.array_equal(first.features, second.features)
        assert np.array_equal(first.labels, second.labels)

    def test_every_fetch_regenerates(self):
        provider = _provider()
        reference = {n: provider.shard(n) for n in range(4)}
        before = provider.regenerations
        for n in (0, 1, 1, 3, 0):
            shard = provider.shard(n)
            assert np.array_equal(shard.features, reference[n].features)
            assert np.array_equal(shard.labels, reference[n].labels)
        provider.heldout_shard(1)
        assert provider.regenerations == before + 6

    def test_access_order_is_irrelevant(self):
        forward = _provider()
        backward = _provider()
        forwards = [forward.shard(n) for n in range(4)]
        backwards = [backward.shard(n) for n in reversed(range(4))][::-1]
        for a, b in zip(forwards, backwards):
            assert np.array_equal(a.features, b.features)

    def test_fresh_provider_agrees(self):
        a, b = _provider(), _provider()
        assert np.array_equal(a.shard(2).features, b.shard(2).features)

    def test_different_seeds_differ(self):
        a, b = _provider(), _provider(seed=12)
        assert not np.array_equal(a.shard(0).features, b.shard(0).features)

    def test_pickle_ships_recipe_not_arrays(self):
        provider = _provider()
        reference = provider.shard(3)
        payload = pickle.dumps(provider)
        # A few integers plus the size vector: far below one shard's bytes.
        assert len(payload) < reference.features.nbytes
        clone = pickle.loads(payload)
        assert clone.regenerations == 0
        assert np.array_equal(clone.shard(3).features, reference.features)
        assert np.array_equal(clone.shard(3).labels, reference.labels)

    def test_copy_restarts_the_regeneration_count(self):
        provider = _provider()
        provider.shard(0)
        clone = copy.copy(provider)
        assert provider.regenerations == 1
        assert clone.regenerations == 0

    def test_heldout_rows_disjoint_from_train(self):
        provider = _provider()
        train = provider.shard(1)
        heldout = provider.heldout_shard(1)
        assert len(train) == 30
        assert len(heldout) == round(30 * 0.25)
        # Train rows are the leading slice of the full draw, so the
        # held-out block never aliases them.
        assert not np.array_equal(
            train.features[: len(heldout)], heldout.features
        )


class TestProviderValidation:
    def test_non_integer_seed_rejected(self):
        with pytest.raises(TypeError, match="integer seed"):
            SyntheticShardProvider(np.array([5, 5]), seed="zero")

    def test_empty_or_zero_sizes_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            SyntheticShardProvider(np.array([]), seed=0)
        with pytest.raises(ValueError, match="at least one sample"):
            SyntheticShardProvider(np.array([4, 0]), seed=0)

    def test_client_id_bounds_checked(self):
        provider = _provider()
        with pytest.raises(IndexError):
            provider.shard(4)
        with pytest.raises(IndexError):
            provider.shard(-1)

    def test_no_heldout_rows_without_test_fraction(self):
        provider = _provider(test_fraction=0.0)
        with pytest.raises(ValueError, match="no held-out rows"):
            provider.heldout_shard(0)


class TestStreamingFederatedDataset:
    def test_materialized_twin_is_bit_identical(self):
        federated = streaming_synthetic_federated(
            12, total_samples=300, seed=3, test_clients=5
        )
        eager = federated.materialize()
        assert eager.num_clients == federated.num_clients == 12
        for n in range(12):
            shard = federated.provider.shard(n)
            assert np.array_equal(
                shard.features, eager.client_datasets[n].features
            )
            assert np.array_equal(
                shard.labels, eager.client_datasets[n].labels
            )
        assert eager.test_dataset is federated.test_dataset
        assert np.array_equal(eager.sizes, federated.sizes)
        np.testing.assert_allclose(eager.weights, federated.weights)

    def test_lazy_shards_expose_dataset_interface(self):
        federated = streaming_synthetic_federated(
            6, total_samples=120, seed=5, test_clients=2
        )
        shards = federated.client_datasets
        assert len(shards) == 6
        lazy = shards[4]
        assert len(lazy) == federated.sizes[4]
        assert lazy.num_features == 60
        assert lazy.num_classes == 10
        assert lazy.features.shape == (len(lazy), 60)
        assert set(lazy.classes_present()) <= set(range(10))
        with pytest.raises(IndexError):
            shards[6]

    def test_arrays_accessor_materializes_once(self):
        """Bulk consumers read shards via arrays(): one regeneration per
        gather, where reading .features and .labels separately costs
        two."""
        federated = streaming_synthetic_federated(
            4, total_samples=80, seed=5, test_clients=2
        )
        lazy = federated.client_datasets[1]
        before = federated.provider.regenerations
        lazy.arrays()
        assert federated.provider.regenerations == before + 1
        lazy.features, lazy.labels
        assert federated.provider.regenerations == before + 3
        # The model's dataset wrappers read through arrays() as well.
        model = MultinomialLogisticRegression(num_features=60, num_classes=10)
        params = model.init_params()
        model.dataset_loss(params, lazy)
        model.dataset_accuracy(params, lazy)
        model.dataset_gradient(params, lazy)
        assert federated.provider.regenerations == before + 6

    def test_pooled_train_refuses(self):
        federated = streaming_synthetic_federated(
            4, total_samples=80, seed=5, test_clients=2
        )
        with pytest.raises(RuntimeError, match="materializes every shard"):
            federated.pooled_train()

    def test_test_set_is_bounded_and_deterministic(self):
        a = streaming_synthetic_federated(
            40, total_samples=800, seed=9, test_clients=6
        )
        b = streaming_synthetic_federated(
            40, total_samples=800, seed=9, test_clients=6
        )
        assert len(a.test_client_ids) == 6
        assert np.array_equal(a.test_dataset.features, b.test_dataset.features)
        bigger = streaming_synthetic_federated(
            80, total_samples=1600, seed=9, test_clients=6
        )
        # Doubling the fleet does not grow the test-client count.
        assert len(bigger.test_client_ids) == 6

    def test_builder_rejects_zero_test_fraction(self):
        """The builder's contract includes a global test set, which a zero
        held-out fraction can never assemble — fail up front, not deep in
        heldout_shard."""
        with pytest.raises(ValueError, match="test_fraction"):
            streaming_synthetic_federated(
                4, total_samples=80, seed=1, test_fraction=0.0
            )

    def test_builder_is_a_pure_function_of_the_seed(self):
        a = streaming_synthetic_federated(10, total_samples=200, seed=21)
        b = streaming_synthetic_federated(10, total_samples=200, seed=21)
        assert np.array_equal(a.sizes, b.sizes)
        assert np.array_equal(
            a.provider.shard(7).features, b.provider.shard(7).features
        )

    def test_pickle_round_trip(self):
        federated = streaming_synthetic_federated(
            8, total_samples=160, seed=2, test_clients=3
        )
        clone = pickle.loads(pickle.dumps(federated))
        assert isinstance(clone, StreamingFederatedDataset)
        assert np.array_equal(
            clone.provider.shard(5).features,
            federated.provider.shard(5).features,
        )
        assert np.array_equal(
            clone.test_dataset.labels, federated.test_dataset.labels
        )

    def test_summary_reports_metadata_without_materializing(self):
        federated = streaming_synthetic_federated(
            16, total_samples=320, seed=4, test_clients=4
        )
        before = federated.provider.regenerations
        summary = federated.summary()
        assert summary["streaming"] is True
        assert summary["num_clients"] == 16
        assert summary["total_samples"] == 320
        assert federated.provider.regenerations == before
