"""The stacked shard fetch: one call for the rows of a list of clients.

``stacked_arrays(client_ids)`` on an eager or streaming federation must
return exactly the concatenation of the listed clients' own shards, in
list order, whatever the list looks like (unsorted, repeated, single,
empty). The streaming provider synthesizes the whole list in one call
from each client's own stream, all derived in one batch; held-out rows
stack the same way, and the streaming test set is built from such
stacks. The
fast tier's row LRU serves its hits and fetches every miss in one
stacked call; the rows it hands the kernel must not depend on which
clients were resident.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.datasets.streaming as streaming
import repro.models.metrics as metrics
from repro.datasets import (
    SyntheticShardProvider,
    streaming_synthetic_federated,
    synthetic_federated,
)
from repro.fl import BernoulliParticipation, FederatedTrainer
from repro.models import MultinomialLogisticRegression
from repro.utils.rng import spawn_rng

ID_LISTS = {
    "unsorted": [5, 0, 3, 1],
    "repeated": [2, 2, 4, 2],
    "single": [3],
    "empty": [],
}


def _concatenated(pairs, dim):
    if not pairs:
        return np.empty((0, dim)), np.empty(0, dtype=int)
    return (
        np.concatenate([features for features, _ in pairs]),
        np.concatenate([labels for _, labels in pairs]),
    )


def _assert_same_bytes(actual, expected):
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def streamed():
    return streaming_synthetic_federated(
        7, total_samples=300, test_clients=3, seed=4
    )


@pytest.fixture(scope="module")
def eager():
    return synthetic_federated(7, total_samples=300, rng=6)


class TestStackEqualsConcatenation:
    @pytest.mark.parametrize("ids", list(ID_LISTS.values()), ids=list(ID_LISTS))
    def test_streaming(self, streamed, ids):
        provider = streamed.provider
        expected = _concatenated(
            [provider.shard_arrays(n) for n in ids], provider.dim
        )
        _assert_same_bytes(streamed.stacked_arrays(ids), expected)

    @pytest.mark.parametrize("ids", list(ID_LISTS.values()), ids=list(ID_LISTS))
    def test_eager(self, eager, ids):
        shards = eager.client_datasets
        expected = _concatenated(
            [shards[n].arrays() for n in ids], eager.num_features
        )
        _assert_same_bytes(eager.stacked_arrays(ids), expected)

    @pytest.mark.parametrize("ids", list(ID_LISTS.values()), ids=list(ID_LISTS))
    def test_streaming_matches_its_eager_twin(self, streamed, ids):
        """The twin is built one single-client synthesis at a time."""
        twin = streamed.materialize()
        _assert_same_bytes(
            streamed.stacked_arrays(ids), twin.stacked_arrays(ids)
        )

    def test_numpy_ids_are_accepted(self, streamed):
        ids = np.array([4, 1], dtype=np.int64)
        _assert_same_bytes(
            streamed.stacked_arrays(ids), streamed.stacked_arrays([4, 1])
        )


class TestProviderAccounting:
    def test_regenerations_count_shards_not_calls(self):
        provider = SyntheticShardProvider(np.array([4, 9, 2, 6]), seed=1)
        provider.stacked_arrays([1, 1, 3])
        assert provider.regenerations == 3
        provider.stacked_arrays([])
        assert provider.regenerations == 3
        provider.shard_arrays(0)
        provider.heldout_shard(2)
        assert provider.regenerations == 5

    def test_one_synthesis_call_per_stack(self, monkeypatch):
        provider = SyntheticShardProvider(np.array([4, 9, 2, 6]), seed=1)
        calls = []
        recipe = streaming.client_shard_arrays

        def spy(sizes, *args):
            calls.append(list(sizes))
            return recipe(sizes, *args)

        monkeypatch.setattr(streaming, "client_shard_arrays", spy)
        provider.stacked_arrays([3, 0, 1])
        assert calls == [[6, 4, 9]]

    @pytest.mark.parametrize("bad", [4, -1])
    def test_bad_id_raises_before_anything_is_drawn(self, monkeypatch, bad):
        provider = SyntheticShardProvider(np.array([4, 9, 2, 6]), seed=1)
        calls = []
        monkeypatch.setattr(
            streaming, "client_shard_arrays", lambda *a: calls.append(a)
        )
        with pytest.raises(IndexError):
            provider.stacked_arrays([0, 2, bad])
        assert calls == []
        assert provider.regenerations == 0

    @pytest.mark.parametrize("bad", [7, -1])
    def test_eager_bad_id_raises(self, eager, bad):
        with pytest.raises(IndexError):
            eager.stacked_arrays([0, bad])


class TestShardStreams:
    @pytest.mark.parametrize("seed", [0, 13, np.int64(2**40 + 3)])
    def test_shard_rng_is_the_spawned_stream(self, seed):
        provider = SyntheticShardProvider(np.full(12, 3), seed=seed)
        for n in range(provider.num_clients):
            expected = spawn_rng(seed, "shard", str(n)).bit_generator.state
            assert provider.shard_rng(n).bit_generator.state == expected
            assert (
                provider.shard_rng(np.int64(n)).bit_generator.state
                == expected
            )

    def test_shard_rngs_derive_the_listed_streams(self):
        provider = SyntheticShardProvider(np.full(12, 3), seed=9)
        ids = [7, 0, 7, 11, 3]
        for n, generator in zip(ids, provider.shard_rngs(ids)):
            expected = spawn_rng(9, "shard", str(n)).bit_generator.state
            assert generator.bit_generator.state == expected
        assert provider.shard_rngs([]) == []

    def test_provider_pickles_without_generator_state(self):
        provider = SyntheticShardProvider(np.array([4, 9, 2]), seed=5)
        before = len(pickle.dumps(provider))
        provider.stacked_arrays([0, 1, 2])
        assert len(pickle.dumps(provider)) == before


class TestStackedHeldout:
    def test_stack_equals_concatenation(self):
        provider = SyntheticShardProvider(np.array([4, 9, 2, 6, 5]), seed=3)
        ids = [4, 0, 2, 2]
        heldout = provider.stacked_heldout(ids)
        expected = [provider.heldout_shard(n).arrays() for n in ids]
        _assert_same_bytes(heldout.arrays(), _concatenated(expected, 60))
        assert len(provider.stacked_heldout([])) == 0

    def test_no_heldout_rows_refused_before_drawing(self):
        provider = SyntheticShardProvider(
            np.array([4, 9]), seed=3, test_fraction=0.0
        )
        with pytest.raises(ValueError, match="no held-out rows"):
            provider.stacked_heldout([0, 1])
        assert provider.regenerations == 0

    def test_test_set_is_the_per_client_concatenation(self, monkeypatch):
        """The builder fetches held-out rows in whole-client stacks of at
        most EVAL_CHUNK_SAMPLES drawn rows; the bytes are those of the
        per-client held-out shards, concatenated in test-client order."""
        monkeypatch.setattr(metrics, "EVAL_CHUNK_SAMPLES", 120)
        drawn = []
        recipe = streaming.client_shard_arrays

        def spy(sizes, *args):
            drawn.append(list(sizes))
            return recipe(sizes, *args)

        monkeypatch.setattr(streaming, "client_shard_arrays", spy)
        federated = streaming_synthetic_federated(
            40, total_samples=1200, test_clients=20, seed=6
        )
        assert len(drawn) > 1
        # A client drawing more than the bound is fetched alone.
        assert all(sum(sizes) <= 120 or len(sizes) == 1 for sizes in drawn)
        assert federated.provider.regenerations == 20
        provider = federated.provider
        expected = [
            provider.heldout_shard(n).arrays()
            for n in federated.test_client_ids
        ]
        _assert_same_bytes(
            federated.test_dataset.arrays(), _concatenated(expected, 60)
        )


class TestFastTierRows:
    @pytest.fixture()
    def trainer(self, streamed):
        model = MultinomialLogisticRegression(
            num_features=streamed.num_features,
            num_classes=streamed.num_classes,
        )
        return FederatedTrainer(
            model,
            streamed,
            BernoulliParticipation(np.full(streamed.num_clients, 0.5)),
            local_steps=2,
            fast=True,
            precision="float32",
        )

    def _per_client(self, streamed, ids):
        return _concatenated(
            [
                (features.astype(np.float32), labels)
                for features, labels in (
                    streamed.provider.shard_arrays(n) for n in ids
                )
            ],
            streamed.num_features,
        )

    def test_mixed_hits_and_misses_equal_per_client_rows(
        self, trainer, streamed
    ):
        trainer._stacked_rows([0, 3])
        provider = streamed.provider
        before = provider.regenerations
        ids = [5, 3, 1, 0, 5]
        rows = trainer._stacked_rows(ids)
        # Only the two misses were synthesized, once each.
        assert provider.regenerations - before == 2
        _assert_same_bytes(rows, self._per_client(streamed, ids))
        # Recency follows the list, as if served one client at a time.
        assert list(trainer._row_cache) == [3, 1, 0, 5]

    def test_all_hits_synthesize_nothing(self, trainer, streamed):
        trainer._stacked_rows([6, 1])
        before = streamed.provider.regenerations
        rows = trainer._stacked_rows([1, 6, 1])
        assert streamed.provider.regenerations == before
        _assert_same_bytes(rows, self._per_client(streamed, [1, 6, 1]))

    def test_member_pool_equals_per_client_build(self, trainer, streamed):
        trainer._stacked_rows([2])
        features, labels, offsets = trainer._member_pool([4, 2, 6])
        expected = self._per_client(streamed, [4, 2, 6])
        _assert_same_bytes((features, labels), expected)
        sizes = streamed.sizes[[4, 2, 6]]
        assert offsets.tolist() == [0, sizes[0], sizes[0] + sizes[1]]

    def test_cached_rows_do_not_pin_the_stack(self, trainer):
        trainer._stacked_rows([1, 4])
        for features, labels in trainer._row_cache.values():
            assert features.base is None
            assert labels.base is None
