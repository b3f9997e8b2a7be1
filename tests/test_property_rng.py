"""Oracle tests: the library's stream derivation against NumPy's own.

:mod:`repro.utils.rng` computes ``SeedSequence``'s entropy mixing and
``generate_state`` itself, so that a batch of streams sharing a label
prefix mixes the prefix once. NumPy's ``SeedSequence`` is the oracle:
every derived stream must equal
``default_rng(SeedSequence(seed, spawn_key=crc32 of each label))`` in its
bit-generator state and its draws. A NumPy release that changed
``SeedSequence`` would fail here.
"""

from __future__ import annotations

import pickle
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import streaming_synthetic_federated
from repro.fl import FederatedTrainer
from repro.fl.participation import BernoulliParticipation
from repro.models import MultinomialLogisticRegression
from repro.utils.rng import (
    RngFactory,
    StreamPrefix,
    spawn_rng,
    spawn_rngs,
)

SEEDS = st.one_of(
    st.integers(0, 2**160 - 1),
    st.integers(0, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
)
LABELS = st.text(max_size=6)


def oracle(seed, labels) -> np.random.Generator:
    """NumPy's stream at ``(seed, *labels)``."""
    spawn_key = tuple(zlib.crc32(label.encode("utf-8")) for label in labels)
    return np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=spawn_key)
    )


def assert_same_stream(generator, expected):
    assert generator.bit_generator.state == expected.bit_generator.state
    assert np.array_equal(generator.random(3), expected.random(3))
    assert np.array_equal(
        generator.integers(0, 2**63, size=2), expected.integers(0, 2**63, size=2)
    )


@settings(max_examples=200, deadline=None)
@given(
    seed=SEEDS,
    labels=st.lists(LABELS, min_size=1, max_size=4),
    varying=st.lists(LABELS, max_size=5),
    data=st.data(),
)
def test_batch_streams_match_numpy(seed, labels, varying, data):
    """Every stream of a batch, whichever label varies, is NumPy's."""
    at = data.draw(st.integers(0, len(labels) - 1))
    path = list(labels)
    path[at] = varying
    generators = spawn_rngs(seed, *path)
    assert len(generators) == len(varying)
    for label, generator in zip(varying, generators):
        path[at] = label
        assert_same_stream(generator, oracle(seed, path))


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, labels=st.lists(LABELS, max_size=4))
def test_one_stream_matches_numpy(seed, labels):
    assert_same_stream(spawn_rng(seed, *labels), oracle(seed, labels))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**160 - 1),
    n_words=st.integers(1, 20),
    dtype=st.sampled_from([np.uint32, np.uint64]),
)
def test_generate_state_matches_numpy(seed, n_words, dtype):
    """A derived stream's pool answers any ``generate_state`` request as
    NumPy's ``SeedSequence`` does."""
    seed_seq = spawn_rng(seed, "x").bit_generator.seed_seq
    assert not isinstance(seed_seq, np.random.SeedSequence)
    expected = np.random.SeedSequence(
        seed, spawn_key=(zlib.crc32(b"x"),)
    ).generate_state(n_words, dtype)
    state = seed_seq.generate_state(n_words, dtype)
    assert state.dtype == expected.dtype
    assert np.array_equal(state, expected)


def test_many_streams_one_prefix():
    prefix = StreamPrefix(2**70 + 5, "client")
    ids = [str(n) for n in range(300)]
    for label, generator in zip(ids, prefix.spawn(ids, "sgd")):
        assert_same_stream(
            generator, oracle(2**70 + 5, ["client", label, "sgd"])
        )
    assert prefix.spawn([], "sgd") == []


class TestSeedLike:
    def test_sequence_entropy_seeds(self):
        for entropy in (
            [1, 2**40, 3],
            (0,),
            range(3),
            [np.uint8(7), 2**33],
            ["0x1f", "12"],
        ):
            expected = np.random.default_rng(
                np.random.SeedSequence(
                    entropy, spawn_key=(zlib.crc32(b"x"),)
                )
            )
            assert_same_stream(spawn_rng(entropy, "x"), expected)

    def test_uint32_array_seed(self):
        entropy = np.array([5, 2**32 - 1], dtype=np.uint32)
        expected = np.random.default_rng(
            np.random.SeedSequence(entropy, spawn_key=(zlib.crc32(b"x"),))
        )
        assert_same_stream(spawn_rng(entropy, "x"), expected)

    def test_seed_sequence_keeps_only_its_entropy(self):
        sequence = np.random.SeedSequence([9, 2**45], spawn_key=(4, 2))
        expected = np.random.default_rng(
            np.random.SeedSequence(
                sequence.entropy, spawn_key=(zlib.crc32(b"a"),)
            )
        )
        assert_same_stream(spawn_rng(sequence, "a"), expected)
        assert_same_stream(
            spawn_rng(sequence), np.random.default_rng(sequence)
        )

    def test_generator_seed_draws_one_word(self):
        source, twin = np.random.default_rng(3), np.random.default_rng(3)
        expected = oracle(int(twin.integers(0, 2**32)), ["a", "b"])
        assert_same_stream(spawn_rng(source, "a", "b"), expected)
        assert source.bit_generator.state == twin.bit_generator.state

    def test_generator_seed_draws_once_per_batch(self):
        source, twin = np.random.default_rng(8), np.random.default_rng(8)
        entropy = int(twin.integers(0, 2**32))
        for label, generator in zip("xyz", spawn_rngs(source, ["x", "y", "z"])):
            assert_same_stream(generator, oracle(entropy, [label]))
        assert source.bit_generator.state == twin.bit_generator.state

    def test_none_seed_is_fresh_entropy(self):
        assert spawn_rng(None, "a").random() != spawn_rng(None, "a").random()

    @pytest.mark.parametrize("seed", [-1, np.int64(-7)])
    def test_negative_seed_refused(self, seed):
        with pytest.raises(ValueError):
            np.random.SeedSequence(seed)
        with pytest.raises(ValueError):
            spawn_rng(seed, "a")
        with pytest.raises(ValueError):
            spawn_rngs(seed, ["a"])

    @pytest.mark.parametrize("seed", [1.5, "5"])
    def test_non_integer_seed_refused(self, seed):
        with pytest.raises(TypeError):
            np.random.SeedSequence(seed)
        with pytest.raises(TypeError):
            spawn_rng(seed, "a")

    def test_exactly_one_varying_label(self):
        with pytest.raises(TypeError):
            spawn_rngs(0, "a", "b")
        with pytest.raises(TypeError):
            spawn_rngs(0, ["a"], ["b"])


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, labels=st.lists(LABELS, max_size=4))
def test_factory_streams_match_numpy(seed, labels):
    """A factory mixes its seed once; every stream it makes is still
    NumPy's, and so is the factory a pickle round-trip rebuilds."""
    factory = RngFactory(seed)
    if labels:
        assert_same_stream(factory.make(*labels), oracle(seed, labels))
    else:
        assert_same_stream(factory.make(), np.random.default_rng(seed))
    clone = pickle.loads(pickle.dumps(factory))
    assert_same_stream(clone.make("a", *labels), oracle(seed, ["a", *labels]))


@settings(max_examples=100, deadline=None)
@given(
    seed=SEEDS,
    head=st.lists(LABELS, max_size=3),
    tail=st.lists(LABELS, max_size=3),
)
def test_extended_prefix_is_the_longer_prefix(seed, head, tail):
    extended = StreamPrefix(seed, *head).extend(*tail)
    assert_same_stream(extended.generator(), oracle(seed, [*head, *tail]))


def test_derived_generator_pickles():
    generator = spawn_rng(12, "client", "4", "sgd")
    generator.random(5)
    clone = pickle.loads(pickle.dumps(generator))
    assert clone.bit_generator.state == generator.bit_generator.state
    assert np.array_equal(clone.random(4), generator.random(4))


def test_factory_make_many_is_make():
    factory = RngFactory(31)
    labels = [str(n) for n in range(7)]
    for label, generator in zip(
        labels, factory.make_many("client", labels, "sgd")
    ):
        assert_same_stream(generator, factory.make("client", label, "sgd"))


@pytest.mark.parametrize("storage", ["eager", "streaming"])
def test_trainer_client_streams_are_the_factory_streams(storage):
    federated = streaming_synthetic_federated(
        9, total_samples=270, seed=4, test_clients=3
    )
    if storage == "eager":
        federated = federated.materialize()
    model = MultinomialLogisticRegression(
        num_features=federated.num_features,
        num_classes=federated.num_classes,
    )
    trainer = FederatedTrainer(
        model,
        federated,
        BernoulliParticipation(np.full(federated.num_clients, 0.5)),
        rng_factory=RngFactory(21),
    )
    assert len(trainer.state.streams) == federated.num_clients
    for n, stream in enumerate(trainer.state.streams):
        expected = RngFactory(21).make("client", str(n), "sgd")
        assert stream.bit_generator.state == expected.bit_generator.state
        assert_same_stream(stream, expected)
