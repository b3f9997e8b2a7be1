"""Tests for deterministic RNG management."""

import numpy as np

from repro.utils.rng import RngFactory, spawn_rng


def test_same_seed_same_stream():
    a = spawn_rng(42, "x")
    b = spawn_rng(42, "x")
    assert a.random() == b.random()


def test_different_labels_different_streams():
    a = spawn_rng(42, "x")
    b = spawn_rng(42, "y")
    draws_a = a.random(8)
    draws_b = b.random(8)
    assert not np.allclose(draws_a, draws_b)


def test_different_seeds_different_streams():
    assert spawn_rng(1, "x").random() != spawn_rng(2, "x").random()


def test_nested_labels_are_independent():
    a = spawn_rng(0, "client", "1")
    b = spawn_rng(0, "client", "2")
    assert a.random() != b.random()


def test_generator_passthrough_without_labels():
    generator = np.random.default_rng(5)
    assert spawn_rng(generator) is generator


def test_generator_with_labels_derives_child():
    generator = np.random.default_rng(5)
    child = spawn_rng(generator, "sub")
    assert child is not generator


def test_factory_same_label_reproducible():
    factory = RngFactory(seed=7)
    assert factory.make("p").random() == factory.make("p").random()


def test_factory_child_differs_from_parent():
    factory = RngFactory(seed=7)
    child = factory.child("scope")
    assert factory.make("x").random() != child.make("x").random()


def test_factory_child_deterministic():
    a = RngFactory(seed=7).child("scope").make("x").random()
    b = RngFactory(seed=7).child("scope").make("x").random()
    assert a == b


def test_factory_exposes_seed():
    assert RngFactory(seed=11).seed == 11


def test_seedsequence_accepted():
    sequence = np.random.SeedSequence(9)
    a = spawn_rng(sequence, "a").random()
    b = spawn_rng(np.random.SeedSequence(9), "a").random()
    assert a == b


def test_unseeded_factory_keeps_one_stream_per_label():
    """``RngFactory(None)`` draws its OS entropy once: the same label
    names the same stream on every call, and the root is a recordable
    integer that rebuilds the factory."""
    factory = RngFactory(None)
    assert isinstance(factory.seed, int)
    first, second = factory.make("a"), factory.make("a")
    assert first.bit_generator.state == second.bit_generator.state
    assert np.array_equal(first.random(4), second.random(4))
    rebuilt = RngFactory(factory.seed)
    assert (
        rebuilt.make("a").bit_generator.state
        == factory.make("a").bit_generator.state
    )
    assert [g.bit_generator.state for g in factory.make_many(["x", "y"])] == [
        g.bit_generator.state for g in rebuilt.make_many(["x", "y"])
    ]
    assert RngFactory(None).seed != factory.seed


def test_seeded_factories_are_unchanged():
    for seed in (0, 7, 2**70):
        factory = RngFactory(seed)
        assert factory.seed == seed
        assert (
            factory.make("p", "1").bit_generator.state
            == spawn_rng(seed, "p", "1").bit_generator.state
        )
    assert RngFactory().seed == 0
    from_generator = RngFactory(np.random.default_rng(3))
    assert from_generator.seed == int(
        np.random.default_rng(3).integers(0, 2**32)
    )
