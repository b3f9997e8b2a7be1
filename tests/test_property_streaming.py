"""Property tests for the streaming shard provider.

Pins the regeneration invariant with Hypothesis: a
:class:`~repro.datasets.streaming.SyntheticShardProvider` returns
**bit-identical** shards under any random access order — each fetch
regenerating exactly once — including ``max_size`` caps that trigger the
deterministic size redistribution.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.streaming import SyntheticShardProvider
from repro.testing.strategies import streaming_federation as _build

NUM_CLIENTS = 8
TOTAL_SAMPLES = 400


@settings(max_examples=25, deadline=None)
@given(
    order=st.lists(
        st.integers(0, NUM_CLIENTS - 1), min_size=1, max_size=40
    ),
    max_size=st.one_of(
        st.none(), st.integers(TOTAL_SAMPLES // NUM_CLIENTS + 10, 200)
    ),
)
def test_shards_bit_identical_under_any_access_order(order, max_size):
    """Access order is invisible: every fetch regenerates its shard
    exactly once, and the result matches the reference built with
    sequential access."""
    reference = _build(max_size).provider
    expected = {
        client_id: tuple(
            array.copy() for array in reference.shard_arrays(client_id)
        )
        for client_id in range(NUM_CLIENTS)
    }
    provider = _build(max_size).provider
    for client_id in order:
        before = provider.regenerations
        features, labels = provider.shard_arrays(client_id)
        assert provider.regenerations == before + 1
        assert np.array_equal(features, expected[client_id][0])
        assert np.array_equal(labels, expected[client_id][1])


@settings(max_examples=25, deadline=None)
@given(
    max_size=st.integers(TOTAL_SAMPLES // NUM_CLIENTS + 2, 300),
    order=st.lists(
        st.integers(0, NUM_CLIENTS - 1), min_size=1, max_size=16
    ),
)
def test_capped_sizes_redistribute_exactly(max_size, order):
    """A max_size cap preserves the sample total, bounds every shard, and
    stays a pure function of the seed (bit-identical across builds)."""
    first = _build(max_size)
    again = _build(max_size)
    assert int(first.sizes.sum()) == TOTAL_SAMPLES
    assert int(first.sizes.max()) <= max_size
    assert np.array_equal(first.sizes, again.sizes)
    for client_id in order:
        a = first.provider.shard_arrays(client_id)
        b = again.provider.shard_arrays(client_id)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


@settings(max_examples=15, deadline=None)
@given(order=st.lists(st.integers(0, NUM_CLIENTS - 1), min_size=1,
                      max_size=20))
def test_pickled_provider_regenerates_identically(order):
    """Workers receive the provider as a recipe (no arrays); the
    unpickled twin must reproduce every shard bit-for-bit."""
    import pickle

    provider = _build().provider
    clone = pickle.loads(pickle.dumps(provider))
    assert clone.regenerations == 0
    for client_id in order:
        a = provider.shard_arrays(client_id)
        b = clone.shard_arrays(client_id)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


def test_heldout_rows_are_disjoint_and_stable():
    """Held-out rows come from the same full draw as the training rows,
    so accessing them never perturbs training shards."""
    dataset = _build()
    provider = dataset.provider
    before = tuple(
        array.copy() for array in provider.shard_arrays(0)
    )
    heldout = provider.heldout_shard(0)
    assert len(heldout) == int(provider.test_sizes[0])
    after = provider.shard_arrays(0)
    assert np.array_equal(before[0], after[0])
    assert np.array_equal(before[1], after[1])


def test_zero_test_fraction_provider_has_no_heldout():
    provider = SyntheticShardProvider(
        np.full(4, 20), seed=1, dim=5, num_classes=3, test_fraction=0.0
    )
    with pytest.raises(ValueError, match="held-out"):
        provider.heldout_shard(0)
