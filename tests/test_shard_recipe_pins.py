"""Byte pins of the Synthetic(alpha, beta) shard recipe.

The eager-vs-streaming bit-identity tests compare two callers of one
recipe, so a change to the recipe itself moves both sides together and
passes them. These digests pin the recipe's output bytes directly: every
training and held-out shard of a few small providers (``alpha`` and
``beta`` in {0, 1}, ``test_fraction`` in {0, 0.2}, a NumPy-integer seed)
and one eager :func:`~repro.datasets.synthetic.synthetic_federated`
build. A refactor of how shards are drawn must leave every digest here
unchanged.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets import SyntheticShardProvider, synthetic_federated

#: Shard sizes of every pinned provider: a one-row shard, shards below
#: and above the default batch width, and one larger than the rest.
_SIZES = np.array([1, 5, 24, 3, 61, 12])


def _digest(pairs) -> str:
    """sha256 over ``(features, labels)`` pairs, in order, as little-endian
    float64/int64 bytes (so the pin does not depend on the host's
    native integer width)."""
    digest = hashlib.sha256()
    for features, labels in pairs:
        digest.update(np.ascontiguousarray(features, dtype="<f8").tobytes())
        digest.update(np.ascontiguousarray(labels, dtype="<i8").tobytes())
    return digest.hexdigest()


#: ``(alpha, beta, test_fraction, seed, dim, classes)`` ->
#: ``(train digest, held-out digest or None)``.
PROVIDER_PINS = {
    (1.0, 1.0, 0.2, 0, 60, 10): (
        "ba0475b6153df9d9ab175875739a49a1748df2e336230d5834e11010732ffbf9",
        "63505e4b00b15b852cbf59423b68058651639972468bd8a476f9a49529b0da51",
    ),
    (0.0, 0.0, 0.2, 3, 60, 10): (
        "5f64686e88745d7fed067eb82d0a822704e6ac9aaff8128f2d94c731dbbd783e",
        "98af591a424213c4dd393c8bd31f30a22948e31a7a18ea4a78c5d17fe42b8ef4",
    ),
    (1.0, 0.0, 0.0, 5, 60, 10): (
        "ce644e7b2e6884ce151d5e48e9b55e4cad6190bc018ec98043a0afed450c8c36",
        None,
    ),
    (0.0, 1.0, 0.2, np.int64(17), 7, 3): (
        "19c94a2ad0d5a541eea607b4b534806c76d066891dba8631bad95b8e23022c26",
        "dd6d99e1823476f27112a8d50a1a63cdedc1feb5cca1b599c5da74560842ce8f",
    ),
}

#: sha256 of one eager build: every client's training shard, then the
#: global test set.
EAGER_PIN = (
    "f4e08119278093b3dd1917ae9ce3a4411d8a3e1ebe1df45942c700ffd1da1494"
)


@pytest.mark.parametrize(
    "key", list(PROVIDER_PINS), ids=lambda key: "-".join(map(str, key))
)
def test_provider_shards_match_pinned_bytes(key):
    alpha, beta, test_fraction, seed, dim, classes = key
    provider = SyntheticShardProvider(
        _SIZES,
        seed=seed,
        alpha=alpha,
        beta=beta,
        dim=dim,
        num_classes=classes,
        test_fraction=test_fraction,
    )
    train_pin, heldout_pin = PROVIDER_PINS[key]
    ids = range(provider.num_clients)
    assert _digest(provider.shard_arrays(n) for n in ids) == train_pin
    if heldout_pin is None:
        with pytest.raises(ValueError):
            provider.heldout_shard(0)
    else:
        heldout = (provider.heldout_shard(n).arrays() for n in ids)
        assert _digest(heldout) == heldout_pin


def test_eager_build_matches_pinned_bytes():
    federated = synthetic_federated(
        6, total_samples=240, test_fraction=0.2, rng=np.int64(9)
    )
    shards = [shard.arrays() for shard in federated.client_datasets]
    shards.append(federated.test_dataset.arrays())
    assert _digest(shards) == EAGER_PIN
