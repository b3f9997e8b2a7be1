"""Deterministic random-number management.

Every stochastic component in the library (dataset generation, client
participation draws, SGD batching, device heterogeneity) receives its own
:class:`numpy.random.Generator`, derived from a root seed plus a string label.
Two properties follow:

* runs are exactly reproducible from a single integer seed, and
* adding a new consumer of randomness never perturbs the streams used by
  existing consumers (no shared global state).

Stream derivation
=================

The stream at label path ``(l_1, ..., l_k)`` under root ``seed`` is NumPy's
``default_rng(SeedSequence(seed, spawn_key=(crc32(l_1), ..., crc32(l_k))))``,
and this module computes exactly that seeding itself. It mixes the entropy
words into the 4-word pool with ``SeedSequence``'s hash constants, and a
small :class:`~numpy.random.bit_generator.ISeedSequence` over the mixed pool
expands it as ``generate_state`` does, so NumPy's own
:class:`~numpy.random.PCG64` seeding runs on the same words.

Owning the mixing lets streams that share a label prefix share its work.
:class:`StreamPrefix` mixes the seed and the leading labels once;
:meth:`StreamPrefix.spawn` then finishes only the words that differ per
stream, which is how the streaming shard provider derives a whole stacked
fetch's shard streams and the trainer every client's SGD stream;
:meth:`StreamPrefix.extend` appends labels to a mixed prefix, so an
:class:`RngFactory` mixes its seed once and each stream only its labels.
:meth:`RngFactory.make_many` is that batch form over a label path, and
:func:`spawn_rng` the one-stream case. NumPy's ``SeedSequence`` remains the
oracle the tests check every stream against; here it only draws OS entropy
for ``seed=None``, and a seed with no labels goes to NumPy's ``default_rng``
as is. A derived generator's ``seed_seq`` is the mixed pool, which does not
implement :meth:`~numpy.random.Generator.spawn`.
"""

from __future__ import annotations

import zlib
from typing import List, Sequence, Tuple, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator, None]

# SeedSequence's constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_UINT32 = np.dtype(np.uint32)
_UINT64 = np.dtype(np.uint64)


def _label_entropy(label: str) -> int:
    """Map a string label to a stable 32-bit integer.

    ``zlib.crc32`` is used instead of ``hash()`` because the latter is salted
    per-process and would break reproducibility across runs.
    """
    return zlib.crc32(label.encode("utf-8"))


def _hash_keys(key: int, multiplier: int, count: int) -> List[int]:
    """A hash constant's value before each of ``count`` hashes, then after.

    Each hash multiplies the constant once, whatever the data, so the
    constant a hash uses depends only on how many hashes came before it.
    """
    keys = [key]
    for _ in range(count):
        key = key * multiplier & _MASK32
        keys.append(key)
    return keys


#: ``mix_entropy``'s first 16 hashes: the constants that fill the pool from
#: the first four entropy words, then ``(source, destination, key, next
#: key)`` for each ordered pair of distinct pool words.
_FILL_KEYS = _hash_keys(_INIT_A, _MULT_A, 16)
_PAIR_STEPS = tuple(
    (src, dst, key, next_key)
    for (src, dst), key, next_key in zip(
        [
            (src, dst)
            for src in range(_POOL_SIZE)
            for dst in range(_POOL_SIZE)
            if src != dst
        ],
        _FILL_KEYS[_POOL_SIZE:],
        _FILL_KEYS[_POOL_SIZE + 1:],
    )
)


def _int_words(value: int) -> List[int]:
    """``value``'s little-endian 32-bit words (at least one)."""
    value = int(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _entropy_words(entropy) -> List[int]:
    """The 32-bit words ``SeedSequence`` reads from ``entropy``."""
    if isinstance(entropy, np.ndarray) and entropy.dtype == _UINT32:
        return [int(word) for word in entropy]
    if isinstance(entropy, str):
        if entropy.startswith("0x"):
            entropy = int(entropy, base=16)
        elif entropy.isdigit():
            entropy = int(entropy, base=10)
        else:
            raise ValueError("unrecognized seed string")
    if isinstance(entropy, (int, np.integer)):
        return _int_words(entropy)
    if isinstance(entropy, (float, np.inexact)):
        raise TypeError("seed must be integer")
    return [word for item in entropy for word in _entropy_words(item)]


def _seed_words(seed: SeedLike) -> List[int]:
    """The run-entropy words of a root seed, zero-padded to the pool size.

    ``SeedSequence`` pads only when a spawn key follows; without one the
    padding hashes the same zeros its pool fill would, so padding always
    is equivalent.
    """
    if isinstance(seed, np.random.Generator):
        # Derive a stable child from the generator's own stream state.
        entropy = int(seed.integers(0, 2**32))
    elif isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
    elif seed is None:
        entropy = np.random.SeedSequence().entropy
    elif isinstance(seed, (int, np.integer, list, tuple, range, np.ndarray)):
        entropy = seed
    else:
        raise TypeError(
            "SeedSequence expects int or sequence of ints for entropy not "
            f"{seed}"
        )
    words = _entropy_words(entropy)
    return words + [0] * (_POOL_SIZE - len(words))


def _absorb(
    pool: Sequence[int], key: int, words: Sequence[int]
) -> Tuple[List[int], int]:
    """Mix each word into every pool word (``mix_entropy``'s last loop)."""
    mask, shift, left, right = _MASK32, _XSHIFT, _MIX_MULT_L, _MIX_MULT_R
    for word in words:
        mixed = []
        for value in pool:
            next_key = key * _MULT_A & mask
            hashed = (word ^ key) * next_key & mask
            key = next_key
            hashed = (left * value - right * (hashed ^ hashed >> shift)) & mask
            mixed.append(hashed ^ hashed >> shift)
        pool = mixed
    return pool, key


def _mix_entropy(words: Sequence[int]) -> Tuple[List[int], int]:
    """``SeedSequence.mix_entropy`` over at least a pool's worth of words.

    Returns the mixed pool and the hash constant the next word would use.
    """
    mask, shift, left, right = _MASK32, _XSHIFT, _MIX_MULT_L, _MIX_MULT_R
    pool = []
    for word, key, next_key in zip(
        words[:_POOL_SIZE], _FILL_KEYS, _FILL_KEYS[1:]
    ):
        hashed = (word ^ key) * next_key & mask
        pool.append(hashed ^ hashed >> shift)
    for src, dst, key, next_key in _PAIR_STEPS:
        hashed = (pool[src] ^ key) * next_key & mask
        hashed = (left * pool[dst] - right * (hashed ^ hashed >> shift)) & mask
        pool[dst] = hashed ^ hashed >> shift
    return _absorb(pool, _FILL_KEYS[-1], words[_POOL_SIZE:])


def _state_steps(count: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``generate_state``'s pool index, key and next key for each of its
    first ``count`` 32-bit words."""
    keys = np.array(_hash_keys(_INIT_B, _MULT_B, count), dtype=_UINT32)
    return np.arange(count) % _POOL_SIZE, keys[:-1], keys[1:]


#: The steps of the eight 32-bit words PCG64 seeds from.
_PCG64_STEPS = _state_steps(2 * _POOL_SIZE)


def _expand(pools: np.ndarray, steps) -> np.ndarray:
    """``SeedSequence.generate_state``'s 32-bit words for every row of a
    ``(streams, 4)`` array of mixed pools, in one pass over the rows."""
    at, keys, next_keys = steps
    words = np.take(pools, at, axis=1)
    words ^= keys
    words *= next_keys
    words ^= words >> _XSHIFT
    return words


def _pack64(words: np.ndarray) -> np.ndarray:
    """Pairs of 32-bit words as 64-bit words, low word first, as
    ``generate_state`` packs them."""
    return (
        words.astype("<u4", copy=False)
        .view("<u8")
        .astype(_UINT64, copy=False)
    )


class _MixedPool(ISeedSequence):
    """A ``SeedSequence`` reduced to its mixed entropy pool.

    A bit generator asks its seed sequence only for ``generate_state``,
    which reads nothing but the pool; this one answers with
    ``SeedSequence``'s words. PCG64's request, four 64-bit words, arrives
    already expanded with the rest of its batch.
    """

    def __init__(self, pool: np.ndarray, pcg64_words: np.ndarray):
        self.pool = pool
        self.pcg64_words = pcg64_words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        dtype = np.dtype(dtype)
        if dtype == _UINT64 and n_words == len(self.pcg64_words):
            return self.pcg64_words
        if dtype == _UINT32:
            return _expand(self.pool[None], _state_steps(n_words))[0]
        if dtype != _UINT64:
            raise ValueError("only support uint32 or uint64")
        return _pack64(_expand(self.pool[None], _state_steps(2 * n_words)))[0]


def _generators(pools: np.ndarray) -> List[np.random.Generator]:
    """One PCG64 generator per row of a ``(streams, 4)`` pool array."""
    seeds = _pack64(_expand(pools, _PCG64_STEPS))
    return [
        np.random.Generator(np.random.PCG64(_MixedPool(pool, words)))
        for pool, words in zip(pools, seeds)
    ]


class StreamPrefix:
    """The seeding state of a root seed and a leading label path.

    Building the prefix mixes the seed's and the labels' words once;
    :meth:`spawn` then mixes only the words after the prefix, per stream,
    and expands all the streams' pools together. The state is five
    integers, so a prefix pickles small. A
    :class:`numpy.random.Generator` seed is consumed (one draw) and a
    ``None`` seed draws OS entropy when the prefix is built.
    """

    __slots__ = ("_pool", "_key")

    def __init__(self, seed: SeedLike, *labels: str):
        words = _seed_words(seed) + [_label_entropy(label) for label in labels]
        pool, self._key = _mix_entropy(words)
        self._pool = tuple(pool)

    def extend(self, *labels: str) -> "StreamPrefix":
        """The prefix at path ``(*prefix, *labels)``, mixing only
        ``labels``' words: ``StreamPrefix(seed, *a).extend(*b)`` equals
        ``StreamPrefix(seed, *a, *b)``."""
        extended = StreamPrefix.__new__(StreamPrefix)
        pool, extended._key = _absorb(
            self._pool, self._key, [_label_entropy(label) for label in labels]
        )
        extended._pool = tuple(pool)
        return extended

    def generator(self) -> np.random.Generator:
        """The stream at the prefix's own label path."""
        [generator] = _generators(np.array([self._pool], dtype=_UINT32))
        return generator

    def spawn(
        self, varying: Sequence[str], *labels: str
    ) -> List[np.random.Generator]:
        """One stream per entry of ``varying``, at path ``(*prefix, v,
        *labels)``: stream ``k`` equals ``spawn_rng(seed, *prefix,
        varying[k], *labels)`` bit for bit."""
        suffix = [_label_entropy(label) for label in labels]
        pools = [
            _absorb(self._pool, self._key, [_label_entropy(label), *suffix])[0]
            for label in varying
        ]
        return _generators(
            np.array(pools, dtype=_UINT32).reshape(-1, _POOL_SIZE)
        )


def spawn_rng(seed: SeedLike, *labels: str) -> np.random.Generator:
    """Create a generator derived from ``seed`` and a path of string labels.

    The one-stream case of :meth:`StreamPrefix.spawn`: the whole path is
    the :class:`StreamPrefix`. With no labels the seed is NumPy's own,
    ``default_rng(seed)``.

    Args:
        seed: Root seed. ``None`` gives a nondeterministic generator; a
            :class:`numpy.random.Generator` is returned unchanged when no
            labels are given, otherwise a child stream is derived from it.
        *labels: Hierarchical labels, e.g. ``("setup1", "client", "3")``.

    Returns:
        A :class:`numpy.random.Generator` unique to the (seed, labels) pair.
    """
    if not labels:
        if isinstance(seed, np.random.Generator):
            return seed
        return np.random.default_rng(seed)
    return StreamPrefix(seed, *labels).generator()


def rng_state_doc(generator: np.random.Generator) -> dict:
    """JSON-serializable snapshot of a generator's bit-generator state.

    numpy exposes the full state of a bit generator as a plain dict of
    Python ints and strings (PCG64's 128-bit counters arrive as arbitrary-
    precision ints, which JSON round-trips exactly), so the snapshot can be
    embedded in checkpoint documents and restored bit-for-bit with
    :func:`restore_rng_state`.
    """
    return _copy_state(generator.bit_generator.state)


def restore_rng_state(generator: np.random.Generator, doc: dict) -> None:
    """Restore a generator to the exact position captured by
    :func:`rng_state_doc`.

    The snapshot names its bit-generator algorithm; restoring onto a
    generator backed by a different algorithm is rejected rather than
    silently producing a divergent stream.
    """
    expected = type(generator.bit_generator).__name__
    recorded = doc.get("bit_generator")
    if recorded != expected:
        raise ValueError(
            f"cannot restore {recorded!r} state onto a {expected} "
            "bit generator"
        )
    generator.bit_generator.state = _copy_state(doc)


def _copy_state(state):
    """Deep-copy a bit-generator state tree of dicts/ints/strings."""
    if isinstance(state, dict):
        return {key: _copy_state(value) for key, value in state.items()}
    if isinstance(state, (list, tuple)):
        return [_copy_state(item) for item in state]
    if isinstance(state, np.ndarray):
        return state.tolist()
    if isinstance(state, np.integer):
        return int(state)
    return state


class RngFactory:
    """Factory handing out independent named random streams from one seed.

    Example:
        >>> factory = RngFactory(seed=7)
        >>> a = factory.make("participation")
        >>> b = factory.make("participation")   # same label -> same stream
        >>> float(a.random()) == float(b.random())
        True
    """

    def __init__(self, seed: SeedLike = 0):
        # A generator or ``None`` resolves to an integer root once, so one
        # label path always names one stream and ``seed`` is recordable.
        if isinstance(seed, np.random.Generator):
            seed = int(seed.integers(0, 2**32))
        elif seed is None:
            seed = int(np.random.SeedSequence().entropy)
        self._seed = seed
        # The seed's words are mixed once here; every stream then mixes
        # only its own labels (as the shard provider's StreamPrefix does).
        self._prefix = StreamPrefix(seed)

    @property
    def seed(self) -> SeedLike:
        """Root seed this factory derives all streams from."""
        return self._seed

    def make(self, *labels: str) -> np.random.Generator:
        """Return the generator for the given label path
        (``spawn_rng(seed, *labels)``)."""
        if not labels:
            return spawn_rng(self._seed)
        return self._prefix.extend(*labels).generator()

    def make_many(
        self, *labels: Union[str, Sequence[str]]
    ) -> List[np.random.Generator]:
        """The generators of a batch of label paths that differ in one
        label.

        Exactly one of ``labels`` is a sequence of strings, one entry per
        stream: ``make_many("client", ["0", "1"], "sgd")`` equals
        ``[make("client", "0", "sgd"), make("client", "1", "sgd")]`` bit
        for bit, mixing the shared words once (:meth:`StreamPrefix.spawn`).
        """
        varying = [
            index
            for index, label in enumerate(labels)
            if not isinstance(label, str)
        ]
        if len(varying) != 1:
            raise TypeError(
                "make_many needs exactly one label that is a sequence of "
                f"labels, got {len(varying)}"
            )
        [at] = varying
        return self._prefix.extend(*labels[:at]).spawn(
            labels[at], *labels[at + 1:]
        )

    def child(self, *labels: str) -> "RngFactory":
        """Return a factory whose streams are nested under ``labels``."""
        entropy = self.make(*labels, "child-factory")
        return RngFactory(int(entropy.integers(0, 2**31)))
