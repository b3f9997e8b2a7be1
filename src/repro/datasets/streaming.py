"""Streaming (memory-bounded) federated datasets.

The eager :class:`~repro.datasets.federated.FederatedDataset` materializes
every client's shard up front, so preparing a fleet costs ``O(total
samples)`` resident memory — fine at the paper's ``N = 40``, prohibitive at
the 10k-client ``megafleet`` regime the scenario layer reaches. This module
replaces the up-front arrays with a **shard provider**: any client's shard
is regenerated on demand, bit-identical every time, from nothing but
``(seed, client_id)``.

The provider contract
=====================

* **Pure regeneration.** Client ``n``'s shard is replayed from scratch
  from its private generator, ``spawn_rng(seed, "shard", str(n))``. Two
  fetches — seconds or processes apart, before or after any other client,
  alone or in any group — return bit-identical rows. There is no hidden
  sequential state: the provider pickles as a few integers plus the size
  vector, never as data or generator state.
* **One stream derivation per fetch.** The provider mixes the ``(seed,
  "shard")`` prefix of every shard stream once, when it is built (a
  :class:`~repro.utils.rng.StreamPrefix`: five integers), and each
  synthesis call derives all its listed shards' streams in one
  :meth:`~repro.utils.rng.StreamPrefix.spawn`, which mixes only each
  id's own label word and expands every pool into its PCG64 seed words
  in one NumPy pass. :meth:`SyntheticShardProvider.shard_rng` is the
  one-id case.
* **Stacked fetches.** ``provider.stacked_arrays(client_ids)`` synthesizes
  the training rows of a whole list of clients in one call of the
  recipe, into one fresh ``(sum of sizes, dim)`` stack in list order;
  ``shard_arrays(n)`` is the one-id case. Every id is range-checked
  before anything is drawn, and ``regenerations`` counts shards, not
  calls. A training fetch draws only the training rows: they are a
  prefix of the client's full draw, because the feature rows are the
  recipe's last draw. Chunked evaluation fetches one stack per chunk and
  the trainer one per kernel group.
* **Bounded residency.** The provider keeps no shard: every fetch
  regenerates from ``(seed, client_id)`` and the arrays live only as long
  as the caller holds them. Under the paper's independent Bernoulli(q_n)
  cohorts a shard is almost never re-read within a short window, so a
  recency cache here would only hold memory.
* **Eager twin.** :meth:`StreamingFederatedDataset.materialize` assembles
  the conventional eager :class:`FederatedDataset` holding *the same
  arrays*, synthesized one client per call, so comparing it with the
  provider also checks stacked synthesis against single-client
  synthesis. The twin is what the bit-identity tests (and small-fleet
  callers that prefer simplicity) use; at megafleet sizes it is exactly
  the allocation streaming exists to avoid.

The recipe is the Synthetic(alpha, beta) generator of
:mod:`repro.datasets.synthetic` (:func:`client_shard_arrays`, always
called through this module's global, which ``perf/trace.py`` wraps),
re-keyed: where the eager builder walks one sequential generator across
clients (so client ``n``'s draw depends on every earlier client's), the
streaming recipe gives each client its own derived stream. The two
recipes therefore produce *different* (equally distributed) federations —
streaming is a new dataset family, not a lazy view of
``synthetic_federated`` — but within the streaming family the eager twin
and the provider agree bitwise by construction.

The global test set stays eager and bounded: a deterministic subsample of
clients (``test_clients`` of them) contributes its held-out rows, so test
evaluation covers the client mixture without scaling with ``N``. The rows
are fetched with :meth:`SyntheticShardProvider.stacked_heldout` in
whole-client stacks of at most
:data:`~repro.models.metrics.EVAL_CHUNK_SAMPLES` drawn rows.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.base import Dataset, check_client_ids, concatenate
from repro.datasets.federated import FederatedDataset
from repro.datasets.partition import power_law_sizes
from repro.datasets.synthetic import client_shard_arrays
from repro.models.metrics import eval_client_chunks
from repro.utils.rng import StreamPrefix, spawn_rng
from repro.utils.validation import check_nonnegative

#: Default number of clients whose held-out rows form the global test set.
DEFAULT_TEST_CLIENTS = 128


class SyntheticShardProvider:
    """Regenerates Synthetic(alpha, beta) client shards on demand.

    Args:
        sizes: Per-client *training* sample counts (fixed up front; sizes
            are metadata, not data).
        seed: Integer root seed. Client ``n``'s stream is
            ``spawn_rng(seed, "shard", str(n))`` — no other client's draws
            enter it, which is what makes regeneration order-independent.
        alpha: Model-heterogeneity level of the synthetic recipe.
        beta: Feature-heterogeneity level.
        dim: Feature dimension.
        num_classes: Number of classes.
        test_fraction: Per-client held-out fraction (the shard's full
            stream draws ``size + test_size`` rows; the trailing rows are
            the held-out part, so train arrays are independent of whether
            the client ever contributes to a test set, and a training
            fetch draws only the ``size``-row prefix).
    """

    def __init__(
        self,
        sizes: np.ndarray,
        *,
        seed: int,
        alpha: float = 1.0,
        beta: float = 1.0,
        dim: int = 60,
        num_classes: int = 10,
        test_fraction: float = 0.2,
    ):
        check_nonnegative(alpha, "alpha")
        check_nonnegative(beta, "beta")
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(
                "SyntheticShardProvider needs an integer seed (shards are "
                f"regenerated from it), got {type(seed).__name__}"
            )
        sizes = np.asarray(sizes, dtype=int)
        if sizes.ndim != 1 or sizes.size == 0:
            raise ValueError("sizes must be a non-empty 1-D integer array")
        if np.any(sizes < 1):
            raise ValueError("every client needs at least one sample")
        if not 0 <= test_fraction < 1:
            raise ValueError(
                f"test_fraction must lie in [0, 1), got {test_fraction}"
            )
        self.sizes = sizes
        self.seed = int(seed)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.dim = int(dim)
        self.num_classes = int(num_classes)
        self.test_fraction = float(test_fraction)
        self.test_sizes = np.maximum(
            1, np.round(sizes * test_fraction).astype(int)
        ) if test_fraction > 0 else np.zeros_like(sizes)
        # Every shard stream's shared ``(seed, "shard")`` prefix, mixed once.
        self._streams = StreamPrefix(self.seed, "shard")
        # Shards synthesized by this instance; a copy or unpickled twin
        # starts again at 0.
        self.regenerations = 0

    @property
    def num_clients(self) -> int:
        """Number of clients ``N``."""
        return int(self.sizes.size)

    def shard_rngs(
        self, client_ids: Sequence[int]
    ) -> List[np.random.Generator]:
        """Fresh generators at the start of the listed clients' streams.

        Client ``n``'s is ``spawn_rng(seed, "shard", str(n))``, bit for
        bit; all are derived in one pass over the provider's mixed prefix.
        Ids are not range-checked here.
        """
        return self._streams.spawn(
            [str(int(client_id)) for client_id in client_ids]
        )

    def shard_rng(self, client_id: int) -> np.random.Generator:
        """A fresh generator at the start of client ``n``'s private stream.

        The one-id case of :meth:`shard_rngs`.
        """
        return self.shard_rngs([client_id])[0]

    def _synthesize(
        self, client_ids: List[int], sizes: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One synthesis call over checked ids: ``sizes[k]`` rows each."""
        arrays = client_shard_arrays(
            sizes,
            self.alpha,
            self.beta,
            self.dim,
            self.num_classes,
            self.shard_rngs(client_ids),
        )
        self.regenerations += len(client_ids)
        return arrays

    def stacked_arrays(
        self, client_ids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The listed clients' training rows, stacked in list order.

        One synthesis call regenerates every listed shard (a repeated id
        is regenerated once per listing) into one fresh
        ``(sum of sizes, dim)`` array, byte-equal to concatenating
        :meth:`shard_arrays` of each id. Every id is checked before
        anything is drawn.
        """
        ids = check_client_ids(client_ids, self.num_clients)
        return self._synthesize(ids, self.sizes[ids])

    def shard_arrays(self, client_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(features, labels)`` of client ``n``'s training rows.

        The one-id case of :meth:`stacked_arrays`: every call regenerates
        the shard, so callers that need both arrays take them from one
        call.
        """
        return self.stacked_arrays([client_id])

    def shard(self, client_id: int) -> Dataset:
        """Client ``n``'s training shard as a materialized :class:`Dataset`."""
        features, labels = self.shard_arrays(client_id)
        # shard_arrays returns a fresh stack the caller owns: no copy.
        return Dataset(
            features=features, labels=labels, num_classes=self.num_classes
        )

    def stacked_heldout(self, client_ids: Sequence[int]) -> Dataset:
        """The listed clients' held-out rows, stacked in list order.

        One synthesis call draws each listed client's full ``size +
        test_size`` rows; its held-out rows are the tail of that draw.
        Every id is checked before anything is drawn.
        """
        ids = check_client_ids(client_ids, self.num_clients)
        for client_id in ids:
            if self.test_sizes[client_id] == 0:
                raise ValueError(
                    f"client {client_id} has no held-out rows "
                    "(test_fraction is 0)"
                )
        test_sizes = self.test_sizes[ids]
        full_sizes = self.sizes[ids] + test_sizes
        features, labels = self._synthesize(ids, full_sizes)
        # Output row i, the j-th held-out row of listed client k, is row
        # ends[k] - test_sizes[k] + j of the draw.
        ends = np.cumsum(full_sizes)
        rows = np.arange(int(test_sizes.sum())) + np.repeat(
            ends - np.cumsum(test_sizes), test_sizes
        )
        return Dataset(
            features=features[rows],
            labels=labels[rows],
            num_classes=self.num_classes,
        )

    def heldout_shard(self, client_id: int) -> Dataset:
        """Client ``n``'s held-out rows (the test-set contribution).

        The one-id case of :meth:`stacked_heldout`.
        """
        return self.stacked_heldout([client_id])

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["regenerations"] = 0
        return state


class LazyShard:
    """A client shard that materializes through the provider on access.

    Duck-types the slice of the :class:`~repro.datasets.base.Dataset`
    interface the FL engine reads (``len``, ``features``, ``labels``,
    ``num_features``, ``num_classes``, ``classes_present``), but holds no
    arrays itself: each ``features``/``labels``/``arrays()`` access
    regenerates the shard through the provider — bit-identical every time.
    """

    __slots__ = ("_provider", "client_id")

    def __init__(self, provider: SyntheticShardProvider, client_id: int):
        self._provider = provider
        self.client_id = int(client_id)

    def __len__(self) -> int:
        return int(self._provider.sizes[self.client_id])

    @property
    def num_features(self) -> int:
        return self._provider.dim

    @property
    def num_classes(self) -> int:
        return self._provider.num_classes

    @property
    def features(self) -> np.ndarray:
        return self._provider.shard_arrays(self.client_id)[0]

    @property
    def labels(self) -> np.ndarray:
        return self._provider.shard_arrays(self.client_id)[1]

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(features, labels)`` through a single provider call.

        One regeneration — reading the two properties separately would
        regenerate the shard twice.
        """
        return self._provider.shard_arrays(self.client_id)

    def classes_present(self) -> np.ndarray:
        """Sorted distinct labels actually present (materializes once)."""
        return np.unique(self.labels)


class _LazyShardSequence:
    """Read-only ``client_datasets`` view over a provider."""

    def __init__(self, provider: SyntheticShardProvider):
        self._provider = provider

    def __len__(self) -> int:
        return self._provider.num_clients

    def __getitem__(self, client_id: int) -> LazyShard:
        if not 0 <= int(client_id) < len(self):
            raise IndexError(client_id)
        return LazyShard(self._provider, int(client_id))

    def __iter__(self) -> Iterator[LazyShard]:
        for client_id in range(len(self)):
            yield LazyShard(self._provider, client_id)


class StreamingFederatedDataset:
    """A federation whose client shards are regenerated on demand.

    API-compatible with :class:`~repro.datasets.federated.FederatedDataset`
    for everything the FL engine and the metrics layer use, except
    :meth:`pooled_train`, which raises: pooling is exactly the ``O(total
    samples)`` allocation streaming exists to avoid (evaluation goes
    through the client-aligned chunked pass in
    :mod:`repro.models.metrics` instead).

    Attributes:
        provider: The shard provider.
        test_dataset: Eager, bounded global test set (held-out rows of a
            deterministic client subsample).
        name: Human-readable identifier.
        test_client_ids: The clients contributing the test rows.
    """

    def __init__(
        self,
        provider: SyntheticShardProvider,
        test_dataset: Dataset,
        *,
        name: str = "streaming",
        test_client_ids: Tuple[int, ...] = (),
    ):
        if test_dataset.num_features != provider.dim:
            raise ValueError(
                "test set feature dimension "
                f"{test_dataset.num_features} != provider dim {provider.dim}"
            )
        self.provider = provider
        self.test_dataset = test_dataset
        self.name = name
        self.test_client_ids = tuple(int(i) for i in test_client_ids)

    def stacked_arrays(
        self, client_ids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The listed clients' training rows, regenerated in one stack.

        :meth:`SyntheticShardProvider.stacked_arrays`: one synthesis call
        for the whole list, byte-equal to the eager twin's concatenation.
        """
        return self.provider.stacked_arrays(client_ids)

    @property
    def client_datasets(self) -> _LazyShardSequence:
        """Lazy per-client shard views (regenerate on access)."""
        return _LazyShardSequence(self.provider)

    @property
    def num_clients(self) -> int:
        """Number of clients ``N``."""
        return self.provider.num_clients

    @property
    def num_classes(self) -> int:
        """Number of classes in the task."""
        return self.provider.num_classes

    @property
    def num_features(self) -> int:
        """Feature dimension shared by all shards."""
        return self.provider.dim

    @property
    def sizes(self) -> np.ndarray:
        """Per-client sample counts ``d_n`` (metadata; no materialization)."""
        return self.provider.sizes.copy()

    @property
    def weights(self) -> np.ndarray:
        """Aggregation weights ``a_n = d_n / sum_m d_m``."""
        sizes = self.provider.sizes.astype(float)
        return sizes / sizes.sum()

    @property
    def total_samples(self) -> int:
        """Total training samples across all clients."""
        return int(self.provider.sizes.sum())

    def pooled_train(self) -> Dataset:
        raise RuntimeError(
            "StreamingFederatedDataset cannot pool the federation: pooling "
            "materializes every shard at once, which is the allocation "
            "streaming avoids. Evaluate through repro.models.metrics "
            "(client-aligned chunked pass) or call materialize() if the "
            "fleet genuinely fits in memory."
        )

    def materialize(self) -> FederatedDataset:
        """The eager twin: same shards, same test set, as arrays.

        Bit-identical to the provider's on-demand output by construction —
        this is the reference object the streaming-vs-eager tests compare
        against. At megafleet sizes it costs the full ``O(total samples)``
        allocation; call it only when that is acceptable.
        """
        return FederatedDataset(
            client_datasets=[
                self.provider.shard(client_id)
                for client_id in range(self.num_clients)
            ],
            test_dataset=self.test_dataset,
            name=self.name,
        )

    def summary(self) -> Dict[str, object]:
        """Dataset statistics (size metadata only; nothing materializes)."""
        sizes = self.provider.sizes
        return {
            "name": self.name,
            "num_clients": self.num_clients,
            "num_classes": self.num_classes,
            "num_features": self.num_features,
            "total_samples": self.total_samples,
            "test_samples": len(self.test_dataset),
            "min_client_size": int(sizes.min()),
            "max_client_size": int(sizes.max()),
            "streaming": True,
        }


def _cap_sizes(sizes: np.ndarray, max_size: int, min_size: int) -> np.ndarray:
    """Clip shard sizes at ``max_size``, redistributing the excess.

    Deterministic and RNG-free: the clipped surplus is water-filled across
    under-cap clients in index order (equal shares per pass, capped by
    each client's remaining room), preserving the exact total.
    """
    if max_size < min_size:
        raise ValueError(
            f"max_size ({max_size}) must be >= min_size ({min_size})"
        )
    total = int(sizes.sum())
    if max_size * sizes.size < total:
        raise ValueError(
            f"max_size {max_size} cannot hold {total} samples across "
            f"{sizes.size} clients"
        )
    sizes = np.minimum(sizes, max_size)
    deficit = total - int(sizes.sum())
    while deficit > 0:
        open_clients = np.flatnonzero(sizes < max_size)
        share = max(1, deficit // open_clients.size)
        add = np.minimum(max_size - sizes[open_clients], share)
        overshoot = int(add.sum()) - deficit
        if overshoot > 0:
            # Trim the tail so the total lands exactly.
            trimmed = np.cumsum(add[::-1])
            cut = np.searchsorted(trimmed, overshoot)
            add[::-1][:cut] = 0
            add[::-1][cut] -= overshoot - (trimmed[cut - 1] if cut else 0)
        sizes[open_clients] += add
        deficit -= int(add.sum())
    return sizes


def streaming_synthetic_federated(
    num_clients: int,
    *,
    alpha: float = 1.0,
    beta: float = 1.0,
    total_samples: int = 22_377,
    dim: int = 60,
    num_classes: int = 10,
    test_fraction: float = 0.2,
    power_law_exponent: float = 1.5,
    test_clients: int = DEFAULT_TEST_CLIENTS,
    seed: int = 0,
    min_size: Optional[int] = None,
    max_size: Optional[int] = None,
) -> StreamingFederatedDataset:
    """Build a memory-bounded Synthetic(alpha, beta) federation.

    The sibling of :func:`repro.datasets.synthetic.synthetic_federated`
    for fleets too large to materialize: shard *sizes* are fixed up front
    (a power-law draw from a dedicated stream), shard *data* regenerates
    on demand from per-client streams, and the global test set is the
    held-out rows of a deterministic ``test_clients``-sized client
    subsample — bounded regardless of ``N``.

    Everything is a pure function of the integer ``seed``; two providers
    built from the same arguments agree bitwise, in any process.

    Args:
        num_clients: Fleet size ``N``.
        alpha: Model-heterogeneity level.
        beta: Feature-heterogeneity level.
        total_samples: Total training samples across clients.
        dim: Feature dimension.
        num_classes: Number of classes.
        test_fraction: Per-client held-out fraction. Must be strictly
            positive here: the builder's contract includes a global test
            set, which would be impossible to assemble at zero. (The
            provider itself accepts ``test_fraction=0`` for callers that
            manage evaluation data themselves.)
        power_law_exponent: Unbalancedness of client sizes.
        test_clients: How many clients contribute held-out rows to the
            global test set (capped at ``N``).
        seed: Integer root seed.
        min_size: Minimum shard size (default: the power-law partitioner's
            default, lowered automatically when ``total_samples`` is too
            tight for it).
        max_size: Optional shard-size cap. The raw power law hands a
            constant *fraction* of the total to its top-ranked client, so
            at megafleet scale a single shard (and with it the training
            pipeline's peak memory) would grow with the fleet; capping
            bounds every shard, with the clipped excess redistributed
            deterministically across under-cap clients (no extra RNG —
            sizes stay a pure function of the seed).

    Returns:
        A :class:`StreamingFederatedDataset`.
    """
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if test_clients < 1:
        raise ValueError(f"test_clients must be >= 1, got {test_clients}")
    if not 0 < test_fraction < 1:
        raise ValueError(
            "streaming_synthetic_federated builds a global test set, so "
            f"test_fraction must lie in (0, 1), got {test_fraction}"
        )
    if min_size is None:
        min_size = max(1, min(8, total_samples // num_clients))
    sizes = power_law_sizes(
        total_samples,
        num_clients,
        exponent=power_law_exponent,
        min_size=min_size,
        rng=spawn_rng(seed, "streaming", "sizes"),
    )
    if max_size is not None:
        sizes = _cap_sizes(sizes, int(max_size), min_size)
    provider = SyntheticShardProvider(
        sizes,
        seed=seed,
        alpha=alpha,
        beta=beta,
        dim=dim,
        num_classes=num_classes,
        test_fraction=test_fraction,
    )
    chooser = spawn_rng(seed, "streaming", "test-clients")
    count = min(int(test_clients), num_clients)
    test_ids = np.sort(chooser.choice(num_clients, size=count, replace=False))
    # Held-out rows in stacked fetches of whole clients, each drawing at
    # most EVAL_CHUNK_SAMPLES rows (a lone larger client alone).
    draws = provider.sizes[test_ids] + provider.test_sizes[test_ids]
    test_dataset = concatenate(
        [
            provider.stacked_heldout(test_ids[start:end])
            for start, end in eval_client_chunks(draws)
        ]
    )
    return StreamingFederatedDataset(
        provider,
        test_dataset,
        name=f"streaming-synthetic({alpha:g},{beta:g})",
        test_client_ids=tuple(int(i) for i in test_ids),
    )
