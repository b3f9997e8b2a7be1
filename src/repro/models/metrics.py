"""Evaluation metrics for global models.

The global objective ``F(w) = sum_n a_n F_n(w)`` needs every client's local
loss at the same parameter vector. Rather than looping ``N`` per-shard model
calls, :func:`per_client_losses` scores the federation through
:meth:`~repro.models.base.Model.sample_losses` in **client-aligned
chunks**: consecutive clients are grouped until a chunk reaches
:data:`EVAL_CHUNK_SAMPLES` samples, each chunk is one stacked pass, and
every client's mean is read off its own contiguous slice. Federations that
fit in a single chunk (every CI/bench-scale run) evaluate in one pooled
pass — byte-for-byte the historical behavior — while megafleet-scale and
streaming federations never materialize more than one chunk of samples at
a time. Chunk boundaries depend only on the shard-size vector, never on
how shards are stored, so an eager federation and its streaming twin
produce bit-identical losses. Models without a per-sample loss
decomposition fall back to the historical per-shard loop transparently
(one shard resident at a time — also streaming-safe).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.base import Dataset
from repro.datasets.federated import FederatedDataset
from repro.models.base import Model

#: Target samples per evaluation chunk. Chunks group whole clients (a
#: client's samples never span chunks, so per-client means are computed
#: from one contiguous slice in either storage mode); a single shard
#: larger than the target gets its own chunk.
EVAL_CHUNK_SAMPLES = 4096


@dataclass(frozen=True)
class Evaluation:
    """Loss and accuracy of a parameter vector on an evaluation set."""

    loss: float
    accuracy: float


def evaluate(model: Model, params: np.ndarray, dataset: Dataset) -> Evaluation:
    """Evaluate ``params`` on ``dataset`` (loss includes regularization)."""
    return Evaluation(
        loss=model.dataset_loss(params, dataset),
        accuracy=model.dataset_accuracy(params, dataset),
    )


def global_loss(
    model: Model, params: np.ndarray, federated: FederatedDataset
) -> float:
    """The paper's global objective ``F(w) = sum_n a_n F_n(w)`` (Eq. 2)."""
    return float(
        federated.weights @ per_client_losses(model, params, federated)
    )


def eval_client_chunks(sizes: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Client-aligned chunk boundaries ``(start_client, end_client)``.

    Deterministic in the shard-size vector alone: consecutive clients are
    grouped until adding the next one would push the chunk past
    :data:`EVAL_CHUNK_SAMPLES` (a lone oversized shard forms its own
    chunk). Both the eager and the streaming evaluation paths iterate
    these exact groups, which is what makes their results bit-identical.
    """
    num_clients = len(sizes)
    start = 0
    while start < num_clients:
        end = start + 1
        budget = int(sizes[start])
        while (
            end < num_clients
            and budget + int(sizes[end]) <= EVAL_CHUNK_SAMPLES
        ):
            budget += int(sizes[end])
            end += 1
        yield start, end
        start = end


def per_client_losses(
    model: Model, params: np.ndarray, federated: FederatedDataset
) -> np.ndarray:
    """Vector of local losses ``F_n(w)`` for each client.

    One stacked :meth:`~repro.models.base.Model.sample_losses` pass per
    client-aligned chunk (see :data:`EVAL_CHUNK_SAMPLES`); the whole
    federation when it fits in one chunk. Peak residency is one chunk of
    samples, so streaming federations evaluate without ever pooling.
    """
    sizes = np.asarray(federated.sizes, dtype=int)
    shards = federated.client_datasets
    penalty: float = 0.0
    losses = np.empty(len(sizes))
    single_chunk = int(sizes.sum()) <= EVAL_CHUNK_SAMPLES
    streaming = bool(getattr(federated, "streaming", False))
    for index, (start, end) in enumerate(eval_client_chunks(sizes)):
        if single_chunk and not streaming:
            # Whole-federation chunk on an eager federation: reuse the
            # cached pooled arrays (same values as assembling the chunk,
            # without re-concatenating every evaluation).
            pooled = federated.pooled_train()
            features, labels = pooled.features, pooled.labels
        else:
            features, labels = _assemble_chunk(shards, range(start, end))
        try:
            samples = model.sample_losses(params, features, labels)
        except NotImplementedError:
            # No per-sample decomposition: historical per-shard loop
            # (still streaming-safe — one shard resident at a time).
            return np.array(
                [model.dataset_loss(params, shard) for shard in shards]
            )
        if index == 0:
            penalty = model.penalty(params)
        ends = np.cumsum(sizes[start:end])
        starts = np.concatenate(([0], ends[:-1]))
        for offset, client in enumerate(range(start, end)):
            losses[client] = (
                float(samples[starts[offset]:ends[offset]].mean()) + penalty
            )
    return losses


def losses_for_clients(
    model: Model,
    params: np.ndarray,
    federated: FederatedDataset,
    client_ids: Sequence[int],
    *,
    arrays: Optional[Callable[[int], Tuple[np.ndarray, np.ndarray]]] = None,
    dtype: Optional[np.dtype] = None,
) -> np.ndarray:
    """Local losses ``F_n(w)`` for an explicit subset of clients.

    The sub-sampled twin of :func:`per_client_losses`: the same chunked
    :meth:`~repro.models.base.Model.sample_losses` passes (one chunk of
    samples resident at a time, streaming-safe), but only over the listed
    clients — cost scales with the panel, not the fleet. ``arrays``
    optionally overrides how a client's rows are fetched (the fast tier
    passes its trainer-level row cache). ``dtype`` optionally casts the
    parameter vector so the scoring matmuls run in that precision — with
    the fast tier's float32 row cache this keeps the whole panel pass on
    the float32 pool instead of silently upcasting every product to
    float64; ``None`` (the default) leaves the historical float64 pass
    bit-for-bit unchanged.
    """
    sizes = np.asarray(federated.sizes, dtype=int)
    shards = federated.client_datasets
    if dtype is not None:
        params = np.asarray(params, dtype=dtype)
    if arrays is None:
        def arrays(client_id):
            return shards[client_id].arrays()
    ids = [int(i) for i in client_ids]
    losses = np.empty(len(ids))
    have_penalty = False
    penalty = 0.0
    start = 0
    while start < len(ids):
        end = start + 1
        budget = int(sizes[ids[start]])
        while (
            end < len(ids)
            and budget + int(sizes[ids[end]]) <= EVAL_CHUNK_SAMPLES
        ):
            budget += int(sizes[ids[end]])
            end += 1
        rows = [arrays(client_id) for client_id in ids[start:end]]
        features = np.concatenate([row[0] for row in rows])
        labels = np.concatenate([row[1] for row in rows])
        try:
            samples = model.sample_losses(params, features, labels)
        except NotImplementedError:
            return np.array(
                [model.dataset_loss(params, shards[i]) for i in ids]
            )
        if not have_penalty:
            penalty = model.penalty(params)
            have_penalty = True
        ends = np.cumsum(sizes[ids[start:end]])
        starts = np.concatenate(([0], ends[:-1]))
        for offset in range(end - start):
            losses[start + offset] = (
                float(samples[starts[offset]:ends[offset]].mean()) + penalty
            )
        start = end
    return losses


@dataclass(frozen=True)
class EvaluationPanel:
    """A deterministic, weight-proportional client subsample.

    ``client_ids`` are the distinct clients drawn and ``counts`` how many
    of the ``sample_size`` importance draws landed on each. Drawn once per
    run (from its own named RNG stream) and reused every evaluation round,
    so the fast tier's row cache keeps the panel's shards resident across
    rounds.
    """

    client_ids: np.ndarray
    counts: np.ndarray
    sample_size: int

    @property
    def num_unique(self) -> int:
        return int(self.client_ids.size)


@dataclass(frozen=True)
class SubsampledLoss:
    """A confidence-interval estimate of the global objective."""

    estimate: float
    half_width: float
    sample_size: int
    num_unique: int


def draw_evaluation_panel(
    weights: np.ndarray, sample_size: int, rng: np.random.Generator
) -> EvaluationPanel:
    """Importance-sample ``sample_size`` clients proportional to weight.

    Sampling *with replacement* by the aggregation weights ``a_n`` makes
    the plain panel mean an unbiased estimator of ``F(w) = sum a_n F_n(w)``
    with no reweighting step, and concentrates draws on the clients that
    dominate the objective.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("weights must be a non-empty 1-D array")
    sample_size = int(sample_size)
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    draws = rng.choice(weights.size, size=sample_size, p=weights / weights.sum())
    client_ids, counts = np.unique(draws, return_counts=True)
    return EvaluationPanel(
        client_ids=client_ids, counts=counts, sample_size=sample_size
    )


def subsampled_global_loss(
    model: Model,
    params: np.ndarray,
    federated: FederatedDataset,
    panel: EvaluationPanel,
    *,
    arrays: Optional[Callable[[int], Tuple[np.ndarray, np.ndarray]]] = None,
    dtype: Optional[np.dtype] = None,
) -> SubsampledLoss:
    """Estimate ``F(w)`` from a panel, with a normal-theory 95% interval.

    Each importance draw contributes its client's local loss; the
    estimate is the draw mean (unbiased for the weighted objective over
    the panel draw) and ``half_width`` is ``1.96 * s / sqrt(m)`` over the
    ``m = panel.sample_size`` draws. ``dtype`` forwards to
    :func:`losses_for_clients` (the fast tier's float32 panel pass).
    """
    losses = losses_for_clients(
        model, params, federated, panel.client_ids, arrays=arrays,
        dtype=dtype,
    )
    m = panel.sample_size
    estimate = float(panel.counts @ losses) / m
    second_moment = float(panel.counts @ (losses * losses)) / m
    variance = max(second_moment - estimate * estimate, 0.0)
    half_width = 1.96 * float(np.sqrt(variance / m))
    return SubsampledLoss(
        estimate=estimate,
        half_width=half_width,
        sample_size=m,
        num_unique=panel.num_unique,
    )


def _assemble_chunk(shards, client_ids) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate the chunk's shard arrays (values match a pooled slice)."""
    features: List[np.ndarray] = []
    labels: List[np.ndarray] = []
    for client in client_ids:
        # One arrays() call per shard: every fetch of a lazy shard
        # regenerates it.
        shard_features, shard_labels = shards[client].arrays()
        features.append(shard_features)
        labels.append(shard_labels)
    return np.concatenate(features), np.concatenate(labels)
