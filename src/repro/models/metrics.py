"""Evaluation metrics for global models.

The global objective ``F(w) = sum_n a_n F_n(w)`` needs every client's local
loss at the same parameter vector. Rather than looping ``N`` per-shard model
calls, :func:`losses_for_clients` — the one scoring loop, which
:func:`per_client_losses` runs over the whole fleet and the fast tier over
its evaluation panel — scores clients through
:meth:`~repro.models.base.Model.sample_losses` in **client-aligned
chunks**: consecutive clients are grouped until a chunk reaches
:data:`EVAL_CHUNK_SAMPLES` samples, each chunk is one stacked pass over
rows fetched with one ``stacked_arrays`` call per chunk, and every
client's mean is read off its own contiguous slice. No evaluation ever
materializes more than one chunk of samples. Chunk boundaries depend only
on the shard-size vector, never on how shards are stored, so an eager
federation and its streaming twin produce bit-identical losses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.federated import FederatedDataset
from repro.models.base import Model

#: Target samples per evaluation chunk. Chunks group whole clients (a
#: client's samples never span chunks, so per-client means are computed
#: from one contiguous slice in either storage mode); a single shard
#: larger than the target gets its own chunk.
EVAL_CHUNK_SAMPLES = 4096

#: A stacked row fetch: client ids -> their ``(features, labels)`` rows,
#: stacked in list order.
StackedFetch = Callable[[Sequence[int]], Tuple[np.ndarray, np.ndarray]]


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
    chunk). Storage never enters, which is what makes an eager federation
    and its streaming twin score bit-identically.
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

    :func:`losses_for_clients` over the whole fleet, in client order.
    """
    return losses_for_clients(
        model, params, federated, range(federated.num_clients)
    )


def losses_for_clients(
    model: Model,
    params: np.ndarray,
    federated: FederatedDataset,
    client_ids: Sequence[int],
    *,
    arrays: Optional[StackedFetch] = None,
    dtype: Optional[np.dtype] = None,
) -> np.ndarray:
    """Local losses ``F_n(w)`` for the listed clients, in the given order.

    The listed clients are grouped by :func:`eval_client_chunks` over
    their shard sizes; each chunk is one stacked
    :meth:`~repro.models.base.Model.sample_losses` pass over its clients'
    concatenated rows, and every client's mean is read off its own
    contiguous slice. One chunk of samples is resident at a time, so cost
    and memory scale with the list, not the fleet. Each chunk's rows come
    from one stacked fetch, ``federated.stacked_arrays(chunk_ids)`` (a
    streaming federation regenerates the whole chunk in one synthesis
    call). ``arrays`` optionally replaces that fetch with another
    function of a list of ids returning the stacked ``(features,
    labels)`` (the fast tier passes its trainer-level row cache).
    ``dtype`` optionally casts the parameter vector so the scoring
    matmuls run in that precision — with the fast tier's float32 row
    cache this keeps the whole panel pass on the float32 pool instead of
    silently upcasting every product to float64; ``None`` (the default)
    leaves the parameter vector as passed.
    """
    if dtype is not None:
        params = np.asarray(params, dtype=dtype)
    if arrays is None:
        arrays = federated.stacked_arrays
    ids = [int(i) for i in client_ids]
    sizes = np.asarray(federated.sizes, dtype=int)[ids]
    penalty = model.penalty(params)
    losses = np.empty(len(ids))
    for start, end in eval_client_chunks(sizes):
        samples = model.sample_losses(params, *arrays(ids[start:end]))
        ends = np.cumsum(sizes[start:end])
        starts = np.concatenate(([0], ends[:-1]))
        for offset in range(end - start):
            losses[start + offset] = (
                float(samples[starts[offset]:ends[offset]].mean()) + penalty
            )
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
    arrays: Optional[StackedFetch] = None,
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
