"""The Synthetic(alpha, beta) federated dataset.

This is the standard heterogeneous synthetic benchmark from Li et al.,
"Federated Optimization in Heterogeneous Networks" (MLSys 2020), which the
paper's Setup 1 uses as Synthetic(1, 1): each client ``k`` owns a local
softmax model ``(W_k, b_k)`` and a local feature distribution, so both the
conditional and the marginal distributions differ across clients.

Generative recipe (per client ``k``):

* ``u_k ~ N(0, alpha)`` controls model heterogeneity:
  ``W_k ~ N(u_k, 1)^{C x d}``, ``b_k ~ N(u_k, 1)^C``.
* ``B_k ~ N(0, beta)`` controls feature heterogeneity:
  ``v_k ~ N(B_k, 1)^d`` and ``x ~ N(v_k, Sigma)`` with
  ``Sigma = diag(j^{-1.2})``.
* ``y = argmax softmax(W_k x + b_k)``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.datasets.base import Dataset, concatenate
from repro.datasets.federated import FederatedDataset
from repro.datasets.partition import power_law_sizes
from repro.utils.rng import SeedLike, spawn_rng
from repro.utils.validation import check_nonnegative

_DEFAULT_DIM = 60
_DEFAULT_CLASSES = 10


def client_shard_arrays(
    sizes: Sequence[int],
    alpha: float,
    beta: float,
    dim: int,
    num_classes: int,
    generators: Sequence[np.random.Generator],
) -> Tuple[np.ndarray, np.ndarray]:
    """Stacked ``(features, labels)`` of a group of clients.

    Client ``k`` draws ``sizes[k]`` rows from its private model, every
    draw from its own ``generators[k]`` in the recipe's order: ``u_k``,
    ``B_k``, ``W_k``, ``b_k`` and the mean ``v_k`` as one run of standard
    normals (``normal(loc, scale)`` is ``loc + scale * z`` on the same
    ``z``), then the feature rows straight into the client's slice of one
    preallocated ``(sum(sizes), dim)`` stack. The location shifts, the
    covariance scale and the softmax + argmax then run once over the whole
    group, the softmax in place on the logits buffer; the mean shift, the
    ``x @ W_k.T`` GEMM at the client's own shape and the bias shift run
    per client on its own block, so no group-sized temporary is built.
    Each row's bytes are therefore the same whatever group it is drawn in,
    and a one-element group is the single-client recipe.

    The feature rows are the recipe's last draw, so the first ``s`` rows
    of a client drawing ``s' > s`` rows are exactly its ``s``-row draw:
    callers that need only a prefix (the streaming provider's training
    rows) draw only the prefix. The eager builder walks one sequential
    generator across clients, one single-client group at a time; the
    streaming provider hands each client its own derived stream.
    """
    sizes = [int(size) for size in sizes]
    ends = np.cumsum(sizes, dtype=int).tolist()
    blocks = [slice(end - size, end) for end, size in zip(ends, sizes)]
    heads = int(alpha > 0) + int(beta > 0)
    model_draws = np.empty(
        (len(sizes), heads + num_classes * dim + num_classes + dim)
    )
    features = np.empty((sum(sizes), dim))
    for generator, draws, block in zip(generators, model_draws, blocks):
        generator.standard_normal(out=draws)
        generator.standard_normal(out=features[block])

    u = np.zeros((len(sizes), 1))
    big_b = np.zeros((len(sizes), 1))
    if alpha > 0:
        u = 0.0 + np.sqrt(alpha) * model_draws[:, :1]
    if beta > 0:
        big_b = 0.0 + np.sqrt(beta) * model_draws[:, heads - 1:heads]
    bias_at = heads + num_classes * dim
    weights = (model_draws[:, heads:bias_at] + u).reshape(
        len(sizes), num_classes, dim
    )
    biases = model_draws[:, bias_at:bias_at + num_classes] + u
    means = model_draws[:, bias_at + num_classes:] + big_b

    features *= np.sqrt(np.arange(1, dim + 1, dtype=float) ** (-1.2))
    logits = np.empty((features.shape[0], num_classes))
    for mean, weight, bias, block in zip(means, weights, biases, blocks):
        rows, scores = features[block], logits[block]
        rows += mean
        np.matmul(rows, weight.T, out=scores)
        scores += bias
    # The row softmax, in place: shift by the row max, exponentiate,
    # normalize. argmax reads its output, as the recipe defines. The row
    # max and argmax run column by column over the few classes (NumPy's
    # row reductions are slow on short rows): a max is exact in any order,
    # and a strict ``>`` scan keeps the first maximum, as argmax does.
    logits -= _row_max(logits)[:, None]
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return features, _row_argmax(logits)


def _row_max(matrix: np.ndarray) -> np.ndarray:
    """``matrix.max(axis=1)``, one column at a time."""
    result = matrix[:, 0].copy()
    for column in range(1, matrix.shape[1]):
        np.maximum(result, matrix[:, column], out=result)
    return result


def _row_argmax(matrix: np.ndarray) -> np.ndarray:
    """``matrix.argmax(axis=1)`` on NaN-free rows, one column at a time.

    Column ``c`` takes a row only where it is strictly larger than the
    row's maximum so far, and ``c`` exceeds every earlier index, so the
    running ``maximum(index, c * larger)`` keeps the first maximum.
    """
    rows = matrix.shape[0]
    best = matrix[:, 0].copy()
    index = np.zeros(rows, dtype=np.intp)
    larger = np.empty(rows, dtype=bool)
    taken = np.empty(rows, dtype=np.intp)
    for column in range(1, matrix.shape[1]):
        values = matrix[:, column]
        np.greater(values, best, out=larger)
        np.multiply(larger, column, out=taken)
        np.maximum(index, taken, out=index)
        np.maximum(best, values, out=best)
    return index


def _client_shard(
    size: int,
    alpha: float,
    beta: float,
    dim: int,
    num_classes: int,
    generator: np.random.Generator,
) -> Dataset:
    """Generate one client's local dataset from its private model."""
    features, labels = client_shard_arrays(
        [size], alpha, beta, dim, num_classes, [generator]
    )
    return Dataset(features=features, labels=labels, num_classes=num_classes)


def synthetic_federated(
    num_clients: int,
    *,
    alpha: float = 1.0,
    beta: float = 1.0,
    total_samples: int = 22_377,
    dim: int = _DEFAULT_DIM,
    num_classes: int = _DEFAULT_CLASSES,
    test_fraction: float = 0.2,
    power_law_exponent: float = 1.5,
    rng: SeedLike = None,
) -> FederatedDataset:
    """Build the Synthetic(alpha, beta) federated dataset.

    Args:
        num_clients: Number of devices (the paper uses 40).
        alpha: Model-heterogeneity level (paper: 1).
        beta: Feature-heterogeneity level (paper: 1).
        total_samples: Total training samples across clients
            (paper: 22,377).
        dim: Feature dimension (paper: 60).
        num_classes: Number of classes (standard recipe: 10).
        test_fraction: Fraction of each client's generated samples pooled
            into the global test set.
        power_law_exponent: Unbalancedness of client sizes.
        rng: Seed or generator.

    Returns:
        A :class:`FederatedDataset` whose global test set is drawn from the
        mixture of all client distributions (so "global accuracy" measures
        the unbiased objective the server cares about).
    """
    check_nonnegative(alpha, "alpha")
    check_nonnegative(beta, "beta")
    generator = spawn_rng(rng)
    sizes = power_law_sizes(
        total_samples,
        num_clients,
        exponent=power_law_exponent,
        rng=generator,
    )
    train_shards: List[Dataset] = []
    test_shards: List[Dataset] = []
    for client, size in enumerate(sizes):
        test_size = max(1, int(round(size * test_fraction)))
        shard = _client_shard(
            int(size) + test_size, alpha, beta, dim, num_classes, generator
        )
        train_shards.append(shard.subset(np.arange(size)))
        test_shards.append(shard.subset(np.arange(size, size + test_size)))
    return FederatedDataset(
        client_datasets=train_shards,
        test_dataset=concatenate(test_shards),
        name=f"synthetic({alpha:g},{beta:g})",
    )
