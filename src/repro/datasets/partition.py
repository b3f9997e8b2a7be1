"""Partitioning pooled data into heterogeneous client shards.

The paper's setups distribute samples across 40 devices with

* **unbalanced sizes** following a power law, and
* **non-IID labels** where each device only holds a limited number of classes
  (1-6 for the MNIST setup, 1-10 for EMNIST).

Both are implemented here.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.datasets.base import Dataset
from repro.utils.rng import SeedLike, spawn_rng
from repro.utils.validation import check_positive

ClassesPerClient = Union[int, Tuple[int, int]]


def power_law_sizes(
    total_samples: int,
    num_clients: int,
    *,
    exponent: float = 1.5,
    min_size: int = 8,
    rng: SeedLike = None,
) -> np.ndarray:
    """Draw unbalanced client sample counts following a power law.

    Sizes are proportional to ``rank^{-exponent}`` over a random ordering of
    clients, then jittered and renormalized so that they sum exactly to
    ``total_samples`` while every client keeps at least ``min_size`` samples.

    Args:
        total_samples: Total number of samples to distribute.
        num_clients: Number of shards.
        exponent: Power-law exponent; larger means more unbalanced.
        min_size: Lower bound for each shard.
        rng: Seed or generator.

    Returns:
        Integer array of shape ``(num_clients,)`` summing to ``total_samples``.
    """
    check_positive(exponent, "exponent")
    if num_clients <= 0:
        raise ValueError(f"num_clients must be positive, got {num_clients}")
    if total_samples < num_clients * min_size:
        raise ValueError(
            f"total_samples={total_samples} too small for "
            f"{num_clients} clients with min_size={min_size}"
        )
    generator = spawn_rng(rng)
    ranks = np.arange(1, num_clients + 1, dtype=float)
    raw = ranks ** (-exponent)
    raw *= np.exp(generator.normal(0.0, 0.25, size=num_clients))
    generator.shuffle(raw)

    budget = total_samples - num_clients * min_size
    extra = np.floor(budget * raw / raw.sum()).astype(int)
    sizes = min_size + extra
    # Hand out the rounding remainder one sample at a time, largest first.
    remainder = total_samples - int(sizes.sum())
    order = np.argsort(-raw)
    for offset in range(remainder):
        sizes[order[offset % num_clients]] += 1
    assert sizes.sum() == total_samples
    return sizes


def _assign_client_classes(
    num_clients: int,
    num_classes: int,
    classes_per_client: ClassesPerClient,
    generator: np.random.Generator,
) -> List[np.ndarray]:
    """Choose the set of allowed classes for each client.

    Guarantees that collectively all classes are covered, so an unbiased
    mechanism can in principle recover the full-participation model.
    """
    if isinstance(classes_per_client, tuple):
        low, high = classes_per_client
    else:
        low = high = int(classes_per_client)
    if not 1 <= low <= high <= num_classes:
        raise ValueError(
            f"classes_per_client range ({low}, {high}) invalid for "
            f"{num_classes} classes"
        )
    assignments: List[np.ndarray] = []
    for _ in range(num_clients):
        count = int(generator.integers(low, high + 1))
        assignments.append(
            generator.choice(num_classes, size=count, replace=False)
        )
    covered = set(np.concatenate(assignments).tolist())
    missing = [label for label in range(num_classes) if label not in covered]
    for label in missing:
        victim = int(generator.integers(0, num_clients))
        assignments[victim] = np.unique(np.append(assignments[victim], label))
    return assignments


def partition_by_label_limit(
    dataset: Dataset,
    num_clients: int,
    *,
    classes_per_client: ClassesPerClient,
    sizes: Sequence[int],
    rng: SeedLike = None,
) -> List[Dataset]:
    """Partition ``dataset`` so each client sees only a few classes.

    Each client ``n`` receives ``sizes[n]`` samples drawn (with replacement
    only if a class pool is exhausted) from its assigned label set. This is
    the paper's MNIST/EMNIST-style non-IID construction.

    Args:
        dataset: Pooled dataset to shard.
        num_clients: Number of shards.
        classes_per_client: Either a fixed count or an inclusive
            ``(low, high)`` range sampled per client.
        sizes: Number of samples per client (e.g. from
            :func:`power_law_sizes`).
        rng: Seed or generator.

    Returns:
        One :class:`Dataset` per client, sharing ``dataset.num_classes``.
    """
    sizes = np.asarray(sizes, dtype=int)
    if sizes.shape != (num_clients,):
        raise ValueError(
            f"sizes must have shape ({num_clients},), got {sizes.shape}"
        )
    if sizes.sum() > len(dataset):
        raise ValueError(
            f"requested {sizes.sum()} samples but dataset has {len(dataset)}"
        )
    generator = spawn_rng(rng)
    assignments = _assign_client_classes(
        num_clients, dataset.num_classes, classes_per_client, generator
    )

    by_class = {
        label: list(np.flatnonzero(dataset.labels == label))
        for label in range(dataset.num_classes)
    }
    for pool in by_class.values():
        generator.shuffle(pool)

    shards: List[Dataset] = []
    for client, classes in enumerate(assignments):
        take = sizes[client]
        # Proportional draw across the client's allowed classes.
        weights = generator.dirichlet(np.ones(len(classes)) * 2.0)
        per_class = np.floor(weights * take).astype(int)
        per_class[: take - per_class.sum()] += 1
        chosen: List[int] = []
        for label, count in zip(classes, per_class):
            pool = by_class[int(label)]
            if len(pool) >= count:
                chosen.extend(pool[:count])
                del pool[:count]
            else:
                chosen.extend(pool)
                shortfall = count - len(pool)
                pool.clear()
                all_label_idx = np.flatnonzero(dataset.labels == label)
                chosen.extend(
                    generator.choice(all_label_idx, size=shortfall, replace=True)
                )
        shards.append(dataset.subset(np.asarray(chosen, dtype=int)))
    return shards
