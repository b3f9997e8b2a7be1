"""Core dataset container used by every learning component."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, spawn_rng


@dataclass(frozen=True)
class Dataset:
    """An in-memory supervised dataset.

    Attributes:
        features: Array of shape ``(num_samples, num_features)``.
        labels: Integer class labels of shape ``(num_samples,)``.
        num_classes: Total number of classes in the task. Defaults to
            ``labels.max() + 1`` which is correct for pooled datasets but must
            be passed explicitly for client shards that miss some classes.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int = field(default=0)

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
        if features.shape[0] != labels.shape[0]:
            raise ValueError(
                "features and labels disagree on sample count: "
                f"{features.shape[0]} vs {labels.shape[0]}"
            )
        num_classes = self.num_classes
        if num_classes <= 0:
            num_classes = int(labels.max()) + 1 if labels.size else 0
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise ValueError(
                f"labels must lie in [0, {num_classes}), "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "num_classes", num_classes)

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @property
    def num_features(self) -> int:
        """Dimensionality of the feature vectors."""
        return int(self.features.shape[1])

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(features, labels)`` in one call.

        The accessor lazy shard views share: on a
        :class:`~repro.datasets.streaming.LazyShard` it regenerates the
        shard exactly once, where reading ``.features`` and ``.labels``
        separately regenerates it twice. Every consumer that needs one
        shard's two arrays (local updates, gradient-norm sampling) reads
        it through this; the chunked trainer gather and chunked
        evaluation fetch many shards at once through the federation's
        ``stacked_arrays``.
        """
        return self.features, self.labels

    def subset(self, indices: Sequence[int]) -> "Dataset":
        """Return the dataset restricted to ``indices`` (copying)."""
        indices = np.asarray(indices, dtype=int)
        return Dataset(
            features=self.features[indices].copy(),
            labels=self.labels[indices].copy(),
            num_classes=self.num_classes,
        )

    def shuffled(self, rng: SeedLike = None) -> "Dataset":
        """Return a copy with samples in random order."""
        generator = spawn_rng(rng)
        permutation = generator.permutation(len(self))
        return self.subset(permutation)

    def split(
        self, test_fraction: float, rng: SeedLike = None
    ) -> Tuple["Dataset", "Dataset"]:
        """Split into ``(train, test)`` with ``test_fraction`` held out.

        The split is a uniform random partition; stratification is not needed
        here because splits are only used on pooled (all-class) data.
        """
        if not 0 < test_fraction < 1:
            raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
        generator = spawn_rng(rng)
        permutation = generator.permutation(len(self))
        num_test = max(1, int(round(test_fraction * len(self))))
        test_idx, train_idx = permutation[:num_test], permutation[num_test:]
        return self.subset(train_idx), self.subset(test_idx)

    def class_counts(self) -> np.ndarray:
        """Histogram of labels with ``num_classes`` bins."""
        return np.bincount(self.labels, minlength=self.num_classes)

    def classes_present(self) -> np.ndarray:
        """Sorted array of the distinct labels actually present."""
        return np.unique(self.labels)


def concatenate(datasets: Sequence[Dataset]) -> Dataset:
    """Concatenate datasets sharing feature dimension and class space."""
    if not datasets:
        raise ValueError("cannot concatenate an empty list of datasets")
    num_classes = max(dataset.num_classes for dataset in datasets)
    dims = {dataset.num_features for dataset in datasets}
    if len(dims) != 1:
        raise ValueError(f"datasets disagree on feature dimension: {sorted(dims)}")
    return Dataset(
        features=np.concatenate([dataset.features for dataset in datasets]),
        labels=np.concatenate([dataset.labels for dataset in datasets]),
        num_classes=num_classes,
    )


def check_client_ids(client_ids: Sequence[int], num_clients: int) -> List[int]:
    """``client_ids`` as ints, each checked to lie in ``[0, num_clients)``.

    Raises :class:`IndexError` on the first id out of range (negative ids
    included: a federation never wraps them around).
    """
    ids = [int(client_id) for client_id in client_ids]
    for client_id in ids:
        if not 0 <= client_id < num_clients:
            raise IndexError(
                f"client_id must lie in [0, {num_clients}), got {client_id}"
            )
    return ids


def stack_rows(
    pairs: Sequence[Tuple[np.ndarray, np.ndarray]], num_features: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-stack ``(features, labels)`` pairs into one fresh pair, in order.

    An empty list stacks to ``(0, num_features)`` features and no labels.
    """
    if not pairs:
        return np.empty((0, num_features)), np.empty(0, dtype=int)
    return (
        np.concatenate([features for features, _ in pairs]),
        np.concatenate([labels for _, labels in pairs]),
    )
