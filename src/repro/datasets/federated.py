"""Federated dataset container: one shard per client plus a global test set."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List

import numpy as np

from repro.datasets.base import Dataset, concatenate


@dataclass(frozen=True)
class FederatedDataset:
    """A federation of client datasets with a shared evaluation set.

    Attributes:
        client_datasets: One training :class:`Dataset` per client.
        test_dataset: Global held-out set drawn from the mixture of client
            distributions; used for the loss/accuracy curves in Figs. 4-7.
        name: Human-readable identifier (e.g. ``"synthetic(1,1)"``).
    """

    client_datasets: List[Dataset]
    test_dataset: Dataset
    name: str = "federated"

    def __post_init__(self) -> None:
        if not self.client_datasets:
            raise ValueError("a federated dataset needs at least one client")
        dims = {shard.num_features for shard in self.client_datasets}
        dims.add(self.test_dataset.num_features)
        if len(dims) != 1:
            raise ValueError(
                f"clients/test disagree on feature dimension: {sorted(dims)}"
            )
        object.__setattr__(self, "client_datasets", list(self.client_datasets))

    @property
    def num_clients(self) -> int:
        """Number of clients ``N``."""
        return len(self.client_datasets)

    @property
    def num_classes(self) -> int:
        """Number of classes in the task."""
        return max(
            self.test_dataset.num_classes,
            max(shard.num_classes for shard in self.client_datasets),
        )

    @property
    def num_features(self) -> int:
        """Feature dimension shared by all shards."""
        return self.test_dataset.num_features

    @property
    def sizes(self) -> np.ndarray:
        """Per-client sample counts ``d_n``."""
        return np.array([len(shard) for shard in self.client_datasets])

    @property
    def weights(self) -> np.ndarray:
        """Aggregation weights ``a_n = d_n / sum_m d_m`` (paper Sec. III-A)."""
        sizes = self.sizes.astype(float)
        return sizes / sizes.sum()

    @property
    def total_samples(self) -> int:
        """Total training samples across all clients."""
        return int(self.sizes.sum())

    @cached_property
    def _pooled(self) -> Dataset:
        return concatenate(self.client_datasets)

    def pooled_train(self) -> Dataset:
        """All client shards concatenated (the full-participation objective).

        Cached after the first call: theory estimation reads it more than
        once. Shard arrays are treated as immutable throughout
        the library; mutating one in place after pooling would desynchronize
        the cache.
        """
        return self._pooled

    def summary(self) -> Dict[str, object]:
        """Dataset statistics for logging and EXPERIMENTS.md records."""
        sizes = self.sizes
        classes_per_client = [
            len(shard.classes_present()) for shard in self.client_datasets
        ]
        return {
            "name": self.name,
            "num_clients": self.num_clients,
            "num_classes": self.num_classes,
            "num_features": self.num_features,
            "total_samples": self.total_samples,
            "test_samples": len(self.test_dataset),
            "min_client_size": int(sizes.min()),
            "max_client_size": int(sizes.max()),
            "mean_classes_per_client": float(np.mean(classes_per_client)),
        }
