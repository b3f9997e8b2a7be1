"""Dataset substrate: generators, partitioners, and federated containers."""

from repro.datasets.base import Dataset, concatenate
from repro.datasets.federated import FederatedDataset
from repro.datasets.imagelike import (
    class_conditional_dataset,
    emnist_like,
    mnist_like,
)
from repro.datasets.partition import (
    partition_by_label_limit,
    power_law_sizes,
)
from repro.datasets.streaming import (
    LazyShard,
    StreamingFederatedDataset,
    SyntheticShardProvider,
    streaming_synthetic_federated,
)
from repro.datasets.synthetic import synthetic_federated

__all__ = [
    "Dataset",
    "concatenate",
    "FederatedDataset",
    "LazyShard",
    "StreamingFederatedDataset",
    "SyntheticShardProvider",
    "streaming_synthetic_federated",
    "synthetic_federated",
    "class_conditional_dataset",
    "mnist_like",
    "emnist_like",
    "power_law_sizes",
    "partition_by_label_limit",
]
