"""Tests for the Synthetic(alpha,beta) and image-like dataset generators."""

import numpy as np
import pytest

from repro.datasets import (
    class_conditional_dataset,
    emnist_like,
    mnist_like,
    synthetic_federated,
)
from repro.datasets.synthetic import _row_argmax, _row_max


class TestSyntheticFederated:
    def test_shapes_and_counts(self):
        fed = synthetic_federated(
            num_clients=10, total_samples=1500, dim=20, num_classes=5, rng=0
        )
        assert fed.num_clients == 10
        assert fed.total_samples == 1500
        assert fed.num_features == 20
        assert fed.num_classes == 5

    def test_weights_sum_to_one(self):
        fed = synthetic_federated(num_clients=8, total_samples=800, rng=1)
        assert fed.weights.sum() == pytest.approx(1.0)

    def test_unbalanced_sizes(self):
        fed = synthetic_federated(num_clients=20, total_samples=5000, rng=2)
        assert fed.sizes.max() > 3 * fed.sizes.min()

    def test_heterogeneity_alpha_beta(self):
        # Clients' label marginals should differ far more under (1,1) than
        # under (0,0) (shared model + shared feature distribution).
        het = synthetic_federated(
            num_clients=6, total_samples=3000, alpha=1, beta=1, rng=3
        )
        hom = synthetic_federated(
            num_clients=6, total_samples=3000, alpha=0, beta=0, rng=3
        )

        def label_spread(fed):
            dists = np.stack(
                [
                    shard.class_counts() / len(shard)
                    for shard in fed.client_datasets
                ]
            )
            return float(dists.std(axis=0).sum())

        assert label_spread(het) > label_spread(hom)

    def test_deterministic(self):
        a = synthetic_federated(num_clients=4, total_samples=400, rng=11)
        b = synthetic_federated(num_clients=4, total_samples=400, rng=11)
        assert np.array_equal(
            a.client_datasets[0].features, b.client_datasets[0].features
        )

    def test_test_set_nonempty(self):
        fed = synthetic_federated(num_clients=4, total_samples=400, rng=5)
        assert len(fed.test_dataset) > 0

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            synthetic_federated(num_clients=3, alpha=-1, total_samples=300)


class TestClassConditional:
    def test_shapes(self):
        ds = class_conditional_dataset(500, 10, side=8, rng=0)
        assert ds.num_features == 64
        assert len(ds) == 500
        assert ds.num_classes == 10

    def test_classes_separable_by_linear_model(self):
        # With generous separation a ridge-style nearest-prototype rule
        # should beat chance easily; this guards the generator's usefulness.
        ds = class_conditional_dataset(
            2000, 5, side=6, class_separation=4.0, intra_class_noise=0.8, rng=1
        )
        centroids = np.stack(
            [
                ds.features[ds.labels == label].mean(axis=0)
                for label in range(5)
            ]
        )
        distances = (
            np.linalg.norm(
                ds.features[:, None, :] - centroids[None, :, :], axis=2
            )
        )
        accuracy = float(np.mean(distances.argmin(axis=1) == ds.labels))
        assert accuracy > 0.8

    def test_more_noise_harder(self):
        def centroid_accuracy(noise):
            ds = class_conditional_dataset(
                1500, 8, class_separation=2.0, intra_class_noise=noise, rng=2
            )
            centroids = np.stack(
                [
                    ds.features[ds.labels == label].mean(axis=0)
                    for label in range(8)
                ]
            )
            distances = np.linalg.norm(
                ds.features[:, None, :] - centroids[None, :, :], axis=2
            )
            return float(np.mean(distances.argmin(axis=1) == ds.labels))

        assert centroid_accuracy(0.5) > centroid_accuracy(3.0)


class TestImageLikeFederations:
    def test_mnist_like_statistics(self):
        fed = mnist_like(num_clients=10, total_samples=2000, rng=0)
        assert fed.num_classes == 10
        assert fed.num_clients == 10
        for shard in fed.client_datasets:
            assert 1 <= len(shard.classes_present()) <= 6

    def test_emnist_like_statistics(self):
        fed = emnist_like(num_clients=10, total_samples=3000, rng=0)
        assert fed.num_classes == 26
        for shard in fed.client_datasets:
            assert 1 <= len(shard.classes_present()) <= 10

    def test_default_sample_counts_match_paper(self):
        fed = mnist_like(num_clients=5, rng=1)
        # Train + test together equal the paper's subsample count.
        assert fed.total_samples + len(fed.test_dataset) == 14_463

    def test_summary_keys(self):
        fed = mnist_like(num_clients=5, total_samples=1000, rng=2)
        summary = fed.summary()
        assert summary["num_clients"] == 5
        assert summary["total_samples"] + summary["test_samples"] == 1000


class TestSoftmaxColumnScans:
    """The shard recipe's row max and argmax run column by column; they
    must equal NumPy's row reductions, first maximum on ties included."""

    @pytest.mark.parametrize("classes", [1, 2, 10])
    def test_match_numpy_row_reductions(self, classes):
        rng = np.random.default_rng(classes)
        dense = rng.normal(size=(500, classes))
        # Rounding makes many rows tie between several columns.
        tied = np.round(dense)
        for matrix in (dense, tied, -np.abs(tied)):
            assert np.array_equal(_row_max(matrix), matrix.max(axis=1))
            assert np.array_equal(_row_argmax(matrix), matrix.argmax(axis=1))
