"""Tests for partitioners: power-law sizes and label-limited shards."""

import numpy as np
import pytest

from repro.datasets import (
    Dataset,
    partition_by_label_limit,
    power_law_sizes,
)


def _pool(n=2000, classes=10, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        features=rng.normal(size=(n, 4)),
        labels=rng.integers(0, classes, size=n),
        num_classes=classes,
    )


class TestPowerLawSizes:
    def test_sums_to_total(self):
        sizes = power_law_sizes(10_000, 40, rng=0)
        assert sizes.sum() == 10_000

    def test_respects_min_size(self):
        sizes = power_law_sizes(1000, 20, min_size=10, rng=1)
        assert sizes.min() >= 10

    def test_unbalanced(self):
        sizes = power_law_sizes(10_000, 40, exponent=1.5, rng=2)
        assert sizes.max() > 5 * sizes.min()

    def test_higher_exponent_more_skew(self):
        mild = power_law_sizes(20_000, 30, exponent=0.5, rng=3)
        harsh = power_law_sizes(20_000, 30, exponent=2.5, rng=3)
        assert harsh.max() > mild.max()

    def test_infeasible_total_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            power_law_sizes(10, 20, min_size=8)

    def test_deterministic_with_seed(self):
        assert np.array_equal(
            power_law_sizes(500, 10, rng=9), power_law_sizes(500, 10, rng=9)
        )


class TestLabelLimitPartition:
    def test_sizes_honored(self):
        pool = _pool()
        sizes = np.full(8, 100)
        shards = partition_by_label_limit(
            pool, 8, classes_per_client=2, sizes=sizes, rng=0
        )
        assert [len(shard) for shard in shards] == [100] * 8

    def test_classes_per_client_limited(self):
        pool = _pool()
        shards = partition_by_label_limit(
            pool, 10, classes_per_client=(1, 3), sizes=np.full(10, 50), rng=1
        )
        for shard in shards:
            assert 1 <= len(shard.classes_present()) <= 3

    def test_all_classes_covered_collectively(self):
        pool = _pool(classes=10)
        shards = partition_by_label_limit(
            pool, 12, classes_per_client=(1, 2), sizes=np.full(12, 60), rng=2
        )
        covered = set()
        for shard in shards:
            covered.update(shard.classes_present().tolist())
        assert covered == set(range(10))

    def test_num_classes_preserved_on_shards(self):
        pool = _pool(classes=7)
        shards = partition_by_label_limit(
            pool, 4, classes_per_client=1, sizes=np.full(4, 30), rng=3
        )
        assert all(shard.num_classes == 7 for shard in shards)

    def test_deterministic_with_seed(self):
        pool = _pool()

        def labels(seed):
            shards = partition_by_label_limit(
                pool, 5, classes_per_client=(1, 3), sizes=np.full(5, 40),
                rng=seed,
            )
            return [shard.labels.tolist() for shard in shards]

        assert labels(7) == labels(7)
        assert labels(7) != labels(8)

    def test_no_sample_reused_while_class_pools_last(self):
        """Each class holds about 200 samples and no client takes more
        than 20, so every shard draws fresh rows without replacement."""
        pool = _pool()
        shards = partition_by_label_limit(
            pool, 4, classes_per_client=2, sizes=np.full(4, 20), rng=5
        )
        rows = np.concatenate([shard.features for shard in shards])
        assert len(np.unique(rows, axis=0)) == len(rows) == 80

    def test_sizes_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            partition_by_label_limit(
                _pool(), 4, classes_per_client=2, sizes=np.full(3, 10)
            )

    def test_oversubscription_rejected(self):
        pool = _pool(n=100)
        with pytest.raises(ValueError, match="requested"):
            partition_by_label_limit(
                pool, 4, classes_per_client=2, sizes=np.full(4, 50), rng=0
            )

    def test_invalid_class_range_rejected(self):
        pool = _pool(classes=5)
        with pytest.raises(ValueError):
            partition_by_label_limit(
                pool, 4, classes_per_client=(0, 3), sizes=np.full(4, 10)
            )
