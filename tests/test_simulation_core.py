"""Tests for the simulated device profiles."""

import numpy as np
import pytest

from repro.simulation import DeviceProfile, raspberry_pi_fleet


class TestDeviceProfiles:
    def test_step_time_scales_with_batch_and_params(self):
        device = DeviceProfile(0, 1e8, 1e-4, 30e6, 60e6)
        small = device.sgd_step_time(batch_size=8, num_params=100)
        large = device.sgd_step_time(batch_size=64, num_params=100)
        assert large > small

    def test_local_update_time_linear_in_steps(self):
        device = DeviceProfile(0, 1e8, 1e-4, 30e6, 60e6)
        t10 = device.local_update_time(10, 24, 500)
        t20 = device.local_update_time(20, 24, 500)
        assert t20 == pytest.approx(2 * t10)

    def test_fleet_size_and_ids(self):
        fleet = raspberry_pi_fleet(10, rng=0)
        assert len(fleet) == 10
        assert [device.device_id for device in fleet] == list(range(10))

    def test_fleet_heterogeneous(self):
        fleet = raspberry_pi_fleet(20, heterogeneity=0.4, rng=1)
        rates = np.array([device.macs_per_second for device in fleet])
        assert rates.std() / rates.mean() > 0.1

    def test_zero_heterogeneity_identical(self):
        fleet = raspberry_pi_fleet(5, heterogeneity=0.0, rng=2)
        rates = {device.macs_per_second for device in fleet}
        assert len(rates) == 1

    def test_fleet_deterministic(self):
        a = raspberry_pi_fleet(5, rng=3)
        b = raspberry_pi_fleet(5, rng=3)
        assert a[0].macs_per_second == b[0].macs_per_second

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            DeviceProfile(0, -1e8, 1e-4, 30e6, 60e6)
