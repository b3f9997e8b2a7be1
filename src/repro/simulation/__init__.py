"""Simulated cross-device testbed (replaces the paper's 40-Pi prototype)."""

from repro.simulation.devices import DeviceProfile, raspberry_pi_fleet
from repro.simulation.network import SharedMediumNetwork, simulate_shared_uploads
from repro.simulation.runtime import (
    FleetTimingModel,
    TestbedRuntime,
    build_fleet_timing,
    build_testbed,
)

__all__ = [
    "DeviceProfile",
    "raspberry_pi_fleet",
    "SharedMediumNetwork",
    "simulate_shared_uploads",
    "TestbedRuntime",
    "FleetTimingModel",
    "build_testbed",
    "build_fleet_timing",
]
