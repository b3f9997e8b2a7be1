"""Shared fixtures: small, fast instances of every major object."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import synthetic_federated
from repro.game import ClientPopulation, ServerProblem
from repro.models import MultinomialLogisticRegression


@pytest.fixture(scope="session")
def small_federated():
    """A 6-client Synthetic(1,1) federation, small enough for fast tests."""
    return synthetic_federated(
        num_clients=6,
        total_samples=900,
        dim=12,
        num_classes=4,
        rng=7,
    )


@pytest.fixture(scope="session")
def small_model(small_federated):
    return MultinomialLogisticRegression(
        num_features=small_federated.num_features,
        num_classes=small_federated.num_classes,
        l2=1e-2,
    )


@pytest.fixture()
def small_population():
    """An 8-client economic population with heterogeneous parameters.

    Calibrated so the budget in ``small_problem`` binds: the intrinsic-value
    payments to the server stay well below the participation costs.
    """
    rng = np.random.default_rng(3)
    sizes = rng.integers(40, 400, size=8).astype(float)
    weights = sizes / sizes.sum()
    return ClientPopulation(
        weights=weights,
        gradient_bounds=rng.uniform(1.0, 5.0, size=8),
        costs=rng.uniform(5.0, 60.0, size=8),
        values=rng.exponential(20.0, size=8),
        q_max=np.ones(8),
    )


@pytest.fixture()
def small_problem(small_population):
    """A CPL instance whose budget binds (interior equilibrium)."""
    return ServerProblem(
        population=small_population,
        alpha=2_000.0,
        num_rounds=200,
        budget=30.0,
    )


@pytest.fixture()
def straddling_problem(small_population):
    """A binding budget whose interior clients hold values on both sides
    of Theorem 3's threshold ``v_t`` (Corollary 1's two cases)."""
    return ServerProblem(
        population=small_population.with_values(
            np.array([5.0, 30.0, 10.0, 25.0, 15.0, 20.0, 2.0, 40.0])
        ),
        alpha=2_000.0,
        num_rounds=200,
        budget=25.0,
    )
