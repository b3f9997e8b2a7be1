"""repro — reproduction of "Incentive Mechanism Design for Unbiased Federated
Learning with Randomized Client Participation" (Luo et al., ICDCS 2023).

The package is organized bottom-up:

* :mod:`repro.datasets` — synthetic and image-like federated datasets.
* :mod:`repro.models` — convex models, SGD, learning-rate schedules.
* :mod:`repro.fl` — the federated engine with the paper's Lemma-1 unbiased
  aggregation and Bernoulli(q) randomized participation.
* :mod:`repro.simulation` — the simulated 40-device testbed (wall-clock).
* :mod:`repro.theory` — Theorem-1 convergence bound and estimation.
* :mod:`repro.game` — the CPL Stackelberg game (core contribution).
* :mod:`repro.experiments` — Setups 1-3 and every table/figure generator.

Quickstart::

    from repro import quickstart_equilibrium
    eq = quickstart_equilibrium()
    print(eq.summary())
"""

from repro.datasets import (
    Dataset,
    FederatedDataset,
    emnist_like,
    mnist_like,
    synthetic_federated,
)
from repro.fl import (
    BernoulliParticipation,
    FederatedTrainer,
    FullParticipation,
    TrainingHistory,
    UnbiasedDeltaAggregator,
)
from repro.game import (
    ClientPopulation,
    OptimalPricing,
    ServerProblem,
    StackelbergEquilibrium,
    UniformPricing,
    WeightedPricing,
    sample_population,
    solve_cpl_game,
)
from repro.models import MultinomialLogisticRegression
from repro.simulation import TestbedRuntime, build_testbed
from repro.theory import ProblemConstants

# 1.1.0: evaluation metrics moved to a single stacked pass (per-shard loss
# values can shift by ~1 ulp), so the cache-key code component is bumped and
# pre-1.1 result-store entries recompute rather than mix numerics.
# 1.2.0: evaluation chunks at EVAL_CHUNK_SAMPLES client-aligned samples
# (federations larger than one chunk — paper scale and megafleets — shift
# by ~1 ulp again); stale result-store entries recompute via the code key.
# 1.3.0: the repro.api facade, the repro.service pricing server, and the
# versioned repro.schemas envelopes land; API-scoped cache entries (game-only
# economies, scenario runs) enter the result store under this code key.
# 1.3.1: M-search starts every fixed-M subproblem from the same cold point,
# so its equilibria move (toward the KKT optimum); stale entries recompute.
__version__ = "1.3.1"


def quickstart_equilibrium(
    num_clients: int = 10, budget: float = 50.0, seed: int = 0
) -> StackelbergEquilibrium:
    """Solve a small CPL game on a synthetic population (a smoke test)."""
    from repro.utils.rng import spawn_rng

    rng = spawn_rng(seed)
    sizes = rng.integers(50, 500, size=num_clients).astype(float)
    weights = sizes / sizes.sum()
    gradient_bounds = rng.uniform(1.0, 4.0, size=num_clients)
    population = sample_population(
        weights,
        gradient_bounds,
        mean_cost=10.0,
        mean_value=100.0,
        rng=rng,
    )
    problem = ServerProblem(
        population=population,
        alpha=200.0,
        num_rounds=100,
        budget=budget,
    )
    return solve_cpl_game(problem)


__all__ = [
    "__version__",
    "quickstart_equilibrium",
    "Dataset",
    "FederatedDataset",
    "synthetic_federated",
    "mnist_like",
    "emnist_like",
    "MultinomialLogisticRegression",
    "FederatedTrainer",
    "BernoulliParticipation",
    "FullParticipation",
    "UnbiasedDeltaAggregator",
    "TrainingHistory",
    "TestbedRuntime",
    "build_testbed",
    "ProblemConstants",
    "ClientPopulation",
    "sample_population",
    "ServerProblem",
    "solve_cpl_game",
    "StackelbergEquilibrium",
    "OptimalPricing",
    "UniformPricing",
    "WeightedPricing",
]
