"""Random economies, participation processes, and scenarios for fuzzing.

One library of generators serves two consumers:

* **Plain seeded generators** (``draw_*``) — pure functions of a
  :class:`numpy.random.Generator`, so a fuzz campaign is bit-reproducible
  from a root seed alone (the same determinism discipline as the rest of
  the repo; see :func:`repro.utils.rng.spawn_rng`). These deliberately
  overweight the degenerate corners a hand-written scenario set never
  visits: all-equal data qualities, near-zero cost floors, identically
  zero intrinsic values, power-law weight skew, budgets from literally
  zero through the exact feasibility boundary to fully slack.
* **Hypothesis strategies** — thin wrappers over the same draws plus the
  scalar strategies the ``test_property_*`` modules share. Hypothesis is
  a test-only dependency, so its import is guarded: the fuzz CLI path
  works without it, and the strategy objects simply don't exist when the
  library is absent.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.datasets.streaming import streaming_synthetic_federated
from repro.fl.participation import ParticipationSpec
from repro.game.client_model import ClientPopulation
from repro.game.server_problem import ServerProblem
from repro.scenarios.spec import PopulationSpec, ScenarioSpec

try:  # Hypothesis is a test-only dependency; the fuzz CLI runs without it.
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - exercised in hypothesis-less envs
    st = None

HAVE_HYPOTHESIS = st is not None

#: Smallest cost parameter the generators emit. ``ClientPopulation``
#: rejects a literal zero cost (the quadratic cost model degenerates), so
#: the "zero-cost client" corner is probed from just above the boundary.
COST_FLOOR = 1e-6

#: Fleet-size range of a drawn economy. Small enough that every case is
#: solvable in milliseconds, large enough to mix interior/boundary
#: clients within one economy.
MIN_CLIENTS, MAX_CLIENTS = 2, 12


def draw_weights(rng: np.random.Generator, num_clients: int) -> np.ndarray:
    """Positive data weights summing to 1, over three regimes.

    ``uniform`` draws sizes uniformly; ``power-law`` ranks clients by
    ``rank^-exponent`` and shuffles (the megafleet skew); ``equal`` gives
    the exact-tie corner where every client looks identical to the
    mechanism.
    """
    regime = rng.integers(3)
    if regime == 0:
        sizes = rng.uniform(1.0, 50.0, size=num_clients)
    elif regime == 1:
        exponent = float(rng.uniform(0.5, 2.5))
        sizes = np.arange(1, num_clients + 1, dtype=float) ** -exponent
        sizes = rng.permutation(sizes)
    else:
        sizes = np.ones(num_clients)
    return sizes / sizes.sum()


def draw_population(
    rng: np.random.Generator, *, num_clients: Optional[int] = None
) -> ClientPopulation:
    """One random client economy, degenerate corners included."""
    n = (
        int(rng.integers(MIN_CLIENTS, MAX_CLIENTS + 1))
        if num_clients is None
        else int(num_clients)
    )
    weights = draw_weights(rng, n)

    bounds_regime = rng.integers(3)
    if bounds_regime == 0:
        gradient_bounds = rng.uniform(0.5, 5.0, size=n)
    elif bounds_regime == 1:
        gradient_bounds = np.full(n, float(rng.uniform(0.5, 5.0)))
    else:
        # Exact-tie data qualities: equal weights x equal bounds.
        weights = np.full(n, 1.0 / n)
        gradient_bounds = np.full(n, float(rng.uniform(0.5, 5.0)))

    cost_regime = rng.integers(4)
    if cost_regime == 0:
        mean_cost = float(rng.uniform(1.0, 50.0))
        costs = np.maximum(
            rng.exponential(mean_cost, size=n), 0.05 * mean_cost
        )
    elif cost_regime == 1:
        costs = rng.uniform(1.0, 80.0, size=n)
    elif cost_regime == 2:
        costs = np.full(n, float(rng.uniform(0.5, 40.0)))
    else:
        # The zero-cost limit: costs at the generator floor, where prices
        # buy essentially free effort and q pins to its cap.
        costs = np.full(n, COST_FLOOR)
        costs[rng.integers(n)] = float(rng.uniform(1.0, 10.0))

    value_regime = rng.integers(3)
    if value_regime == 0:
        values = rng.exponential(float(rng.uniform(1.0, 40.0)), size=n)
    elif value_regime == 1:
        values = np.zeros(n)
    else:
        values = np.full(n, float(rng.uniform(0.0, 30.0)))

    cap_regime = rng.integers(3)
    if cap_regime == 0:
        q_max = np.ones(n)
    elif cap_regime == 1:
        q_max = rng.uniform(0.3, 1.0, size=n)
    else:
        q_max = np.full(n, float(rng.uniform(0.05, 1.0)))

    return ClientPopulation(
        weights=weights,
        gradient_bounds=gradient_bounds,
        costs=costs,
        values=values,
        q_max=q_max,
    )


def draw_problem(
    rng: np.random.Generator,
    *,
    population: Optional[ClientPopulation] = None,
) -> ServerProblem:
    """A random Stage-I problem with a budget from starved to slack.

    The budget regimes are anchored on the economy's own cap spending
    (total payment at ``q = q_max``), so "boundary" lands exactly on the
    feasibility edge and "slack" strictly above it for *this* economy.
    """
    if population is None:
        population = draw_population(rng)
    alpha = float(rng.uniform(100.0, 5_000.0))
    num_rounds = int(rng.integers(50, 500))
    contributions = (
        alpha
        * (population.weights * population.gradient_bounds) ** 2
        / num_rounds
    )
    cap_spend = float(
        np.sum(
            2.0 * population.costs * population.q_max**2
            - population.values * contributions / population.q_max
        )
    )
    regime = rng.integers(4)
    if regime == 0:
        budget = 0.0  # starved: nothing to pay with
    elif regime == 1 and cap_spend > 0:
        budget = cap_spend  # exactly at the feasibility boundary
    elif regime == 2:
        budget = float(rng.uniform(0.05, 0.9)) * max(cap_spend, 1.0)
    else:
        budget = max(cap_spend, 1.0) * float(rng.uniform(1.1, 3.0))
    return ServerProblem(
        population=population,
        alpha=alpha,
        num_rounds=num_rounds,
        budget=max(budget, 0.0),
    )


def draw_participation_spec(rng: np.random.Generator) -> ParticipationSpec:
    """One random participation process, over every registered kind."""
    kind = ParticipationSpec._KINDS[rng.integers(len(ParticipationSpec._KINDS))]
    if kind == "correlated":
        # Include the exact endpoints: independent and comonotone rounds.
        correlation = float(
            rng.choice([0.0, 1.0, float(rng.uniform(0.0, 1.0))])
        )
        return ParticipationSpec(kind=kind, correlation=correlation)
    if kind == "intermittent":
        return ParticipationSpec(
            kind=kind,
            on_to_off=float(rng.uniform(0.05, 0.95)),
            off_to_on=float(rng.uniform(0.05, 0.95)),
        )
    if kind == "dropout":
        return ParticipationSpec(
            kind=kind, dropout=float(rng.choice([0.0, rng.uniform(0.0, 0.9)]))
        )
    return ParticipationSpec(kind="bernoulli")


def draw_scenario_spec(rng: np.random.Generator, index: int) -> ScenarioSpec:
    """A full random scenario spec that round-trips the JSON codec."""
    train = bool(rng.integers(2))
    setup = f"setup{int(rng.integers(1, 4))}"
    streaming = bool(train and setup == "setup1" and rng.integers(4) == 0)
    population = PopulationSpec(
        num_clients=(
            None if rng.integers(2) else int(rng.integers(2, 2_000))
        ),
        cost_factor=float(rng.uniform(0.1, 4.0)),
        value_factor=float(rng.choice([0.0, float(rng.uniform(0.1, 4.0))])),
        budget_factor=float(rng.uniform(0.1, 4.0)),
        heterogeneity=float(rng.choice([0.0, float(rng.uniform(0.2, 3.0))])),
        q_max=(None if rng.integers(2) else float(rng.uniform(0.05, 1.0))),
    )
    return ScenarioSpec(
        name=f"fuzz-{index}",
        description="generated by repro.testing.strategies",
        setup=setup,
        population=population,
        participation=draw_participation_spec(rng),
        train=train,
        streaming=streaming,
        tags=("fuzz",),
    )


def random_problem(draw_seed: int, budget: float) -> ServerProblem:
    """The property-test economy: benign ranges, budget supplied.

    Shared by the Hypothesis suites (which sweep ``draw_seed`` x
    ``budget``) — a smoother complement to :func:`draw_problem`'s
    corner-heavy draws.
    """
    rng = np.random.default_rng(draw_seed)
    n = int(rng.integers(3, 10))
    sizes = rng.uniform(1.0, 50.0, size=n)
    population = ClientPopulation(
        weights=sizes / sizes.sum(),
        gradient_bounds=rng.uniform(0.5, 5.0, size=n),
        costs=rng.uniform(1.0, 80.0, size=n),
        values=rng.exponential(15.0, size=n),
        q_max=np.ones(n),
    )
    return ServerProblem(
        population=population,
        alpha=float(rng.uniform(100, 5_000)),
        num_rounds=int(rng.integers(50, 500)),
        budget=budget,
    )


def streaming_federation(
    max_size: Optional[int] = None,
    *,
    num_clients: int = 8,
    total_samples: int = 400,
    seed: int = 3,
):
    """The property-test streaming federation (tiny, regenerable shards)."""
    return streaming_synthetic_federated(
        num_clients,
        total_samples=total_samples,
        dim=6,
        num_classes=3,
        test_clients=min(3, num_clients),
        seed=seed,
        max_size=max_size,
    )


if HAVE_HYPOTHESIS:
    #: Posted per-unit prices (may be negative: clients paying the server).
    finite_prices = st.floats(
        min_value=-100.0,
        max_value=100.0,
        allow_nan=False,
        allow_infinity=False,
    )
    #: Cost parameters ``c_n > 0``.
    positive_costs = st.floats(min_value=0.1, max_value=100.0)
    #: Value-contribution products ``v_n A_n >= 0``.
    nonneg_values = st.floats(min_value=0.0, max_value=50.0)
    #: Participation caps ``q_max``.
    q_caps = st.floats(min_value=0.05, max_value=1.0)
    #: Random Stage-I problems over seed x budget.
    server_problems = st.builds(
        random_problem,
        draw_seed=st.integers(min_value=0, max_value=10_000),
        budget=st.floats(min_value=0.5, max_value=500.0),
    )
    #: Arbitrary nested JSON-like payloads (serialization round-trips).
    nested_json = st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(min_value=-(2**31), max_value=2**31),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(max_size=10),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=5), children, max_size=4),
        ),
        max_leaves=15,
    )
