"""Preparing and executing scenarios across the mechanism suite.

:class:`ScenarioRunner` turns a declarative
:class:`~repro.scenarios.spec.ScenarioSpec` into concrete results, one
:class:`ScenarioCell` per (scenario, mechanism) pair:

* **Training scenarios** run the full pipeline: the setup is prepared once
  per *population* (memoized by
  :meth:`~repro.scenarios.spec.ScenarioSpec.population_fingerprint`, so
  every mechanism — and every scenario sharing an economy — reuses one
  dataset/calibration), then all (mechanism x seed) cells fan through the
  existing orchestrator DAG as ``EquilibriumJob -> {TrainJob}`` chains.
  Parallelism, on-disk memoization, and the serial==parallel determinism
  contract are inherited wholesale.
* **Game-only scenarios** (``train=False``) skip datasets and pilots
  entirely: a synthetic economy is drawn directly at the requested fleet
  size (10k+ clients), values are unit-calibrated with the same Table-V
  anchor as the paper pipeline, and each mechanism's equilibrium is solved
  through the vectorized best-response path. Solving is sub-second even at
  10k clients, so these cells run inline rather than paying process-pool
  freight.

Both paths are deterministic functions of ``(spec, scale, seed)`` — a
``--jobs 2`` compare is bit-identical to ``--jobs 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.configs import (
    SETUPS,
    ScaleProfile,
    SetupConfig,
    apply_scale,
    resolve_scale,
)
from repro.experiments.setup import (
    PreparedSetup,
    calibrate_value_scale,
    prepare_setup,
)
from repro.fl.execution import ExecutionSpec
from repro.game import (
    ClientPopulation,
    PricingOutcome,
    PricingScheme,
    ServerProblem,
    default_mechanisms,
    estimator_bias_mass,
)
from repro.scenarios.spec import ScenarioSpec
from repro.utils.rng import RngFactory

#: Surrogate coefficient used for synthetic (game-only) economies, chosen
#: so mid-sized fleets land in the interior-equilibrium regime the paper
#: studies (same magnitude as the test suite's reference problems).
SYNTHETIC_ALPHA = 2_000.0

#: Fraction of each history's best accuracy that defines the scenario's
#: time-to-accuracy target; < 1 guarantees every run reaches its target,
#: so the metric is always finite.
TIME_TO_ACCURACY_FRACTION = 0.95


@dataclass(frozen=True)
class PreparedScenario:
    """A scenario made concrete: config, problem, and (if training) setup."""

    spec: ScenarioSpec
    config: SetupConfig
    scale: ScaleProfile
    seed: int
    problem: ServerProblem
    prepared: Optional[PreparedSetup] = None
    """The full training pipeline's output; ``None`` for game-only
    scenarios."""


@dataclass
class ScenarioCell:
    """One (scenario, mechanism) result of a comparison matrix.

    ``algorithm`` is the canonical spelling of the local-update rule the
    cell trained under (``None`` for plain FedAvg and game-only cells),
    so algorithm x mechanism artifacts are self-describing without a trip
    back to the registry.
    """

    scenario: str
    mechanism: str
    outcome: PricingOutcome
    histories: List = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    algorithm: Optional[str] = None


def scenario_config(
    spec: ScenarioSpec, scale: ScaleProfile
) -> SetupConfig:
    """The concrete :class:`SetupConfig` a scenario runs at ``scale``.

    Applies the scale profile to the spec's base setup, then the
    population's fleet-size override (budget and total samples rescale
    proportionally, mirroring :func:`apply_scale`).
    """
    config = apply_scale(SETUPS[spec.setup], scale)
    population = spec.population
    if population.num_clients is not None:
        fraction = population.num_clients / config.num_clients
        samples = config.total_samples
        config = replace(
            config,
            num_clients=population.num_clients,
            budget=config.budget * fraction,
            total_samples=(
                None if samples is None else max(1, round(samples * fraction))
            ),
        )
    if population.q_max is not None:
        config = replace(config, q_max=population.q_max)
    return config


def _spread_and_scale_costs(
    costs: np.ndarray,
    mean: float,
    heterogeneity: float,
    cost_factor: float,
) -> np.ndarray:
    """The PopulationSpec cost transform, shared by both scenario paths.

    Spread the draw about ``mean`` (``c -> mean + h * (c - mean)``),
    re-apply the base draw's 5%-of-mean floor, then rescale the level by
    ``cost_factor``. One definition keeps trained and game-only scenarios
    describing the same economy for the same spec.
    """
    spread = mean + heterogeneity * (costs - mean)
    return np.maximum(spread, 0.05 * mean) * cost_factor


def _apply_population_factors(
    prepared: PreparedSetup, spec: ScenarioSpec
) -> PreparedSetup:
    """Derive the scenario's economy from a base prepared setup.

    Applied in a fixed order (cost spread+level, value level, budget) via
    the existing ``with_*`` sweep machinery, so a scenario with all factors
    at 1 *is* the base setup object — bit-identical problem, shared cache
    keys.
    """
    population = spec.population
    if population.is_baseline:
        return prepared
    costs = prepared.problem.population.costs
    if population.heterogeneity != 1.0 or population.cost_factor != 1.0:
        scaled = _spread_and_scale_costs(
            costs,
            float(costs.mean()),
            population.heterogeneity,
            population.cost_factor,
        )
        prepared = prepared.with_population(
            prepared.problem.population.with_costs(scaled)
        )
    if population.value_factor != 1.0:
        prepared = prepared.with_mean_value(
            prepared.config.mean_value * population.value_factor
        )
    if population.budget_factor != 1.0:
        prepared = prepared.with_budget(
            prepared.problem.budget * population.budget_factor
        )
    return prepared


def synthetic_problem(
    spec: ScenarioSpec,
    config: SetupConfig,
    *,
    seed: int = 0,
    weights: Optional[np.ndarray] = None,
) -> ServerProblem:
    """A game-layer economy drawn directly, without datasets or pilots.

    Weights are normalized unit-exponential draws (heavy-tailed shard
    sizes), gradient bounds uniform on ``[1, 5]``, costs exponential at the
    scenario's mean with its spread transform, and intrinsic values are
    unit-calibrated with :func:`calibrate_value_scale` — the same Table-V
    anchor the full pipeline uses, so synthetic economies are comparable
    with calibrated ones. Deterministic in ``(spec, config, seed)``.

    ``weights`` overrides the exponential weight draw with externally
    supplied data weights (the streaming-training path passes the actual
    shard-size weights of its dataset, so the game prices exactly the
    federation the trainer aggregates); the draw that would have produced
    weights is still consumed, keeping every other stream unchanged.
    """
    population_spec = spec.population
    factory = RngFactory(seed).child("scenario", spec.setup)
    rng = factory.make("synthetic-population")
    n = config.num_clients
    raw_weights = rng.exponential(1.0, size=n)
    if weights is None:
        weights = raw_weights / raw_weights.sum()
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError(
                f"weights override must have shape ({n},), got {weights.shape}"
            )
    gradient_bounds = rng.uniform(1.0, 5.0, size=n)
    costs = _spread_and_scale_costs(
        rng.exponential(config.mean_cost, size=n),
        config.mean_cost,
        population_spec.heterogeneity,
        population_spec.cost_factor,
    )
    raw_values = rng.exponential(1.0, size=n)
    budget = config.budget * population_spec.budget_factor
    cost_side = ClientPopulation(
        weights=weights,
        gradient_bounds=gradient_bounds,
        costs=costs,
        values=np.zeros(n),
        q_max=np.full(n, config.q_max),
    )
    base = ServerProblem(
        population=cost_side,
        alpha=SYNTHETIC_ALPHA,
        num_rounds=config.num_rounds,
        budget=budget,
    )
    # Calibrate the value units with a *zero* negative-payment anchor: at
    # fleet sizes in the thousands the exponential value tail is long
    # enough that the paper's 3/40 anchor pushes its extreme clients into
    # the solver's q-floor regime, which makes spending comparisons
    # meaningless. Synthetic scenarios stress scale; the bi-directional
    # payment economy is covered by the calibrated (training) scenarios.
    mean_value = config.mean_value * population_spec.value_factor
    scale = calibrate_value_scale(
        base, raw_values, mean_value, target_fraction=0.0
    )
    return ServerProblem(
        population=cost_side.with_values(raw_values * mean_value * scale),
        alpha=SYNTHETIC_ALPHA,
        num_rounds=config.num_rounds,
        budget=budget,
    )


class ScenarioRunner:
    """Executes scenarios against a mechanism suite.

    Args:
        scale: Scale-profile name (default: the environment's).
        seed: Root seed for every scenario's streams.
        orchestrator: An
            :class:`~repro.experiments.orchestrator.ExperimentOrchestrator`
            for the training cells; ``None`` runs serially uncached.

    Preparation is memoized per population fingerprint, so every mechanism
    on one scenario — and every scenario sharing an economy — pays for one
    dataset build + calibration, not one each.
    """

    def __init__(
        self,
        *,
        scale: Optional[str] = None,
        seed: int = 0,
        orchestrator=None,
    ):
        self.scale = resolve_scale(scale)
        self.seed = int(seed)
        self.orchestrator = orchestrator
        self._economies: Dict[str, tuple] = {}
        self._base_setups: Dict[str, PreparedSetup] = {}

    # Preparation -------------------------------------------------------------

    def prepare(self, spec: ScenarioSpec) -> PreparedScenario:
        """Build (or fetch the memoized) concrete scenario for ``spec``.

        The memo is keyed by :meth:`ScenarioSpec.population_fingerprint`,
        which deliberately excludes the participation process and labels —
        scenarios differing only in *how* rounds are drawn share one
        economy, so only the (config, problem, prepared setup) triple is
        memoized and the returned object always carries the caller's spec.
        """
        key = f"{spec.population_fingerprint()}/{self.scale.name}/{self.seed}"
        if key not in self._economies:
            config = scenario_config(spec, self.scale)
            if spec.train and spec.streaming:
                prepared = self._prepare_streaming(spec, config)
                self._economies[key] = (config, prepared.problem, prepared)
            elif spec.train:
                base = self._base_setup(spec, config)
                prepared = _apply_population_factors(base, spec)
                self._economies[key] = (config, prepared.problem, prepared)
            else:
                problem = synthetic_problem(spec, config, seed=self.seed)
                self._economies[key] = (config, problem, None)
        config, problem, prepared = self._economies[key]
        return PreparedScenario(
            spec=spec,
            config=config,
            scale=self.scale,
            seed=self.seed,
            problem=problem,
            prepared=prepared,
        )

    def _prepare_streaming(
        self, spec: ScenarioSpec, config: SetupConfig
    ) -> PreparedSetup:
        """Memory-bounded preparation: streaming shards + synthetic economy.

        The full pipeline's pilots (reference optima, gradient-bound
        estimation, alpha/beta fits) iterate every client's materialized
        shard — at megafleet sizes that is exactly the work and memory
        streaming exists to avoid. This path therefore pairs the
        game-only scenarios' synthetic economy (drawn at fleet size,
        unit-calibrated with the same Table-V anchor) with a
        :class:`~repro.datasets.streaming.StreamingFederatedDataset`
        whose *actual shard-size weights* replace the economy's weight
        draw, so the game prices the same federation the trainer
        aggregates. Round timing uses the closed-form
        :class:`~repro.simulation.FleetTimingModel` (the event-driven
        upload simulation is super-linear in participants). Training then
        flows through the ordinary orchestrator DAG, whose trainer runs
        chunked whatever the storage.
        """
        from repro.datasets import streaming_synthetic_federated
        from repro.models import MultinomialLogisticRegression
        from repro.simulation import build_fleet_timing
        from repro.theory import ReferenceOptima

        total = config.total_samples or 22_377
        federated = streaming_synthetic_federated(
            config.num_clients,
            total_samples=total,
            seed=self.seed,
            # Cap shards at 4x the mean: the raw power law concentrates a
            # constant fraction of the total on its top client, which
            # would tie peak memory (and the chunk kernel's stack width)
            # to the fleet size rather than the chunk knob.
            max_size=max(1, 4 * (total // config.num_clients)),
        )
        model = MultinomialLogisticRegression(
            num_features=federated.num_features,
            num_classes=federated.num_classes,
            l2=config.l2,
        )
        problem = synthetic_problem(
            spec, config, seed=self.seed, weights=federated.weights
        )
        factory = RngFactory(self.seed).child(
            "scenario-streaming", spec.setup
        )
        runtime = build_fleet_timing(
            config.num_clients,
            model.num_params,
            local_steps=config.local_steps,
            batch_size=config.batch_size,
            rng=factory.make("fleet-timing"),
        )
        n = config.num_clients
        # No pilot training at streaming scale: reference optima are the
        # zero surrogate (outcome.expected_loss columns become gap-only,
        # matching the game-only scenarios' convention).
        optima = ReferenceOptima(
            f_star=float(problem.f_star),
            f_star_local=np.zeros(n),
            w_star=model.init_params(),
            local_gaps=(
                problem.local_gaps
                if problem.local_gaps is not None
                else np.zeros(n)
            ),
        )
        return PreparedSetup(
            config=config,
            scale=self.scale,
            federated=federated,
            model=model,
            problem=problem,
            optima=optima,
            runtime=runtime,
            rng_factory=factory,
            alpha=float(problem.alpha),
            beta=float(problem.beta),
            # The synthetic economy's values are already in final units;
            # streaming setups never sweep mean_value, so the unit draw
            # bookkeeping collapses to scale 1 over the final values.
            value_scale=1.0,
            raw_values=problem.population.values,
        )

    def _base_setup(
        self, spec: ScenarioSpec, config: SetupConfig
    ) -> PreparedSetup:
        """One :func:`prepare_setup` per (setup, fleet size), shared by all
        factor-derived economies."""
        key = f"{spec.setup}/{config.num_clients}/{config.total_samples}"
        if key not in self._base_setups:
            self._base_setups[key] = prepare_setup(
                config, scale=self.scale, seed=self.seed
            )
        return self._base_setups[key]

    # Execution ---------------------------------------------------------------

    def run(
        self,
        spec: ScenarioSpec,
        mechanisms: Optional[Sequence[PricingScheme]] = None,
        *,
        repeats: Optional[int] = None,
    ) -> List[ScenarioCell]:
        """All mechanism cells for one scenario.

        Args:
            spec: The scenario to run.
            mechanisms: Mechanism suite (default:
                :func:`repro.game.default_mechanisms`).
            repeats: Training seeds per mechanism (default: the scale
                profile's repeat count; ignored for game-only scenarios).

        Returns:
            One :class:`ScenarioCell` per mechanism, in suite order, with
            the comparison metrics filled in.
        """
        if mechanisms is None:
            # Fast scenarios get the suite's approximate level searches —
            # the difference between pricing a 100k fleet in seconds and
            # in minutes. An explicit mechanism list always wins.
            mechanisms = default_mechanisms(fast=spec.fast)
        concrete = self.prepare(spec)
        cells: List[ScenarioCell] = []
        if spec.train:
            from repro.experiments.runner import run_pricing_comparison

            comparison = run_pricing_comparison(
                concrete.prepared,
                repeats=repeats,
                schemes=list(mechanisms),
                orchestrator=self.training_orchestrator(spec),
                participation=spec.participation,
                exclude_zero=True,
                algorithm=spec.algorithm,
            )
            for mechanism in mechanisms:
                result = comparison[mechanism.name]
                cells.append(
                    ScenarioCell(
                        scenario=spec.name,
                        mechanism=mechanism.name,
                        outcome=result.outcome,
                        histories=list(result.histories),
                        algorithm=(
                            spec.algorithm.canonical()
                            if spec.algorithm is not None
                            else None
                        ),
                    )
                )
        else:
            for mechanism in mechanisms:
                cells.append(
                    ScenarioCell(
                        scenario=spec.name,
                        mechanism=mechanism.name,
                        outcome=mechanism.apply(concrete.problem),
                    )
                )
        _fill_metrics(concrete, cells)
        return cells

    def training_orchestrator(self, spec: ScenarioSpec):
        """The orchestrator ``spec``'s train jobs run through (``None`` =
        serial, uncached): a fast scenario trains on the fast tier unless
        an explicit orchestrator brings its own execution spec."""
        if self.orchestrator is None and spec.fast:
            from repro.experiments.orchestrator import ExperimentOrchestrator

            return ExperimentOrchestrator(execution=ExecutionSpec(fast=True))
        return self.orchestrator

    def compare(
        self,
        specs: Sequence[ScenarioSpec],
        mechanisms: Optional[Sequence[PricingScheme]] = None,
        *,
        repeats: Optional[int] = None,
    ) -> List[ScenarioCell]:
        """The full (scenario x mechanism) matrix, scenario-major order."""
        cells: List[ScenarioCell] = []
        for spec in specs:
            cells.extend(self.run(spec, mechanisms, repeats=repeats))
        return cells


def _fill_metrics(
    concrete: PreparedScenario, cells: List[ScenarioCell]
) -> None:
    """Attach the comparison metrics to every cell of one scenario.

    Game metrics (always): ``estimator_bias`` (excluded weight mass),
    ``total_payment``, ``objective_gap``, ``mean_q``, and
    ``expected_participants`` under the scenario's round process. Training
    metrics (training scenarios): ``final_loss``, ``final_accuracy``, and
    ``time_to_accuracy`` — the mean simulated seconds to reach
    :data:`TIME_TO_ACCURACY_FRACTION` of the scenario's weakest run's best
    accuracy, a target every run reaches, so the metric is finite by
    construction.
    """
    spec = concrete.spec
    population = concrete.problem.population
    for cell in cells:
        outcome = cell.outcome
        inclusion = spec.participation.effective_inclusion(outcome.q)
        cell.metrics = {
            "estimator_bias": estimator_bias_mass(population, outcome.q),
            "total_payment": float(np.sum(outcome.prices * outcome.q)),
            "objective_gap": float(outcome.objective_gap),
            "mean_q": float(np.mean(outcome.q)),
            "expected_participants": float(np.sum(inclusion)),
        }
    trained = [cell for cell in cells if cell.histories]
    if not trained:
        return
    best_accuracies = [
        float(np.nanmax(history.test_accuracies))
        for cell in trained
        for history in cell.histories
    ]
    target = TIME_TO_ACCURACY_FRACTION * min(best_accuracies)
    for cell in trained:
        cell.metrics["final_loss"] = float(
            np.mean([h.final_global_loss() for h in cell.histories])
        )
        cell.metrics["final_accuracy"] = float(
            np.mean([h.final_test_accuracy() for h in cell.histories])
        )
        cell.metrics["time_to_accuracy"] = float(
            np.mean([h.time_to_accuracy(target) for h in cell.histories])
        )
        cell.metrics["accuracy_target"] = target


def nonfinite_metrics(cells: Sequence[ScenarioCell]) -> List[str]:
    """``"scenario/mechanism/metric"`` labels of every non-finite metric.

    The CI matrix fails a scenario when this is non-empty: every declared
    metric of every cell must be a finite float.
    """
    problems = []
    for cell in cells:
        for name, value in cell.metrics.items():
            if not math.isfinite(value):
                problems.append(f"{cell.scenario}/{cell.mechanism}/{name}")
    return problems
