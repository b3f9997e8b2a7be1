"""Building a ready-to-run experiment from a setup config.

``prepare_setup`` performs the full pre-game pipeline the paper describes:

1. generate the federated dataset (Sec. VI-A1),
2. instantiate the convex model (multinomial logistic regression),
3. measure the task constants — ``L``, ``mu`` analytic; ``G_n``,
   ``sigma_n`` from pilot gradient norms; ``F*``, ``F*_n`` by deterministic
   training (Sec. IV-A),
4. calibrate the surrogate's ``(alpha, beta)`` against pilot runs (the
   paper's "estimate alpha following [22]"),
5. draw the economic population (exponential ``c_n``, ``v_n``; Table I) and
   convert the paper's intrinsic-value units into our loss units (see
   :func:`calibrate_value_scale`),
6. assemble the :class:`~repro.game.server_problem.ServerProblem` and the
   simulated testbed timing model.

**Why a value-unit calibration?** ``v_n`` multiplies a loss improvement
(Eq. 7), so its unit is money per unit of loss. The paper's magnitudes
(4,000-30,000) are calibrated to the authors' testbed loss scale, which we
cannot know. We convert units by choosing a scalar ``s`` such that, at the
setup's Table-I mean value, the fraction of negative-payment clients matches
the paper's own Table V anchor (3 of 40 at v = 4,000). All sweeps then reuse
the same ``s``, preserving every relative comparison the paper makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.datasets import (
    FederatedDataset,
    emnist_like,
    mnist_like,
    synthetic_federated,
)
from repro.experiments.configs import ScaleProfile, SetupConfig, resolve_scale
from repro.game import ClientPopulation, ServerProblem, solve_cpl_game
from repro.models import MultinomialLogisticRegression
from repro.simulation import TestbedRuntime, build_testbed
from repro.theory import (
    ReferenceOptima,
    estimate_problem_constants,
    fit_bound_scale,
)
from repro.utils.rng import RngFactory

# Table V anchor: 3 negative-payment clients out of 40 at v-bar = 4,000.
_TARGET_NEGATIVE_FRACTION = 3.0 / 40.0


@dataclass(frozen=True)
class PreparedSetup:
    """Everything needed to run one experiment end to end."""

    config: SetupConfig
    scale: ScaleProfile
    federated: FederatedDataset
    model: MultinomialLogisticRegression
    problem: ServerProblem
    optima: ReferenceOptima
    runtime: TestbedRuntime
    rng_factory: RngFactory
    alpha: float
    beta: float
    value_scale: float
    raw_values: np.ndarray
    """Unit exponential draws; client n's value is
    ``raw_values[n] * mean_value * value_scale``."""

    @property
    def eval_every(self) -> int:
        """Evaluation cadence for training runs."""
        return self.scale.eval_every

    def _replace_problem(self, problem: ServerProblem) -> "PreparedSetup":
        return PreparedSetup(
            config=self.config,
            scale=self.scale,
            federated=self.federated,
            model=self.model,
            problem=problem,
            optima=self.optima,
            runtime=self.runtime,
            rng_factory=self.rng_factory,
            alpha=self.alpha,
            beta=self.beta,
            value_scale=self.value_scale,
            raw_values=self.raw_values,
        )

    def with_budget(self, budget: float) -> "PreparedSetup":
        """Copy with a different budget (the Fig.-7 sweep)."""
        return self._replace_problem(
            ServerProblem(
                population=self.problem.population,
                alpha=self.problem.alpha,
                num_rounds=self.problem.num_rounds,
                budget=float(budget),
                beta=self.problem.beta,
                f_star=self.problem.f_star,
                local_gaps=self.problem.local_gaps,
            )
        )

    def with_population(self, population: ClientPopulation) -> "PreparedSetup":
        """Copy with altered economic profiles (the Fig.-5/6 sweeps)."""
        return self._replace_problem(
            ServerProblem(
                population=population,
                alpha=self.problem.alpha,
                num_rounds=self.problem.num_rounds,
                budget=self.problem.budget,
                beta=self.problem.beta,
                f_star=self.problem.f_star,
                local_gaps=self.problem.local_gaps,
            )
        )

    def with_mean_value(self, mean_value: float) -> "PreparedSetup":
        """Copy with the same clients at a different mean intrinsic value.

        The per-client unit draws are fixed, so sweeping ``mean_value``
        rescales every client's value proportionally — exactly the paper's
        Fig. 5 / Table V sweep.
        """
        values = self.raw_values * float(mean_value) * self.value_scale
        return self.with_population(
            self.problem.population.with_values(values)
        )

    def with_mean_cost(self, mean_cost: float) -> "PreparedSetup":
        """Copy with costs rescaled to a new mean (the Fig.-6 sweep)."""
        population = self.problem.population
        current_mean = float(population.costs.mean())
        scaled = population.costs * (float(mean_cost) / current_mean)
        return self.with_population(population.with_costs(scaled))


def _build_dataset(
    config: SetupConfig, factory: RngFactory
) -> FederatedDataset:
    rng = factory.make("dataset")
    if config.dataset == "synthetic":
        return synthetic_federated(
            config.num_clients,
            alpha=1.0,
            beta=1.0,
            total_samples=config.total_samples or 22_377,
            rng=rng,
        )
    if config.dataset == "mnist":
        return mnist_like(
            config.num_clients,
            total_samples=config.total_samples or 14_463,
            rng=rng,
        )
    if config.dataset == "emnist":
        return emnist_like(
            config.num_clients,
            total_samples=config.total_samples or 35_155,
            rng=rng,
        )
    raise ValueError(f"unknown dataset {config.dataset!r}")


def calibrate_value_scale(
    base_problem: ServerProblem,
    raw_values: np.ndarray,
    mean_value: float,
    *,
    target_fraction: float = _TARGET_NEGATIVE_FRACTION,
    grid_decades: float = 6.0,
    grid_points: int = 49,
) -> float:
    """Choose the loss-unit conversion ``s`` for intrinsic values.

    Scans ``s`` over a log grid and picks the value whose equilibrium
    negative-payment fraction is closest to ``target_fraction`` while the
    budget still binds (a slack budget means values dominate the economy and
    the game degenerates to full participation). Ties go to the smaller
    scale, so the scan stops at the first point whose error is exactly 0:
    the synthetic economies' target of 0 usually ends it at the first
    budget-tight point.

    Args:
        base_problem: Problem with the *cost* side already in place; its
            population's values are ignored.
        raw_values: Unit-mean exponential draws, one per client.
        mean_value: The setup's Table-I mean intrinsic value.
        target_fraction: Anchor fraction of negative-payment clients.
        grid_decades: Width of the log-scale search grid.
        grid_points: Number of grid points.

    Returns:
        The chosen scale ``s > 0``. When ``mean_value`` is zero the scale is
        irrelevant and 1.0 is returned. When the budget binds at no grid
        point, 1.0 is returned too, which is off the grid.
    """
    if mean_value <= 0:
        return 1.0
    population = base_problem.population
    # Center the grid where value-payments are comparable to cost-payments:
    # s0 ~ mean(2 c q^2) / mean(v A / q) at q ~ 0.5.
    contributions = base_problem.contributions
    typical_cost_spend = float(np.mean(2.0 * population.costs * 0.25))
    typical_value_spend = float(
        np.mean(raw_values * mean_value * contributions / 0.5)
    )
    center = typical_cost_spend / max(typical_value_spend, 1e-300)
    exponents = np.linspace(
        -grid_decades / 2, grid_decades / 2, grid_points
    )
    best_scale, best_error = 1.0, np.inf
    for scale in center * 10.0**exponents:
        values = raw_values * mean_value * scale
        problem = ServerProblem(
            population=population.with_values(values),
            alpha=base_problem.alpha,
            num_rounds=base_problem.num_rounds,
            budget=base_problem.budget,
            beta=base_problem.beta,
            f_star=base_problem.f_star,
            local_gaps=base_problem.local_gaps,
        )
        equilibrium = solve_cpl_game(problem)
        if not equilibrium.budget_tight:
            continue
        fraction = (
            equilibrium.negative_payment_clients.size / problem.num_clients
        )
        error = abs(fraction - target_fraction)
        if error < best_error or (
            error == best_error and scale < best_scale
        ):
            best_error, best_scale = error, float(scale)
        # The grid ascends (center > 0) and ties keep the smaller scale,
        # so no later point can replace an exact hit.
        if best_error == 0.0:
            break
    return best_scale


def prepare_setup(
    config: SetupConfig,
    *,
    scale: Optional[ScaleProfile] = None,
    seed: int = 0,
) -> PreparedSetup:
    """Run the full pre-game pipeline for ``config`` (see module docstring).

    Args:
        config: A paper setup. When ``scale`` is ``None``, the environment's
            scale profile is resolved and applied to ``config`` first;
            otherwise ``config`` is used as-is (callers pre-scale it).
        scale: Scale profile metadata.
        seed: Root seed; every stochastic stage derives from it.

    Returns:
        A :class:`PreparedSetup` bundling dataset, model, calibrated game
        problem, reference optima, and the simulated testbed.
    """
    from repro.experiments.configs import apply_scale

    if scale is None:
        scale = resolve_scale()
        config = apply_scale(config, scale)
    factory = RngFactory(seed).child(config.name)

    federated = _build_dataset(config, factory)
    model = MultinomialLogisticRegression(
        num_features=federated.num_features,
        num_classes=federated.num_classes,
        l2=config.l2,
    )
    constants, optima = estimate_problem_constants(
        model,
        federated,
        local_steps=config.local_steps,
        batch_size=config.batch_size,
        pilot_rounds=max(2, scale.pilot_rounds // 2),
        rng_factory=factory.child("estimation"),
    )
    alpha, beta = fit_bound_scale(
        model,
        federated,
        constants,
        f_star=optima.f_star,
        local_steps=config.local_steps,
        batch_size=config.batch_size,
        pilot_rounds=scale.pilot_rounds,
        seeds_per_level=1,
        rng_factory=factory.child("fit"),
    )

    population_rng = factory.make("population")
    costs = population_rng.exponential(
        config.mean_cost, size=config.num_clients
    )
    costs = np.maximum(costs, 0.05 * config.mean_cost)
    raw_values = population_rng.exponential(1.0, size=config.num_clients)

    cost_side = ClientPopulation(
        weights=constants.weights,
        gradient_bounds=constants.gradient_bounds,
        costs=costs,
        values=np.zeros(config.num_clients),
        q_max=np.full(config.num_clients, config.q_max),
    )
    base_problem = ServerProblem(
        population=cost_side,
        alpha=alpha,
        num_rounds=config.num_rounds,
        budget=config.budget,
        beta=beta,
        f_star=optima.f_star,
        local_gaps=optima.local_gaps,
    )
    value_scale = calibrate_value_scale(
        base_problem, raw_values, config.mean_value
    )
    values = raw_values * config.mean_value * value_scale
    problem = ServerProblem(
        population=cost_side.with_values(values),
        alpha=alpha,
        num_rounds=config.num_rounds,
        budget=config.budget,
        beta=beta,
        f_star=optima.f_star,
        local_gaps=optima.local_gaps,
    )
    runtime = build_testbed(
        config.num_clients,
        model.num_params,
        local_steps=config.local_steps,
        batch_size=config.batch_size,
        rng=factory.make("testbed"),
    )
    return PreparedSetup(
        config=config,
        scale=scale,
        federated=federated,
        model=model,
        problem=problem,
        optima=optima,
        runtime=runtime,
        rng_factory=factory,
        alpha=alpha,
        beta=beta,
        value_scale=value_scale,
        raw_values=raw_values,
    )
