"""Running prepared setups: pricing comparisons and parameter sweeps.

These functions produce the raw material for every Fig.-4-7 curve and every
Table-II-V row: equilibrium outcomes from the game layer, plus measured
training histories from the FL engine on the simulated testbed.

All batteries execute through
:class:`~repro.experiments.orchestrator.ExperimentOrchestrator`. The default
is a serial, uncached orchestrator that reproduces the historical inline
behavior exactly; pass ``orchestrator=ExperimentOrchestrator(jobs=N,
cache_dir=...)`` to fan the same jobs out across processes with
content-addressed memoization (results are bit-identical either way).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.algorithms import coerce_algorithm
from repro.experiments.setup import PreparedSetup
from repro.fl import (
    BernoulliParticipation,
    CheckpointConfig,
    ExecutionSpec,
    FederatedTrainer,
    ParticipationModel,
    ParticipationSpec,
    TrainingHistory,
)
from repro.fl.execution import DEFAULT_EXECUTION
from repro.fl.history import average_histories
from repro.game import (
    OptimalPricing,
    PricingOutcome,
    PricingScheme,
    UniformPricing,
    WeightedPricing,
)
from repro.models import ExponentialDecaySchedule
from repro.utils.rng import RngFactory

logger = logging.getLogger(__name__)

#: Participation floor used by :func:`run_history`. The Lemma-1 unbiased
#: aggregator rescales each update by ``1/q_n``, so ``q_n = 0`` is undefined
#: and tiny ``q_n`` would blow up the update variance; entries are clipped
#: into ``[Q_MIN, 1]`` (with a logged warning when that changes anything).
Q_MIN = 1e-4


def default_schemes() -> List[PricingScheme]:
    """The paper's three compared schemes."""
    return [OptimalPricing(), WeightedPricing(), UniformPricing()]


def _default_orchestrator():
    from repro.experiments.orchestrator import ExperimentOrchestrator

    return ExperimentOrchestrator(jobs=1)


def run_history(
    prepared: PreparedSetup,
    q: Sequence[float],
    *,
    seed: int = 0,
    participation: Optional[ParticipationSpec] = None,
    exclude_zero: bool = False,
    algorithm=None,
    execution: Optional[ExecutionSpec] = None,
    checkpoint: Optional[CheckpointConfig] = None,
    **knobs,
) -> TrainingHistory:
    """One FL training run at participation vector ``q`` on the testbed.

    The one-run case of :func:`run_histories`.

    ``q`` is clipped into ``[Q_MIN, 1]`` (see :data:`Q_MIN`); when clipping
    actually changes a value a warning is logged so biased-participation
    configurations are not silently masked.

    ``participation`` optionally replaces the paper's independent-Bernoulli
    round process with another :class:`~repro.fl.ParticipationSpec` regime
    (correlated shocks, intermittent availability) at the same willingness
    ``q``; ``None`` is byte-for-byte the historical Bernoulli path.

    ``exclude_zero=True`` preserves *exact* zeros in ``q`` instead of
    clipping them to :data:`Q_MIN`: those clients are deliberately excluded
    (they never enter the round lottery, so the Lemma-1 aggregator never
    divides by their zero), which is how the fixed-subset baseline's biased
    regime is trained. The resulting estimator is biased toward the
    included subpopulation — quantified by
    :func:`repro.game.estimator_bias_mass`, not masked by clipping.

    ``execution`` (an :class:`~repro.fl.ExecutionSpec`) says how the
    trainer computes the run; its fields are also accepted as keywords
    (``run_history(prepared, q, fast=True)``), which override it. The spec
    states which knobs change results. ``checkpoint`` (a
    :class:`~repro.fl.CheckpointConfig`) saves resumable snapshots and,
    with ``resume``, continues a killed run bit-identically.

    ``algorithm`` selects the local-update rule (an
    :class:`~repro.algorithms.AlgorithmSpec`, its string/dict form, or
    ``None`` for plain FedAvg — see :mod:`repro.algorithms`); it changes
    the produced history.
    """
    from repro.experiments.orchestrator import TrainJob

    job = TrainJob(
        q=tuple(float(v) for v in np.asarray(q, dtype=float)),
        seed=seed,
        participation=participation,
        exclude_zero=exclude_zero,
        algorithm=algorithm,
        execution=replace(execution or DEFAULT_EXECUTION, **knobs),
        checkpoint=checkpoint,
    )
    [history] = run_histories(prepared, [job])
    return history


def _participation_model(job, factory: RngFactory) -> ParticipationModel:
    """The round process of one train job, on its clipped ``q``."""
    requested = np.asarray(job.q, dtype=float)
    q = np.clip(requested, Q_MIN, 1.0)
    if job.exclude_zero:
        q = np.where(requested == 0.0, 0.0, q)
    changed = q != requested
    if np.any(changed):
        logger.warning(
            "run_history: clipped %d of %d q entries into [%g, 1] "
            "(requested range [%g, %g]); participation below %g is "
            "undefined for the unbiased aggregator, so results at these "
            "clients reflect the clipped probabilities",
            int(changed.sum()),
            requested.size,
            Q_MIN,
            float(requested.min()),
            float(requested.max()),
            Q_MIN,
        )
    rng = factory.make("participation")
    if job.participation is None:
        return BernoulliParticipation(q, rng=rng)
    return job.participation.build(q, rng=rng)


def run_histories(
    prepared: PreparedSetup, jobs: Sequence
) -> List[TrainingHistory]:
    """Train a group of runs of one prepared setup in lockstep.

    ``jobs`` are :class:`~repro.experiments.orchestrator.TrainJob` specs
    that share one ``algorithm`` and one ``execution``; each job's ``q``,
    ``seed``, ``participation``, ``exclude_zero`` and ``checkpoint``
    describe one run, as the matching :func:`run_history` arguments do.
    All runs advance through one
    :meth:`~repro.fl.FederatedTrainer.run_group`, so each round's local
    SGD for every run is one set of stacked kernel calls. Returns one
    history per job, in order, each bit-identical to that job's
    :func:`run_history` alone.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    first = jobs[0]
    algorithm = coerce_algorithm(first.algorithm)
    for job in jobs[1:]:
        if (coerce_algorithm(job.algorithm), job.execution) != (
            algorithm,
            first.execution,
        ):
            raise ValueError(
                "a lockstep group shares one algorithm and one execution "
                f"spec; got {job.algorithm!r}/{job.execution!r} beside "
                f"{first.algorithm!r}/{first.execution!r}"
            )
    config = prepared.config
    # Every stream of a run comes from the setup's ("run", seed) child.
    factories = [
        prepared.rng_factory.child("run", str(job.seed)) for job in jobs
    ]
    trainer = FederatedTrainer(
        prepared.model,
        prepared.federated,
        _participation_model(first, factories[0]),
        schedule=ExponentialDecaySchedule(
            initial=config.initial_lr, decay=config.lr_decay
        ),
        local_steps=config.local_steps,
        batch_size=config.batch_size,
        round_timer=prepared.runtime.round_timer(),
        eval_every=prepared.eval_every,
        rng_factory=factories[0],
        algorithm=algorithm,
        execution=first.execution,
    )
    states = [trainer.state] + [
        trainer.make_state(_participation_model(job, factory), factory)
        for job, factory in zip(jobs[1:], factories[1:])
    ]
    return trainer.run_group(
        states,
        config.num_rounds,
        checkpoints=[job.checkpoint for job in jobs],
    )


@dataclass
class SchemeResult:
    """One pricing scheme's equilibrium outcome plus measured training."""

    outcome: PricingOutcome
    histories: List[TrainingHistory] = field(default_factory=list)

    @property
    def curves(self) -> dict:
        """Seed-averaged loss/accuracy curves on a shared time grid."""
        return average_histories(self.histories)

    def mean_time_to_loss(self, target: float) -> float:
        """Average simulated seconds to reach ``target`` global loss."""
        return float(
            np.mean([history.time_to_loss(target) for history in self.histories])
        )

    def mean_time_to_accuracy(self, target: float) -> float:
        """Average simulated seconds to reach ``target`` test accuracy."""
        return float(
            np.mean(
                [
                    history.time_to_accuracy(target)
                    for history in self.histories
                ]
            )
        )

    def mean_final_loss(self) -> float:
        """Seed-averaged final global loss."""
        return float(
            np.mean([history.final_global_loss() for history in self.histories])
        )

    def mean_final_accuracy(self) -> float:
        """Seed-averaged final test accuracy."""
        return float(
            np.mean(
                [history.final_test_accuracy() for history in self.histories]
            )
        )

    def loss_at_time(self, timestamp: float) -> float:
        """Seed-averaged global loss at a simulated time (Figs. 5-7)."""
        values = [
            history.loss_at_times([timestamp])[0] for history in self.histories
        ]
        return float(np.nanmean(values))

    def accuracy_at_time(self, timestamp: float) -> float:
        """Seed-averaged test accuracy at a simulated time (Figs. 5-7)."""
        values = [
            history.accuracy_at_times([timestamp])[0]
            for history in self.histories
        ]
        return float(np.nanmean(values))


PricingComparison = Dict[str, SchemeResult]


def run_pricing_comparison(
    prepared: PreparedSetup,
    *,
    repeats: Optional[int] = None,
    schemes: Optional[Sequence[PricingScheme]] = None,
    train: bool = True,
    orchestrator=None,
    participation: Optional[ParticipationSpec] = None,
    exclude_zero: bool = False,
    algorithm=None,
) -> PricingComparison:
    """Compare pricing schemes on one prepared setup (the Fig.-4 engine).

    Each scheme's equilibrium participation vector is measured by
    ``repeats`` independent FL runs on the simulated testbed. Common random
    numbers across schemes: seed ``s`` gives every scheme the same
    participation-threshold and SGD-batch streams, so measured differences
    reflect the allocation of ``q``, not luck.

    Args:
        prepared: Output of :func:`repro.experiments.setup.prepare_setup`.
        repeats: Independent seeds per scheme (default: the scale profile's).
        schemes: Pricing schemes (default: proposed, weighted, uniform).
        train: When ``False``, only the game layer runs (no FL training) —
            enough for Table V and equilibrium-only analyses.
        orchestrator: An
            :class:`~repro.experiments.orchestrator.ExperimentOrchestrator`
            for parallel/cached execution; ``None`` runs serially uncached.
        participation: Optional round-process override for every training
            run (see :func:`run_history`); ``None`` keeps the paper's
            independent-Bernoulli path.
        exclude_zero: Preserve exact zeros in induced ``q`` vectors
            (deliberately excluded clients) instead of clipping them.
        algorithm: Local-update rule for every training run (see
            :func:`run_history`); ``None`` keeps the orchestrator's
            default (plain FedAvg unless it was built with another).

    Returns:
        Mapping scheme name to :class:`SchemeResult`.
    """
    orchestrator = orchestrator or _default_orchestrator()
    return orchestrator.run_comparison(
        prepared,
        repeats=repeats,
        schemes=schemes,
        train=train,
        participation=participation,
        exclude_zero=exclude_zero,
        algorithm=algorithm,
    )


@dataclass
class SweepPoint:
    """One point of a parameter sweep (Figs. 5-7)."""

    parameter: float
    result: SchemeResult


def sweep_mean_value(
    prepared: PreparedSetup,
    values: Sequence[float],
    *,
    repeats: int = 1,
    train: bool = True,
    orchestrator=None,
) -> List[SweepPoint]:
    """Sweep the mean intrinsic value (Fig. 5 / Table V)."""
    orchestrator = orchestrator or _default_orchestrator()
    return orchestrator.run_sweep(
        prepared, "mean_value", values, repeats=repeats, train=train
    )


def sweep_mean_cost(
    prepared: PreparedSetup,
    costs: Sequence[float],
    *,
    repeats: int = 1,
    train: bool = True,
    orchestrator=None,
) -> List[SweepPoint]:
    """Sweep the mean local cost (Fig. 6)."""
    orchestrator = orchestrator or _default_orchestrator()
    return orchestrator.run_sweep(
        prepared, "mean_cost", costs, repeats=repeats, train=train
    )


def sweep_budget(
    prepared: PreparedSetup,
    budgets: Sequence[float],
    *,
    repeats: int = 1,
    train: bool = True,
    orchestrator=None,
) -> List[SweepPoint]:
    """Sweep the server budget (Fig. 7)."""
    orchestrator = orchestrator or _default_orchestrator()
    return orchestrator.run_sweep(
        prepared, "budget", budgets, repeats=repeats, train=train
    )
