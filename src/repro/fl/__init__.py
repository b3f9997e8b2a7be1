"""Federated learning engine: participation, aggregation, training.

Implements Sec. III-A of the paper: ``R`` communication rounds in which
client ``n`` joins independently with probability ``q_n``, runs ``E`` local
SGD steps, and the server aggregates with the inclusion-probability-
corrected rule that keeps the global update unbiased for *any* ``q``.

Public symbols and their paper correspondence:

* :class:`FLServer` — holds ``w^r`` and applies aggregated deltas.
* :class:`FederatedTrainer` — the synchronous training loop producing
  Fig.-4 curves; wall-clock comes from a pluggable round timer (the
  simulated Raspberry-Pi testbed of Sec. VI-A). Each client's ``E``
  local iterations (Algorithm 1's client side) run as one row of a
  stacked batched-kernel call, bit-identical to
  :func:`~repro.models.optim.sgd_steps` on its shard with its own
  stream. :meth:`FederatedTrainer.run_group` advances several runs on
  one federation in lockstep (one set of kernel calls per round across
  all of them); :meth:`FederatedTrainer.run` is the one-run case, and
  each run's history is the same either way.
* :class:`RunState` — everything one training mutates (participation
  process, client SGD streams, server, algorithm state, clock, history,
  the fast tier's evaluation panel); its document form is the trainer's
  checkpoint.
* :class:`ExecutionSpec` — the trainer's execution knobs (stack width,
  precision, fast tier) as one frozen object that states which of them
  enter cache keys.
* :class:`TrainingHistory` / :class:`RoundRecord` /
  :func:`average_histories` — per-round records with the time-to-target
  queries behind Tables II/III and the seed-averaged curves of Fig. 4.
* :class:`Aggregator` / :class:`UnbiasedDeltaAggregator` — Lemma 1: scaling
  participant ``n``'s delta by ``W_n / q_n`` makes the aggregate an
  unbiased estimate of the full-participation update.
* :class:`ParticipantsOnlyAggregator` / :class:`NaiveInverseAggregator` —
  the biased baselines the unbiasedness ablation compares against.
* :class:`ParticipationModel` / :class:`BernoulliParticipation` — the
  paper's independent-Bernoulli(``q_n``) participation (Sec. III-A);
  :class:`FullParticipation`, :class:`FixedSubsetParticipation`,
  :class:`UniformSamplingParticipation`,
  :class:`CorrelatedParticipation`, and
  :class:`IntermittentAvailabilityParticipation` cover the comparison
  regimes from the partial-participation literature.
* :class:`ParticipationSpec` — declarative, hashable description of a
  participation process (``bernoulli | correlated | intermittent |
  dropout``); the scenario layer threads it through train jobs and cache
  keys. :class:`DropoutParticipation` models clients that fail *after*
  selection, folding the failure rate into the effective inclusion
  probability so Lemma-1 aggregation stays unbiased under faults.
* :class:`CheckpointConfig` / :class:`CheckpointManager` — periodic
  atomic round checkpoints; a killed run resumed from its latest
  checkpoint produces a bit-identical history.
* :func:`audit_participation` / :func:`empirical_participation_counts` /
  :class:`AuditReport` / :class:`ClientAudit` — verify that realized
  participation frequencies match the contracted ``q`` (the mechanism's
  enforcement side).
"""

from repro.fl.aggregation import (
    Aggregator,
    NaiveInverseAggregator,
    ParticipantsOnlyAggregator,
    UnbiasedDeltaAggregator,
)
from repro.fl.audit import (
    AuditReport,
    ClientAudit,
    audit_participation,
    empirical_participation_counts,
)
from repro.fl.checkpoint import CheckpointConfig, CheckpointManager
from repro.fl.execution import ExecutionSpec
from repro.fl.history import RoundRecord, TrainingHistory, average_histories
from repro.fl.participation import (
    BernoulliParticipation,
    CorrelatedParticipation,
    DropoutParticipation,
    FixedSubsetParticipation,
    FullParticipation,
    IntermittentAvailabilityParticipation,
    ParticipationModel,
    ParticipationSpec,
    UniformSamplingParticipation,
)
from repro.fl.server import FLServer
from repro.fl.state import RunState
from repro.fl.trainer import FederatedTrainer

__all__ = [
    "FLServer",
    "FederatedTrainer",
    "RunState",
    "ExecutionSpec",
    "TrainingHistory",
    "RoundRecord",
    "average_histories",
    "Aggregator",
    "UnbiasedDeltaAggregator",
    "ParticipantsOnlyAggregator",
    "NaiveInverseAggregator",
    "CheckpointConfig",
    "CheckpointManager",
    "ParticipationModel",
    "ParticipationSpec",
    "BernoulliParticipation",
    "CorrelatedParticipation",
    "DropoutParticipation",
    "FullParticipation",
    "FixedSubsetParticipation",
    "IntermittentAvailabilityParticipation",
    "UniformSamplingParticipation",
    "audit_participation",
    "empirical_participation_counts",
    "AuditReport",
    "ClientAudit",
]
