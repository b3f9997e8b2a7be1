"""The synchronous federated training loop.

One training run reproduces one curve of the paper's Fig. 4: clients join
each round per a participation model, run ``E`` local SGD steps, the
server aggregates (unbiased by default), a timing model advances the
simulated clock, and metrics are recorded on an evaluation cadence.

A :class:`FederatedTrainer` holds what a comparison's trainings share
(the model, the federation, the schedule, the engine settings); each
training's mutable state is one :class:`~repro.fl.state.RunState`.
:meth:`FederatedTrainer.run_group` advances a list of states in
**lockstep**: every round, each state draws its own participation mask
and its participants' mini-batch indices from its own streams, and the
``(run, client)`` rows of all of them run as rows of the same stacked
:meth:`~repro.models.base.Model.batched_sgd_steps` calls, each row from
its own run's global parameters. Each run then aggregates its own rows in
ascending client order and evaluates as a lone run would.
:meth:`FederatedTrainer.run` is the one-state case.

There is one local-update engine, and it is bit-identical to the
per-client reference :func:`~repro.models.optim.sgd_steps` on the same
draws: each row pre-draws its whole round of batch indices through
:func:`~repro.models.optim.draw_batch_indices`, the draw ``sgd_steps``
makes, and a row's result does not depend on which other rows share its
stack. So a run's history is the same alone or in any group, and
``chunk_size`` bounds *memory* without changing numbers: rows are
processed in stacks of at most ``chunk_size`` (``None`` =
:data:`DEFAULT_CHUNK_SIZE`), gathering only those clients' shards at a
time, so peak residency scales with the chunk width rather than the fleet
size. Rows whose shard is smaller than the batch size draw narrower
batches and are stacked by batch width. How a federation stores its
shards never enters: a streaming federation
(:class:`~repro.datasets.streaming.StreamingFederatedDataset`) regenerates
a kernel group's shards in the one stacked fetch that gathers them, an
eager one concatenates its resident arrays; a client that several runs of
a group train in the same stack is fetched once.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from itertools import groupby
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms import AlgorithmSpec, build_algorithm, coerce_algorithm
from repro.datasets.base import stack_rows
from repro.datasets.federated import FederatedDataset
from repro.fl.aggregation import Aggregator, UnbiasedDeltaAggregator
from repro.fl.checkpoint import CheckpointConfig, CheckpointManager
from repro.fl.execution import DEFAULT_EXECUTION, ExecutionSpec
from repro.fl.history import RoundRecord, TrainingHistory
from repro.fl.participation import ParticipationModel
from repro.fl.server import FLServer
from repro.fl.state import RunState
from repro.models.base import Model
from repro.models.metrics import (
    draw_evaluation_panel,
    global_loss,
    subsampled_global_loss,
)
from repro.models.optim import (
    ExponentialDecaySchedule,
    LearningRateSchedule,
    draw_batch_indices,
)
from repro.utils.rng import RngFactory

# (participant_mask, round_index) -> seconds the round takes.
RoundTimer = Callable[[np.ndarray, int], float]

#: Default rows per stack (``chunk_size=None``), on every federation and
#: tier: the width that minimized per-client kernel cost in a stack-size
#: sweep of the batched kernel, pinned in code so no run depends on a
#: benchmark artifact.
DEFAULT_CHUNK_SIZE = 32

#: Importance draws per sub-sampled evaluation (fast tier); fleets at or
#: below this size are still scored exactly.
FAST_EVAL_SAMPLE = 256

#: Fast-tier row cache capacity (clients whose dtype-cast shard rows stay
#: resident across rounds; the only shard cache in the library).
FAST_ROW_CACHE_CLIENTS = 4096


def _unit_round_timer(mask: np.ndarray, round_index: int) -> float:
    """Fallback timer: every round costs one simulated second."""
    return 1.0


class FederatedTrainer:
    """End-to-end federated training with randomized participation.

    The trainer holds the shared inputs of one or more trainings; what
    one training mutates lives in a :class:`~repro.fl.state.RunState`,
    which is also its checkpoint document. :attr:`state` is the run the
    constructor's ``participation`` and ``rng_factory`` describe;
    :meth:`make_state` adds more runs on the same federation and model,
    and :meth:`run_group` trains any list of them in lockstep.

    Args:
        model: Shared model architecture.
        federated: Client shards plus the global test set.
        participation: Which clients show up each round in :attr:`state`.
        aggregator: Aggregation rule (default: Lemma-1 unbiased).
        schedule: Per-round learning rate; defaults to the paper's
            experimental schedule (0.1 decayed by 0.996).
        local_steps: Local SGD iterations ``E`` (paper: 100).
        batch_size: Local mini-batch size (paper: 24).
        round_timer: Maps a participation mask to the round's simulated
            duration; plug in
            :meth:`repro.simulation.runtime.TestbedRuntime.round_timer`
            to get Raspberry-Pi-testbed seconds. Defaults to one second per
            round.
        eval_every: Evaluate global loss / test metrics every this many
            rounds (evaluations are the expensive part of a simulated run).
        rng_factory: Source of all of :attr:`state`'s client SGD
            randomness.
        initial_params: Override for ``w^0`` (defaults to the model's
            init), shared by every state.
        execution: How rounds execute — an
            :class:`~repro.fl.execution.ExecutionSpec`; ``None`` is the
            exact default. Its fields are also accepted as keywords
            (``chunk_size=2``), which override it. A ``None`` chunk
            size means :data:`DEFAULT_CHUNK_SIZE`. The fast tier
            caches dtype-cast shard rows in a trainer-level LRU (the exact
            tier regenerates a streaming shard on every fetch) and
            scores large fleets with
            :func:`repro.models.metrics.subsampled_global_loss`.
        algorithm: Which local-update rule trains each round — an
            :class:`~repro.algorithms.AlgorithmSpec`, a CLI string
            (``"fedprox:mu=0.05"``), or ``None`` for the plain-FedAvg
            default. The default takes byte-for-byte the historical code
            path; non-default algorithms add gradient terms and state
            hooks that consume **zero** RNG draws, so every chunk_size x
            storage x group combination stays bit-identical per
            algorithm (see :mod:`repro.algorithms`).
    """

    def __init__(
        self,
        model: Model,
        federated: FederatedDataset,
        participation: ParticipationModel,
        *,
        aggregator: Optional[Aggregator] = None,
        schedule: Optional[LearningRateSchedule] = None,
        local_steps: int = 100,
        batch_size: int = 24,
        round_timer: Optional[RoundTimer] = None,
        eval_every: int = 10,
        rng_factory: Optional[RngFactory] = None,
        initial_params: Optional[np.ndarray] = None,
        algorithm: Optional[AlgorithmSpec] = None,
        execution: Optional[ExecutionSpec] = None,
        **knobs,
    ):
        if local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {local_steps}")
        if eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {eval_every}")
        execution = replace(execution or DEFAULT_EXECUTION, **knobs)
        self.dtype = np.dtype(execution.precision)
        self.fast = execution.fast
        self.chunk_size = (
            DEFAULT_CHUNK_SIZE
            if execution.chunk_size is None
            else execution.chunk_size
        )
        self._sizes = np.asarray(federated.sizes, dtype=int)
        empty = np.flatnonzero(self._sizes == 0)
        if empty.size:
            raise ValueError(f"client {empty[0]} has an empty dataset")
        # Fast-tier row cache (see the class docstring), shared by every
        # state; empty and untouched on the exact path.
        self._row_cache: "OrderedDict[int, Tuple[np.ndarray, np.ndarray]]"
        self._row_cache = OrderedDict()
        self.model = model
        self.federated = federated
        self.schedule = schedule or ExponentialDecaySchedule()
        self.local_steps = int(local_steps)
        self.batch_size = int(batch_size)
        self.eval_every = int(eval_every)
        self.round_timer = round_timer or _unit_round_timer
        self._aggregator = aggregator or UnbiasedDeltaAggregator()
        self._initial_params = (
            model.init_params() if initial_params is None else initial_params
        )
        self._algorithm = coerce_algorithm(algorithm)
        self.state = self.make_state(participation, rng_factory)

    def make_state(
        self,
        participation: ParticipationModel,
        rng_factory: Optional[RngFactory] = None,
    ) -> RunState:
        """A fresh run on this trainer's federation and model.

        The run starts from the shared ``w^0`` under this trainer's
        algorithm, with ``participation`` as its round process and every
        client's SGD stream, ``("client", str(n), "sgd")``, derived from
        ``rng_factory`` (default ``RngFactory(0)``) in one pass.
        """
        federated = self.federated
        if participation.num_clients != federated.num_clients:
            raise ValueError(
                f"participation model covers {participation.num_clients} "
                f"clients but the dataset has {federated.num_clients}"
            )
        factory = rng_factory or RngFactory(0)
        server = FLServer(
            self._initial_params, federated.weights, self._aggregator
        )
        # Bound to the fleet up front so FedDyn's per-client state exists
        # before any checkpoint restore shape-checks against it.
        strategy = build_algorithm(self._algorithm)
        strategy.bind(federated.num_clients, len(server.params))
        panel = None
        if self.fast and federated.num_clients > FAST_EVAL_SAMPLE:
            # Drawn once from its own named stream (never touches the
            # client SGD or participation streams) and reused every
            # round, so the panel's shards stay cache-resident.
            panel = draw_evaluation_panel(
                federated.weights,
                FAST_EVAL_SAMPLE,
                factory.make("fast-eval-panel"),
            )
        return RunState(
            participation,
            factory.make_many(
                "client", [str(n) for n in range(federated.num_clients)], "sgd"
            ),
            server,
            strategy,
            panel,
        )

    def _evaluate(self, state: RunState, params: np.ndarray) -> dict:
        test = self.federated.test_dataset
        if state.eval_panel is not None:
            # The panel pass runs in the working dtype: with float32 the
            # scoring matmuls ride the same float32 rows the SGD kernels
            # cache (no float64 re-materialization of panel shards), at
            # statistical-equivalence accuracy like the kernels
            # themselves. float64 passes dtype=None and is bit-unchanged.
            subsampled = subsampled_global_loss(
                self.model,
                params,
                self.federated,
                state.eval_panel,
                arrays=self._stacked_rows,
                dtype=None if self.dtype == np.float64 else self.dtype,
            )
            state.last_subsampled_loss = subsampled
            objective = subsampled.estimate
        else:
            objective = global_loss(self.model, params, self.federated)
        return {
            "global_loss": objective,
            "test_loss": self.model.dataset_loss(params, test),
            "test_accuracy": self.model.dataset_accuracy(params, test),
        }

    # Shard staging ----------------------------------------------------------

    def _stacked_rows(
        self, client_ids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The listed clients' shard rows, stacked in list order.

        The exact path is one ``federated.stacked_arrays`` fetch (a
        streaming federation regenerates the whole list in one synthesis
        call). The fast tier keeps up to :data:`FAST_ROW_CACHE_CLIENTS`
        clients' dtype-cast rows resident across rounds: the LRU serves
        its hits and fetches every miss in one stacked call, so repeat
        participants skip both the regeneration and the cast. Each miss is
        cached as its own cast copy, so no cached entry keeps a whole
        stack alive. The streaming provider itself caches nothing.
        """
        if not self.fast:
            return self.federated.stacked_arrays(client_ids)
        ids = [int(client_id) for client_id in client_ids]
        rows = {i: self._row_cache[i] for i in ids if i in self._row_cache}
        misses = [i for i in dict.fromkeys(ids) if i not in rows]
        if misses:
            features, labels = self.federated.stacked_arrays(misses)
            sizes = self._sizes[misses]
            for client_id, end, size in zip(misses, np.cumsum(sizes), sizes):
                rows[client_id] = (
                    features[end - size:end].astype(self.dtype),
                    labels[end - size:end].copy(),
                )
        # Same recency order as serving the list one client at a time.
        for client_id in ids:
            self._row_cache[client_id] = rows[client_id]
            self._row_cache.move_to_end(client_id)
        while len(self._row_cache) > FAST_ROW_CACHE_CLIENTS:
            self._row_cache.popitem(last=False)
        return stack_rows(
            [rows[client_id] for client_id in ids],
            self.federated.num_features,
        )

    def _member_pool(
        self, ids: List[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked ``(features, labels, offsets)`` pool for a kernel group.

        One stacked fetch stages just the group's distinct clients
        (amortized over ``E`` steps), so the kernel's per-step gathers read
        a region sized to the group rather than the fleet; ``offsets[k]``
        is where row ``k``'s client starts in the pool, so rows of several
        runs that train the same client share its one copy. The pool
        follows the working precision, so a float32 trainer runs float32
        GEMMs even over float64 shards.
        """
        distinct = list(dict.fromkeys(ids))
        features, labels = self._stacked_rows(distinct)
        sizes = self._sizes[distinct]
        start = dict(zip(distinct, (np.cumsum(sizes) - sizes).tolist()))
        offsets = np.array([start[client_id] for client_id in ids])
        return features.astype(self.dtype, copy=False), labels, offsets

    # The local-update engine ------------------------------------------------

    def _local_terms(
        self,
        states: Sequence[RunState],
        runs: List[int],
        ids: List[int],
        centers: np.ndarray,
    ) -> dict:
        """The algorithm's kernel keywords for one stack of rows.

        Row ``k`` is client ``ids[k]`` of run ``runs[k]``, starting from
        ``centers[k]``. A run's rows are contiguous, so each run's
        strategy supplies the terms of its own rows (FedDyn reads its own
        ``h``) and the per-row arrays are concatenated in row order.
        """
        if not self._algorithm.has_local_terms:
            return {}
        parts, end = [], 0
        for run, rows in groupby(runs):
            begin, end = end, end + len(list(rows))
            parts.append(
                states[run].algorithm.stacked_kwargs(
                    centers[begin:end], ids[begin:end], self.dtype
                )
            )
        if len(parts) == 1:
            return parts[0]
        return {
            name: (
                np.concatenate([part[name] for part in parts])
                if isinstance(value, np.ndarray)
                else value
            )
            for name, value in parts[0].items()
        }

    def _local_updates(
        self,
        states: Sequence[RunState],
        global_params: Sequence[np.ndarray],
        actives: Sequence[List[int]],
        step_size: float,
    ) -> List[Dict[int, np.ndarray]]:
        """One round of every listed run's local SGD, as batched kernels.

        Each run's participants (``actives[k]``, ascending) pre-draw their
        whole round of mini-batch indices from their own streams through
        :func:`~repro.models.optim.draw_batch_indices`, the draw
        :func:`~repro.models.optim.sgd_steps` makes. The rows of all runs,
        run by run, are processed ``chunk_size`` at a time; within a
        chunk, rows are grouped by effective batch width (shards smaller
        than the batch size draw narrower batches) and each group's ``E``
        steps run as one ``(rows, width, features)`` stack over a pool
        holding just that group's shards, each row from its own run's
        round-start parameters. Peak residency is
        ``O(chunk_size x max shard)`` plus the kernel workspace; with a
        streaming federation the gathered shards are regenerated on demand
        and released once the chunk is done. Every stack row is
        bit-identical to ``sgd_steps`` on the same draws, so every
        chunking and every grouping of runs returns the same updates.

        Returns one ``{client: params}`` dict per run, in ascending client
        order (the sequential delta aggregation depends on this order for
        bit-identity).
        """
        # The server holds float64 state regardless of precision; the
        # kernels run in the working dtype (a float64 cast is a no-op).
        starts = np.array(global_params, dtype=self.dtype)
        rows = [
            (run, client_id)
            for run, active in enumerate(actives)
            for client_id in active
        ]
        updated: List[Dict[int, np.ndarray]] = [{} for _ in actives]
        for start in range(0, len(rows), self.chunk_size):
            groups: Dict[int, List[Tuple[int, int, np.ndarray]]] = {}
            for run, client_id in rows[start:start + self.chunk_size]:
                indices = draw_batch_indices(
                    states[run].streams[client_id],
                    self._sizes[client_id],
                    self.local_steps,
                    self.batch_size,
                )
                groups.setdefault(indices.shape[1], []).append(
                    (run, client_id, indices)
                )
            for members in groups.values():
                runs = [run for run, _, _ in members]
                ids = [client_id for _, client_id, _ in members]
                pool_features, pool_labels, pool_offsets = self._member_pool(
                    ids
                )
                batch_indices = np.stack([indices for _, _, indices in members])
                batch_indices += pool_offsets[:, None, None]
                centers = starts[runs]
                params_stack = self.model.batched_sgd_steps(
                    centers,
                    pool_features,
                    pool_labels,
                    batch_indices,
                    step_size=step_size,
                    **self._local_terms(states, runs, ids, centers),
                )
                for row, (run, client_id) in enumerate(zip(runs, ids)):
                    updated[run][client_id] = params_stack[row]
        return [
            {client_id: done[client_id] for client_id in active}
            for done, active in zip(updated, actives)
        ]

    # Training ---------------------------------------------------------------

    def run(
        self,
        num_rounds: int,
        *,
        checkpoint: Optional[CheckpointConfig] = None,
    ) -> TrainingHistory:
        """Train :attr:`state` for ``num_rounds`` rounds; the one-run case
        of :meth:`run_group`.

        Each call advances :attr:`state` from a fresh clock and history at
        round index 0; the model, streams, participation and algorithm
        state carry over from the previous call.

        Args:
            num_rounds: Communication rounds to run.
            checkpoint: When given, save a resumable snapshot every
                ``checkpoint.every`` completed rounds and — if
                ``checkpoint.resume`` — continue from the newest readable
                checkpoint in ``checkpoint.directory``. A resumed run
                replays the remaining rounds with exactly the random
                draws and arithmetic of an uninterrupted one, so the
                returned history is bit-identical (any chunking, alone or
                in a group).
        """
        [history] = self.run_group(
            [self.state], num_rounds, checkpoints=[checkpoint]
        )
        return history

    def run_group(
        self,
        states: Sequence[RunState],
        num_rounds: int,
        *,
        checkpoints: Optional[Sequence[Optional[CheckpointConfig]]] = None,
    ) -> List[TrainingHistory]:
        """Train several runs in lockstep; returns one history per state.

        ``states`` are this trainer's (:attr:`state` and
        :meth:`make_state` results). Every state's history is
        bit-identical to training it alone with :meth:`run`: the runs
        share only the stacked kernel calls, whose rows do not depend on
        each other. The round-0 state (before any update) is recorded
        first so time-to-target queries see the full curve.

        Args:
            states: The runs to advance, each from a fresh clock and
                history at round index 0 (or from its checkpoint).
            num_rounds: Communication rounds of every run.
            checkpoints: One optional
                :class:`~repro.fl.checkpoint.CheckpointConfig` per state
                (see :meth:`run`), each with its own directory. Runs that
                resume at different rounds are each played from their own
                next round: a run waits until the group's round index
                reaches it, then moves in lockstep with the others.
        """
        if num_rounds < 1:
            raise ValueError(f"num_rounds must be >= 1, got {num_rounds}")
        states = list(states)
        if checkpoints is None:
            checkpoints = [None] * len(states)
        if len(checkpoints) != len(states):
            raise ValueError(
                f"{len(checkpoints)} checkpoint configs for "
                f"{len(states)} states"
            )
        managers = [
            None if checkpoint is None else CheckpointManager(checkpoint)
            for checkpoint in checkpoints
        ]
        shape = {
            "precision": self.dtype.name,
            "fingerprint": self._config_fingerprint(),
        }
        for state, manager in zip(states, managers):
            resumed = None
            if manager is not None and manager.config.resume:
                resumed = manager.latest_doc()
            if resumed is not None:
                state.restore(resumed, num_rounds, **shape)
                continue
            state.restart()
            state.history.append(
                RoundRecord(
                    round_index=-1,
                    sim_time=0.0,
                    num_participants=0,
                    step_size=float(self.schedule(0)),
                    **self._evaluate(state, state.server.params),
                )
            )
        inclusion = [
            state.participation.inclusion_probabilities for state in states
        ]
        first = min((state.next_round for state in states), default=num_rounds)
        for round_index in range(first, num_rounds):
            playing = [
                index
                for index, state in enumerate(states)
                if state.next_round == round_index
            ]
            step_size = float(self.schedule(round_index))
            masks = [
                states[index].participation.sample_round(round_index)
                for index in playing
            ]
            actives = [np.flatnonzero(mask).tolist() for mask in masks]
            global_params = [states[index].server.params for index in playing]
            local_params = self._local_updates(
                [states[index] for index in playing],
                global_params,
                actives,
                step_size,
            )
            for index, mask, active, before, local in zip(
                playing, masks, actives, global_params, local_params
            ):
                state = states[index]
                algorithm = state.algorithm
                if not algorithm.is_plain:
                    # FedDyn advances each participant's h-state from its
                    # float64 local update (state evolves in float64 like
                    # the server does, whatever the kernel precision).
                    algorithm.post_local(before, local)
                state.server.apply_round(local, inclusion[index])
                if algorithm.spec.beta > 0:
                    adjusted = algorithm.server_update(
                        before, state.server.params
                    )
                    if adjusted is not None:
                        state.server.restore(
                            adjusted, state.server.round_index
                        )
                state.sim_time += float(self.round_timer(mask, round_index))

                is_last = round_index == num_rounds - 1
                if round_index % self.eval_every == 0 or is_last:
                    metrics = self._evaluate(state, state.server.params)
                else:
                    metrics = {}
                state.history.append(
                    RoundRecord(
                        round_index=round_index,
                        sim_time=state.sim_time,
                        num_participants=len(active),
                        step_size=step_size,
                        participants=tuple(active),
                        **metrics,
                    )
                )
                state.next_round = round_index + 1
                manager = managers[index]
                if manager is not None and manager.due(round_index, num_rounds):
                    manager.save(state.to_doc(num_rounds, **shape))
        return [state.history for state in states]

    def _config_fingerprint(self) -> dict:
        """Trainer shape a checkpoint must match to be resumable.

        ``chunk_size`` is deliberately absent: every chunking and every
        grouping of runs consumes identical random draws (the determinism
        contract), so a checkpoint taken on one resumes bit-identically on
        any other.
        """
        return {
            "num_clients": self.federated.num_clients,
            "local_steps": self.local_steps,
            "eval_every": self.eval_every,
            "batch_size": self.batch_size,
        }
