"""The synchronous federated training loop.

One :class:`FederatedTrainer` run reproduces one curve of the paper's Fig. 4:
clients join each round per a participation model, run ``E`` local SGD steps,
the server aggregates (unbiased by default), a timing model advances the
simulated clock, and metrics are recorded on an evaluation cadence.

Two compute backends produce **bit-identical** histories:

* ``"loop"`` — the reference semantics: each participating client runs its
  ``E`` local steps sequentially through the scalar model API.
* ``"vectorized"`` (default) — the participants' local SGD runs on stacked
  arrays through the batched model API; each client's mini-batch indices
  are pre-drawn from its *own* RNG stream, so the vectorized path consumes
  exactly the random numbers the loop path would. Clients whose shard is
  smaller than the batch size draw narrower batches and are grouped by
  batch width (the non-vectorizable escape hatch degrades to smaller
  stacks, never to different numbers).

``chunk_size`` bounds *memory* instead of picking an engine: the
vectorized round is processed in stacks of at most ``chunk_size``
participants (``None`` = :data:`DEFAULT_CHUNK_SIZE` on every federation
and tier), gathering only those clients' shards at a time, so peak
residency scales with the chunk width rather than the fleet size. Because
each stack slice is bit-identical to the scalar path, any chunking
produces the same histories; chunking is a pure memory/speed dial. How a
federation stores its shards never enters: a streaming federation
(:class:`~repro.datasets.streaming.StreamingFederatedDataset`) regenerates
a kernel group's shards in the one stacked fetch that gathers them, an
eager one concatenates its resident arrays.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms import AlgorithmSpec, build_algorithm
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
    sgd_steps,
)
from repro.utils.rng import RngFactory

# (participant_mask, round_index) -> seconds the round takes.
RoundTimer = Callable[[np.ndarray, int], float]

#: Default participants-per-stack (``chunk_size=None``), on every
#: federation and tier: the width that minimized per-client kernel cost in
#: a stack-size sweep of the batched kernel, pinned in code so no run
#: depends on a benchmark artifact.
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

    The trainer holds the shared inputs of a training; everything one
    training mutates lives in :attr:`state`, a
    :class:`~repro.fl.state.RunState` that is also the checkpoint
    document.

    Args:
        model: Shared model architecture.
        federated: Client shards plus the global test set.
        participation: Which clients show up each round (moves into
            :attr:`state`).
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
        rng_factory: Source of all client SGD randomness.
        initial_params: Override for ``w^0`` (defaults to the model's init).
        execution: How rounds execute — an
            :class:`~repro.fl.execution.ExecutionSpec`; ``None`` is the
            exact default. Its fields are also accepted as keywords
            (``backend="loop"``), which override it. A ``None`` chunk
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
            hooks that consume **zero** RNG draws, so every backend x
            chunk_size x storage combination stays bit-identical per
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
        if participation.num_clients != federated.num_clients:
            raise ValueError(
                f"participation model covers {participation.num_clients} "
                f"clients but the dataset has {federated.num_clients}"
            )
        if local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {local_steps}")
        if eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {eval_every}")
        execution = replace(execution or DEFAULT_EXECUTION, **knobs)
        self.backend = execution.backend
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
        # Fast-tier row cache (see the class docstring); empty and
        # untouched on the exact path.
        self._row_cache: "OrderedDict[int, Tuple[np.ndarray, np.ndarray]]"
        self._row_cache = OrderedDict()
        self._eval_panel = None
        self.model = model
        self.federated = federated
        self.schedule = schedule or ExponentialDecaySchedule()
        self.local_steps = int(local_steps)
        self.batch_size = int(batch_size)
        self.eval_every = int(eval_every)
        self.round_timer = round_timer or _unit_round_timer
        factory = rng_factory or RngFactory(0)
        self._rng_factory = factory
        server = FLServer(
            model.init_params() if initial_params is None else initial_params,
            federated.weights,
            aggregator or UnbiasedDeltaAggregator(),
        )
        # The algorithm strategy (plain FedAvg unless asked otherwise).
        # Bound to the fleet up front so FedDyn's per-client state exists
        # before any checkpoint restore shape-checks against it.
        strategy = build_algorithm(algorithm)
        strategy.bind(federated.num_clients, len(server.params))
        self.state = RunState(
            participation,
            # Every client's SGD stream, ("client", str(n), "sgd"),
            # derived in one pass.
            factory.make_many(
                "client", [str(n) for n in range(federated.num_clients)], "sgd"
            ),
            server,
            strategy,
        )

    def _evaluate(self, params: np.ndarray) -> dict:
        test = self.federated.test_dataset
        if self.fast and self.federated.num_clients > FAST_EVAL_SAMPLE:
            if self._eval_panel is None:
                # Drawn once from its own named stream (never touches the
                # client SGD or participation streams) and reused every
                # round, so the panel's shards stay cache-resident.
                self._eval_panel = draw_evaluation_panel(
                    self.federated.weights,
                    FAST_EVAL_SAMPLE,
                    self._rng_factory.make("fast-eval-panel"),
                )
            # The panel pass runs in the working dtype: with float32 the
            # scoring matmuls ride the same float32 rows the SGD kernels
            # cache (no float64 re-materialization of panel shards), at
            # statistical-equivalence accuracy like the kernels
            # themselves. float64 passes dtype=None and is bit-unchanged.
            subsampled = subsampled_global_loss(
                self.model,
                params,
                self.federated,
                self._eval_panel,
                arrays=self._stacked_rows,
                dtype=None if self.dtype == np.float64 else self.dtype,
            )
            self.state.last_subsampled_loss = subsampled
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

        One stacked fetch stages just the group's shards (amortized over
        ``E`` steps), so the kernel's per-step gathers read a region sized
        to the group rather than the fleet. The pool follows the working
        precision, so a float32 trainer runs float32 GEMMs even over
        float64 shards.
        """
        features, labels = self._stacked_rows(ids)
        offsets = np.cumsum(self._sizes[ids]) - self._sizes[ids]
        return features.astype(self.dtype, copy=False), labels, offsets

    # Local-update engines ---------------------------------------------------

    def _local_updates_loop(
        self, global_params: np.ndarray, step_size: float, active: List[int]
    ) -> Dict[int, np.ndarray]:
        """Reference engine: sequential per-client local SGD."""
        algorithm = self.state.algorithm
        updated = {}
        for client_id in active:
            # One arrays() call: a streaming shard regenerates per fetch.
            features, labels = self.federated.client_datasets[
                client_id
            ].arrays()
            updated[client_id] = sgd_steps(
                self.model,
                global_params,
                features,
                labels,
                step_size=step_size,
                num_steps=self.local_steps,
                batch_size=self.batch_size,
                rng=self.state.streams[client_id],
                **algorithm.loop_kwargs(global_params, client_id),
            )
        return updated

    def _local_updates_chunked(
        self, global_params: np.ndarray, step_size: float, active: List[int]
    ) -> Dict[int, np.ndarray]:
        """Stacked engine: participants' local SGD as batched kernels.

        Consumes exactly the loop engine's random draws: participating
        clients are visited in ascending client order, and each pre-draws
        its whole round of mini-batch indices from its own stream through
        :func:`~repro.models.optim.draw_batch_indices`, the draw
        :func:`~repro.models.optim.sgd_steps` makes. The active cohort is
        processed ``chunk_size`` clients at a time; within a chunk,
        clients are grouped by effective batch width (shards smaller than
        the batch size draw narrower batches) and each group's ``E`` steps
        run on a ``(group, width, features)`` stack over a pool holding
        just that group's shards. Peak residency is
        ``O(chunk_size x max shard)`` plus the kernel workspace; with a
        streaming federation the gathered shards are regenerated on demand
        and released once the chunk is done. Because every stack slice is
        bit-identical to the scalar path, every chunking returns exactly
        the loop engine's updates.
        """
        algorithm = self.state.algorithm
        streams = self.state.streams
        params0 = np.asarray(global_params, dtype=self.dtype)
        updated: Dict[int, np.ndarray] = {}
        for start in range(0, len(active), self.chunk_size):
            groups: Dict[int, Tuple[List[int], List[np.ndarray]]] = {}
            for client_id in active[start:start + self.chunk_size]:
                indices = draw_batch_indices(
                    streams[client_id],
                    self._sizes[client_id],
                    self.local_steps,
                    self.batch_size,
                )
                ids, draws = groups.setdefault(indices.shape[1], ([], []))
                ids.append(client_id)
                draws.append(indices)
            for ids, draws in groups.values():
                pool_features, pool_labels, pool_offsets = self._member_pool(
                    ids
                )
                algorithm_kwargs = {}
                if algorithm.has_local_terms:
                    algorithm_kwargs = algorithm.stacked_kwargs(
                        params0, ids, self.dtype
                    )
                params_stack = self.model.batched_sgd_steps(
                    np.repeat(params0[None, :], len(ids), axis=0),
                    pool_features,
                    pool_labels,
                    np.stack(draws) + pool_offsets[:, None, None],
                    step_size=step_size,
                    **algorithm_kwargs,
                )
                for row, client_id in enumerate(ids):
                    updated[client_id] = params_stack[row]
        # Ascending client id, like the loop engine (the sequential delta
        # aggregation depends on this order for bit-identity).
        return {client_id: updated[client_id] for client_id in active}

    def _local_updates(
        self, global_params: np.ndarray, step_size: float, active: List[int]
    ) -> Dict[int, np.ndarray]:
        # The server holds float64 state regardless of precision; cast the
        # broadcast parameters once per round so every engine's kernels run
        # in the working dtype (a float64 -> float64 cast is a no-op).
        global_params = np.asarray(global_params, dtype=self.dtype)
        if self.backend == "vectorized":
            return self._local_updates_chunked(
                global_params, step_size, active
            )
        return self._local_updates_loop(global_params, step_size, active)

    def run(
        self,
        num_rounds: int,
        *,
        checkpoint: Optional[CheckpointConfig] = None,
    ) -> TrainingHistory:
        """Train for ``num_rounds`` rounds and return the recorded history.

        The round-0 state (before any update) is recorded first so
        time-to-target queries see the full curve. Each call advances
        :attr:`state` one round at a time from a fresh clock and history
        at round index 0; the model, streams, participation and algorithm
        state carry over from the previous call.

        Args:
            num_rounds: Communication rounds to run.
            checkpoint: When given, save a resumable snapshot every
                ``checkpoint.every`` completed rounds and — if
                ``checkpoint.resume`` — continue from the newest readable
                checkpoint in ``checkpoint.directory``. A resumed run
                replays the remaining rounds with exactly the random
                draws and arithmetic of an uninterrupted one, so the
                returned history is bit-identical (any backend, any
                chunking).
        """
        if num_rounds < 1:
            raise ValueError(f"num_rounds must be >= 1, got {num_rounds}")
        manager = (
            CheckpointManager(checkpoint) if checkpoint is not None else None
        )
        state = self.state
        shape = {
            "precision": self.dtype.name,
            "fingerprint": self._config_fingerprint(),
        }
        resumed = None
        if manager is not None and checkpoint.resume:
            resumed = manager.latest_doc()
        if resumed is not None:
            state.restore(resumed, num_rounds, **shape)
        else:
            state.restart()
            state.history.append(
                RoundRecord(
                    round_index=-1,
                    sim_time=0.0,
                    num_participants=0,
                    step_size=float(self.schedule(0)),
                    **self._evaluate(state.server.params),
                )
            )
        algorithm = state.algorithm
        q = state.participation.inclusion_probabilities
        for round_index in range(state.next_round, num_rounds):
            step_size = float(self.schedule(round_index))
            mask = state.participation.sample_round(round_index)
            active = np.flatnonzero(mask).tolist()
            global_params = state.server.params
            local_params = self._local_updates(
                global_params, step_size, active
            )
            if not algorithm.is_plain:
                # FedDyn advances each participant's h-state from its
                # float64 local update (state evolves in float64 like the
                # server does, whatever the kernel precision).
                algorithm.post_local(global_params, local_params)
            state.server.apply_round(local_params, q)
            if algorithm.spec.beta > 0:
                adjusted = algorithm.server_update(
                    global_params, state.server.params
                )
                if adjusted is not None:
                    state.server.restore(adjusted, state.server.round_index)
            state.sim_time += float(self.round_timer(mask, round_index))

            is_last = round_index == num_rounds - 1
            if round_index % self.eval_every == 0 or is_last:
                metrics = self._evaluate(state.server.params)
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
            if manager is not None and manager.due(round_index, num_rounds):
                manager.save(state.to_doc(num_rounds, **shape))
        return state.history

    def _config_fingerprint(self) -> dict:
        """Trainer shape a checkpoint must match to be resumable.

        ``backend`` and ``chunk_size`` are deliberately absent: every
        backend x chunking consumes identical random draws (the
        determinism contract), so a checkpoint taken on one resumes
        bit-identically on any other.
        """
        return {
            "num_clients": self.federated.num_clients,
            "local_steps": self.local_steps,
            "eval_every": self.eval_every,
            "batch_size": self.batch_size,
        }
