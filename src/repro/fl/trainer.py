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
each shard inside the chunk gather that asks for it, an eager one hands
out its resident arrays.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms import DEFAULT_ALGORITHM, AlgorithmSpec, build_algorithm
from repro.datasets.federated import FederatedDataset
from repro.fl.aggregation import Aggregator, UnbiasedDeltaAggregator
from repro.fl.checkpoint import (
    ACCEPTED_CHECKPOINT_FORMATS,
    CHECKPOINT_FORMAT,
    CheckpointConfig,
    CheckpointManager,
)
from repro.fl.client import FLClient
from repro.fl.execution import DEFAULT_EXECUTION, ExecutionSpec
from repro.fl.history import RoundRecord, TrainingHistory
from repro.fl.participation import ParticipationModel
from repro.fl.server import FLServer
from repro.models.base import Model
from repro.models.metrics import (
    draw_evaluation_panel,
    global_loss,
    subsampled_global_loss,
)
from repro.models.optim import ExponentialDecaySchedule, LearningRateSchedule
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

    Args:
        model: Shared model architecture.
        federated: Client shards plus the global test set.
        participation: Which clients show up each round.
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
        # Fast-tier row cache (see the class docstring); empty and
        # untouched on the exact path.
        self._row_cache: "OrderedDict[int, Tuple[np.ndarray, np.ndarray]]"
        self._row_cache = OrderedDict()
        self._eval_panel = None
        #: Diagnostics of the most recent sub-sampled evaluation (None on
        #: the exact path).
        self.last_subsampled_loss = None
        self.model = model
        self.federated = federated
        self.participation = participation
        self.schedule = schedule or ExponentialDecaySchedule()
        self.local_steps = int(local_steps)
        self.eval_every = int(eval_every)
        self.round_timer = round_timer or _unit_round_timer
        factory = rng_factory or RngFactory(0)
        self._rng_factory = factory
        self.clients = [
            FLClient(
                client_id,
                shard,
                model,
                batch_size=batch_size,
                rng_factory=factory,
            )
            for client_id, shard in enumerate(federated.client_datasets)
        ]
        params0 = (
            model.init_params() if initial_params is None else initial_params
        )
        self.server = FLServer(
            params0,
            federated.weights,
            aggregator or UnbiasedDeltaAggregator(),
        )
        # The algorithm strategy (plain FedAvg unless asked otherwise).
        # Bound to the fleet up front so FedDyn's per-client state exists
        # before any checkpoint restore shape-checks against it.
        self._algorithm = build_algorithm(algorithm)
        self._algorithm.bind(federated.num_clients, len(self.server.params))
        self.algorithm_spec = self._algorithm.spec

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
                arrays=self._rows_by_id,
                dtype=None if self.dtype == np.float64 else self.dtype,
            )
            self.last_subsampled_loss = subsampled
            objective = subsampled.estimate
        else:
            objective = global_loss(self.model, params, self.federated)
        return {
            "global_loss": objective,
            "test_loss": self.model.dataset_loss(params, test),
            "test_accuracy": self.model.dataset_accuracy(params, test),
        }

    # Shard staging ----------------------------------------------------------

    def _client_rows(self, client: FLClient) -> Tuple[np.ndarray, np.ndarray]:
        """A client's shard rows, dtype-cast and LRU-cached in fast mode.

        The exact path goes straight to the shard (one ``arrays()`` call);
        the fast tier keeps up to :data:`FAST_ROW_CACHE_CLIENTS` clients'
        cast rows resident across rounds — repeat participants skip both
        the regeneration and the cast. The streaming provider itself
        caches nothing.
        """
        if not self.fast:
            return client.dataset.arrays()
        cached = self._row_cache.get(client.client_id)
        if cached is not None:
            self._row_cache.move_to_end(client.client_id)
            return cached
        features, labels = client.dataset.arrays()
        if features.dtype != self.dtype:
            features = features.astype(self.dtype)
        self._row_cache[client.client_id] = (features, labels)
        while len(self._row_cache) > FAST_ROW_CACHE_CLIENTS:
            self._row_cache.popitem(last=False)
        return features, labels

    def _rows_by_id(self, client_id: int) -> Tuple[np.ndarray, np.ndarray]:
        return self._client_rows(self.clients[client_id])

    def _member_pool(self, members) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked ``(features, labels, offsets)`` pool for a kernel group.

        Only the group's shards are staged (one sequential copy per
        member, amortized over ``E`` steps), so the kernel's per-step
        gathers read a region sized to the group rather than the fleet.
        The pool follows the working precision (assignment casts), so a
        float32 trainer runs float32 GEMMs even over float64 shards.
        """
        shard_sizes = [client.num_samples for client, _ in members]
        pool_size = int(np.sum(shard_sizes))
        pool_features = np.empty(
            (pool_size, self.federated.num_features), dtype=self.dtype
        )
        pool_labels = np.empty(pool_size, dtype=int)
        pool_offsets = np.empty(len(members), dtype=int)
        position = 0
        for row, (client, _) in enumerate(members):
            size = shard_sizes[row]
            # One fetch per shard: every fetch of a lazy shard
            # regenerates it.
            features, labels = self._client_rows(client)
            pool_features[position:position + size] = features
            pool_labels[position:position + size] = labels
            pool_offsets[row] = position
            position += size
        return pool_features, pool_labels, pool_offsets

    # Local-update engines ---------------------------------------------------

    def _local_updates_loop(
        self, global_params: np.ndarray, step_size: float, mask: np.ndarray
    ) -> Dict[int, np.ndarray]:
        """Reference engine: sequential per-client local SGD."""
        if self._algorithm.has_local_terms:
            return {
                client.client_id: client.local_update(
                    global_params,
                    step_size=step_size,
                    num_steps=self.local_steps,
                    **self._algorithm.loop_kwargs(
                        global_params, client.client_id
                    ),
                )
                for client in self.clients
                if mask[client.client_id]
            }
        return {
            client.client_id: client.local_update(
                global_params,
                step_size=step_size,
                num_steps=self.local_steps,
            )
            for client in self.clients
            if mask[client.client_id]
        }

    def _local_updates_chunked(
        self, global_params: np.ndarray, step_size: float, mask: np.ndarray
    ) -> Dict[int, np.ndarray]:
        """Stacked engine: participants' local SGD as batched kernels.

        Consumes exactly the loop engine's random draws: participating
        clients are visited in ascending client order, and each pre-draws
        its whole round of mini-batch indices from its own stream in the
        one generator call :func:`~repro.models.optim.sgd_steps` would have
        made. The active cohort is processed ``chunk_size`` clients at a
        time; within a chunk, clients are grouped by effective batch width
        (shards smaller than the batch size draw narrower batches) and each
        group's ``E`` steps run on a ``(group, width, features)`` stack over
        a pool holding just that group's shards. Peak residency is
        ``O(chunk_size x max shard)`` plus the kernel workspace; with a
        streaming federation the gathered shards are regenerated on demand
        and released once the chunk is done. Because every stack slice is
        bit-identical to the scalar path, every chunking returns exactly
        the loop engine's updates.
        """
        active = [client for client in self.clients if mask[client.client_id]]
        if not active:
            return {}
        params0 = np.asarray(global_params, dtype=self.dtype)
        updated: Dict[int, np.ndarray] = {}
        for start in range(0, len(active), self.chunk_size):
            chunk = active[start:start + self.chunk_size]
            groups: Dict[int, List[Tuple[FLClient, np.ndarray]]] = {}
            for client in chunk:
                indices = client.draw_batch_indices(self.local_steps)
                groups.setdefault(indices.shape[1], []).append(
                    (client, indices)
                )
            for members in groups.values():
                pool_features, pool_labels, pool_offsets = self._member_pool(
                    members
                )
                pool_indices = (
                    np.stack([indices for _, indices in members])
                    + pool_offsets[:, None, None]
                )
                algorithm_kwargs = {}
                if self._algorithm.has_local_terms:
                    algorithm_kwargs = self._algorithm.stacked_kwargs(
                        params0,
                        [client.client_id for client, _ in members],
                        self.dtype,
                    )
                params_stack = self.model.batched_sgd_steps(
                    np.repeat(params0[None, :], len(members), axis=0),
                    pool_features,
                    pool_labels,
                    pool_indices,
                    step_size=step_size,
                    **algorithm_kwargs,
                )
                for row, (client, _) in enumerate(members):
                    updated[client.client_id] = params_stack[row]
        # Ascending client id, like the loop engine (the sequential delta
        # aggregation depends on this order for bit-identity).
        return {client.client_id: updated[client.client_id] for client in active}

    def _local_updates(
        self, global_params: np.ndarray, step_size: float, mask: np.ndarray
    ) -> Dict[int, np.ndarray]:
        # The server holds float64 state regardless of precision; cast the
        # broadcast parameters once per round so every engine's kernels run
        # in the working dtype (a float64 -> float64 cast is a no-op).
        global_params = np.asarray(global_params, dtype=self.dtype)
        if self.backend == "vectorized":
            return self._local_updates_chunked(global_params, step_size, mask)
        return self._local_updates_loop(global_params, step_size, mask)

    def run(
        self,
        num_rounds: int,
        *,
        checkpoint: Optional[CheckpointConfig] = None,
    ) -> TrainingHistory:
        """Train for ``num_rounds`` rounds and return the recorded history.

        The round-0 state (before any update) is recorded first so
        time-to-target queries see the full curve.

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
        history = TrainingHistory()
        sim_time = 0.0
        start_round = 0
        resumed = None
        if manager is not None and checkpoint.resume:
            resumed = manager.latest_doc()
        if resumed is not None:
            start_round, sim_time, history = self._restore_checkpoint(
                resumed, num_rounds
            )
        else:
            initial_metrics = self._evaluate(self.server.params)
            history.append(
                RoundRecord(
                    round_index=-1,
                    sim_time=0.0,
                    num_participants=0,
                    step_size=float(self.schedule(0)),
                    **initial_metrics,
                )
            )
        q = self.participation.inclusion_probabilities
        for round_index in range(start_round, num_rounds):
            step_size = float(self.schedule(round_index))
            mask = self.participation.sample_round(round_index)
            global_params = self.server.params
            local_params = self._local_updates(
                global_params, step_size, mask
            )
            if not self._algorithm.is_plain:
                # FedDyn advances each participant's h-state from its
                # float64 local update (state evolves in float64 like the
                # server does, whatever the kernel precision).
                self._algorithm.post_local(global_params, local_params)
            self.server.apply_round(local_params, q)
            if self._algorithm.spec.beta > 0:
                adjusted = self._algorithm.server_update(
                    global_params, self.server.params
                )
                if adjusted is not None:
                    self.server.restore(adjusted, self.server.round_index)
            sim_time += float(self.round_timer(mask, round_index))

            is_last = round_index == num_rounds - 1
            if round_index % self.eval_every == 0 or is_last:
                metrics = self._evaluate(self.server.params)
            else:
                metrics = {}
            history.append(
                RoundRecord(
                    round_index=round_index,
                    sim_time=sim_time,
                    num_participants=int(mask.sum()),
                    step_size=step_size,
                    participants=tuple(
                        int(i) for i in np.flatnonzero(mask)
                    ),
                    **metrics,
                )
            )
            if manager is not None and manager.due(round_index, num_rounds):
                manager.save(
                    self._checkpoint_doc(
                        round_index + 1, sim_time, history, num_rounds
                    )
                )
        return history

    # Checkpoint / resume ----------------------------------------------------

    def _config_fingerprint(self) -> dict:
        """Trainer shape a checkpoint must match to be resumable.

        ``backend`` and ``chunk_size`` are deliberately absent: every
        backend x chunking consumes identical random draws (the
        determinism contract), so a checkpoint taken on one resumes
        bit-identically on any other.
        """
        return {
            "num_clients": len(self.clients),
            "local_steps": self.local_steps,
            "eval_every": self.eval_every,
            "batch_size": self.clients[0].batch_size,
        }

    def _checkpoint_doc(
        self,
        next_round: int,
        sim_time: float,
        history: TrainingHistory,
        num_rounds: int,
    ) -> dict:
        """Snapshot of all mutable training state entering ``next_round``."""
        from repro.utils.serialization import history_to_doc

        doc = {
            "format": CHECKPOINT_FORMAT,
            "next_round": int(next_round),
            "num_rounds": int(num_rounds),
            "sim_time": float(sim_time),
            # The working precision travels with the snapshot (outside the
            # config fingerprint, so pre-fast-tier checkpoints — which
            # lack the key and implicitly ran float64 — stay readable).
            "precision": self.dtype.name,
            "params": [float(v) for v in self.server.params],
            "server_round": int(self.server.round_index),
            "history": history_to_doc(history),
            "participation": self.participation.state_doc(),
            "clients": [client.rng_state() for client in self.clients],
            "trainer": self._config_fingerprint(),
        }
        # The algorithm block exists only at non-default values (like the
        # key itself in scenario docs and cache keys): a v1-era reader of
        # a default-algorithm v2 document sees exactly the fields it
        # always did, and FedDyn's h / the momentum buffer travel with
        # the snapshot so a resumed run replays them bit-exactly.
        if not self._algorithm.is_plain:
            doc["algorithm"] = {
                "spec": self._algorithm.spec.to_doc(),
                "state": self._algorithm.state_doc(),
            }
        return doc

    def _restore_checkpoint(self, doc: dict, num_rounds: int):
        """Load a checkpoint document into live trainer state.

        Returns ``(next_round, sim_time, history)`` for :meth:`run` to
        continue from.
        """
        from repro.utils.serialization import history_from_doc

        if doc.get("format") not in ACCEPTED_CHECKPOINT_FORMATS:
            raise ValueError(
                f"not a checkpoint document: {doc.get('format')!r}"
            )
        fingerprint = self._config_fingerprint()
        recorded = doc.get("trainer", {})
        if recorded != fingerprint:
            raise ValueError(
                "checkpoint was taken by a differently-configured trainer: "
                f"checkpoint {recorded}, this trainer {fingerprint}"
            )
        next_round = int(doc["next_round"])
        if next_round >= num_rounds:
            raise ValueError(
                f"checkpoint is at round {next_round} but the run is only "
                f"{num_rounds} rounds; nothing to resume"
            )
        if len(doc["clients"]) != len(self.clients):
            raise ValueError(
                f"checkpoint covers {len(doc['clients'])} clients, trainer "
                f"has {len(self.clients)}"
            )
        recorded_precision = doc.get("precision", "float64")
        if recorded_precision != self.dtype.name:
            raise ValueError(
                f"checkpoint was taken at precision {recorded_precision!r} "
                f"but this trainer runs {self.dtype.name!r}; resume with "
                "the matching --precision"
            )
        # A document without an algorithm block (every v1 checkpoint, and
        # v2 ones written at the default) recorded a plain-FedAvg run.
        algorithm_entry = doc.get("algorithm")
        recorded_algorithm = (
            AlgorithmSpec.from_doc(algorithm_entry["spec"])
            if algorithm_entry
            else DEFAULT_ALGORITHM
        )
        if recorded_algorithm != self._algorithm.spec:
            raise ValueError(
                "checkpoint was taken with algorithm "
                f"{recorded_algorithm.canonical()!r} but this trainer runs "
                f"{self._algorithm.spec.canonical()!r}; resume with the "
                "matching --algorithm"
            )
        if algorithm_entry is not None:
            self._algorithm.restore_state(algorithm_entry.get("state"))
        self.server.restore(
            np.asarray(doc["params"], dtype=float), int(doc["server_round"])
        )
        self.participation.restore_state(doc["participation"])
        for client, state in zip(self.clients, doc["clients"]):
            client.restore_rng(state)
        return next_round, float(doc["sim_time"]), history_from_doc(
            doc["history"]
        )
