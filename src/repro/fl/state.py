"""One training's mutable state, which is also its checkpoint document.

A :class:`~repro.fl.trainer.FederatedTrainer` holds only shared inputs
(model, federation, schedule, engine settings); every value a training
changes lives in one :class:`RunState`, and :meth:`RunState.to_doc` /
:meth:`RunState.restore` are the ``trainer-checkpoint`` format's writer
and reader.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.algorithms import DEFAULT_ALGORITHM, AlgorithmSpec
from repro.algorithms.strategies import Algorithm
from repro.fl.checkpoint import ACCEPTED_CHECKPOINT_FORMATS, CHECKPOINT_FORMAT
from repro.fl.history import TrainingHistory
from repro.fl.participation import ParticipationModel
from repro.fl.server import FLServer
from repro.utils.rng import restore_rng_state, rng_state_doc


class RunState:
    """Everything one training mutates.

    Attributes:
        participation: The participation process (its RNG position and
            any extra state, such as intermittent availability).
        streams: One SGD generator per client, indexed by client id.
        server: The global model and its round counter.
        algorithm: The bound algorithm strategy (FedDyn's ``h``, the
            server-momentum buffer).
        next_round: Index of the next round to play.
        sim_time: Simulated seconds elapsed.
        history: The rounds recorded so far.
        last_subsampled_loss: Diagnostics of the most recent sub-sampled
            evaluation (``None`` on the exact path). A diagnostic only: it
            does not travel in the checkpoint.
    """

    def __init__(
        self,
        participation: ParticipationModel,
        streams: List[np.random.Generator],
        server: FLServer,
        algorithm: Algorithm,
    ):
        self.participation = participation
        self.streams = streams
        self.server = server
        self.algorithm = algorithm
        self.last_subsampled_loss = None
        self.restart()

    def restart(self) -> None:
        """Start a fresh clock and history at round 0.

        The model, streams, participation and algorithm state carry over,
        so one trainer's successive ``run()`` calls continue training.
        """
        self.next_round = 0
        self.sim_time = 0.0
        self.history = TrainingHistory()

    def to_doc(
        self, num_rounds: int, *, precision: str, fingerprint: dict
    ) -> dict:
        """The checkpoint document of this state entering ``next_round``.

        Args:
            num_rounds: Length of the run being checkpointed.
            precision: The trainer's working dtype name.
            fingerprint: The trainer shape a resume must match.
        """
        from repro.utils.serialization import history_to_doc

        doc = {
            "format": CHECKPOINT_FORMAT,
            "next_round": int(self.next_round),
            "num_rounds": int(num_rounds),
            "sim_time": float(self.sim_time),
            # The working precision travels with the snapshot (outside the
            # config fingerprint, so pre-fast-tier checkpoints — which
            # lack the key and implicitly ran float64 — stay readable).
            "precision": precision,
            "params": [float(v) for v in self.server.params],
            "server_round": int(self.server.round_index),
            "history": history_to_doc(self.history),
            "participation": self.participation.state_doc(),
            "clients": [rng_state_doc(stream) for stream in self.streams],
            "trainer": fingerprint,
        }
        # The algorithm block exists only at non-default values (like the
        # key itself in scenario docs and cache keys): a v1-era reader of
        # a default-algorithm v2 document sees exactly the fields it
        # always did, and FedDyn's h / the momentum buffer travel with
        # the snapshot so a resumed run replays them bit-exactly.
        if not self.algorithm.is_plain:
            doc["algorithm"] = {
                "spec": self.algorithm.spec.to_doc(),
                "state": self.algorithm.state_doc(),
            }
        return doc

    def restore(
        self, doc: dict, num_rounds: int, *, precision: str, fingerprint: dict
    ) -> None:
        """Load a checkpoint document written by :meth:`to_doc`.

        Rejects a document of another format, trainer shape, precision or
        algorithm, and one with no rounds left to play.
        """
        from repro.utils.serialization import history_from_doc

        if doc.get("format") not in ACCEPTED_CHECKPOINT_FORMATS:
            raise ValueError(
                f"not a checkpoint document: {doc.get('format')!r}"
            )
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
        if len(doc["clients"]) != len(self.streams):
            raise ValueError(
                f"checkpoint covers {len(doc['clients'])} clients, trainer "
                f"has {len(self.streams)}"
            )
        recorded_precision = doc.get("precision", "float64")
        if recorded_precision != precision:
            raise ValueError(
                f"checkpoint was taken at precision {recorded_precision!r} "
                f"but this trainer runs {precision!r}; resume with "
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
        if recorded_algorithm != self.algorithm.spec:
            raise ValueError(
                "checkpoint was taken with algorithm "
                f"{recorded_algorithm.canonical()!r} but this trainer runs "
                f"{self.algorithm.spec.canonical()!r}; resume with the "
                "matching --algorithm"
            )
        if algorithm_entry is not None:
            self.algorithm.restore_state(algorithm_entry.get("state"))
        self.server.restore(
            np.asarray(doc["params"], dtype=float), int(doc["server_round"])
        )
        self.participation.restore_state(doc["participation"])
        for stream, state in zip(self.streams, doc["clients"]):
            restore_rng_state(stream, state)
        self.next_round = next_round
        self.sim_time = float(doc["sim_time"])
        self.history = history_from_doc(doc["history"])
