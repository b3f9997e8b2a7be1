"""Byte pins of the trainer's checkpoints and its continuation semantics.

The resume tests compare a resumed run against an uninterrupted one, so a
change to what a checkpoint records, or to the order in which a round
consumes its random draws, moves both sides together and passes them.
These digests pin the bytes directly: every checkpoint file written by a
few fixed small runs (eager FedAvg, a streaming federation, FedDyn's
algorithm block, intermittent participation's extra state, the float32
fast tier's ``precision`` key), the history a ``trainer-checkpoint/v1``
document resumes into, and the pilot trajectory plus gradient-norm
estimate that rely on one trainer continuing across ``run()`` calls.
A refactor of where a run keeps its state must leave every digest here
unchanged.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.datasets import streaming_synthetic_federated
from repro.fl import (
    BernoulliParticipation,
    CheckpointConfig,
    CheckpointManager,
    FederatedTrainer,
    IntermittentAvailabilityParticipation,
)
from repro.models import MultinomialLogisticRegression
from repro.theory.estimation import estimate_gradient_bounds, pilot_trajectory
from repro.utils.rng import RngFactory

NUM_ROUNDS = 8


class _Killed(BaseException):
    """Stand-in for an abrupt interruption mid-run."""


def _model(federated) -> MultinomialLogisticRegression:
    return MultinomialLogisticRegression(
        num_features=federated.num_features,
        num_classes=federated.num_classes,
        l2=1e-2,
    )


def _trainer(model, federated, *, participation=None, seed=5, **kwargs):
    factory = RngFactory(seed)
    if participation is None:
        q = np.linspace(0.4, 0.9, federated.num_clients)
        participation = BernoulliParticipation(
            q, rng=factory.make("participation")
        )
    return FederatedTrainer(
        model,
        federated,
        participation,
        local_steps=2,
        batch_size=8,
        eval_every=3,
        rng_factory=factory,
        **kwargs,
    )


def _file_digests(directory) -> dict:
    """``{file name: sha256 of its bytes}`` for every checkpoint written."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in CheckpointManager(
            CheckpointConfig(directory=directory)
        ).checkpoints()
    }


def _checkpointed_run(trainer, directory):
    config = CheckpointConfig(directory=directory, every=2, keep=100)
    history = trainer.run(NUM_ROUNDS, checkpoint=config)
    return history.digest(), _file_digests(directory)


def _array_digest(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return digest.hexdigest()


#: Run name -> (history digest, {checkpoint file: sha256}).
CHECKPOINT_PINS = {
    "eager-fedavg": (
        "9f1e8fdbd222fa6fecc7f1ccb3149ea0666a03adbbba846c05731959965d395c",
        {
            "round-00000002.json": (
                "036f0f40ec4e2157e7a57ff55291d0ee9baf52815a2be58a5e9916193caa6d12"
            ),
            "round-00000004.json": (
                "559d37001007264245b935559e621ea58308be169bcc26dd0aa2840dc8b6c8cb"
            ),
            "round-00000006.json": (
                "2a37415254578629634e713401098f15042c033320cc477a8dd86f4ebec79504"
            ),
        },
    ),
    "streaming": (
        "8fe9af9c95d16d19f03e3db877af39b63d204210d8437ee76194bf091a733043",
        {
            "round-00000002.json": (
                "8cfd2042506da64a40edcc3fa01fb81d92d11125da557cdf49ebfb31fe2be464"
            ),
            "round-00000004.json": (
                "9ff3bedbc8746b0a4c2229247d5b536cf0e44daf8349dcbdb3c8b44d33ee616b"
            ),
            "round-00000006.json": (
                "38159d1652d1f35242e4c1d02f0f801a0f37a18a99dd41b78327b63e8e82dc0f"
            ),
        },
    ),
    "feddyn": (
        "c825c224c2195fc5347fc10d6fdd9f88aaf8fccbdb8254e54b078c4fe546b9d1",
        {
            "round-00000002.json": (
                "7115b1b43e0ad2a27bc902a1d01900e864e6addbe77ee816ca84a9e015e63ff8"
            ),
            "round-00000004.json": (
                "5480db9edd82a418fa6e4563b527d8d4178c12fdf20eca21c171275c9ff5b3e2"
            ),
            "round-00000006.json": (
                "99d7760f31b024c50b1b7ea55b54acaafe83fb00d5165599729256597e210a38"
            ),
        },
    ),
    "intermittent": (
        "56c902f3353b1fe407a8557e23a4519c8e6419b1119158956f568d95746c31b5",
        {
            "round-00000002.json": (
                "a4903a303f0baf31d387955be1ecef837e37ce23f7113bff97b9054b081083b8"
            ),
            "round-00000004.json": (
                "009adf2807a98a0accbc9eac6062b8c5f88ee98f78a415f77c1db47729bc2dc5"
            ),
            "round-00000006.json": (
                "7f886fd3911a2016bb683e0a8a530bafac793c9605359e06682b1add1a84aee1"
            ),
        },
    ),
    "float32-fast": (
        "86ceb85db999980d3dc8a73d8027b168af8128c72bc57004b555692e8b250815",
        {
            "round-00000002.json": (
                "8e51bcb8ac4c8b0b1d64a4d1e607bb558f2f7940d065634103a197cf214c0594"
            ),
            "round-00000004.json": (
                "f6158c58b7d11345caba9870fc3aafa82c1de21ae94d01e90096d30db5e518f6"
            ),
            "round-00000006.json": (
                "b53fea8b6a3166c4b1acb3165e178c64371d9f5b5eeb34cf73b19d47d067e28a"
            ),
        },
    ),
}


def _build(name, small_model, small_federated):
    if name == "eager-fedavg":
        return _trainer(small_model, small_federated)
    if name == "streaming":
        federated = streaming_synthetic_federated(
            14, total_samples=420, seed=9, test_clients=5
        )
        return _trainer(_model(federated), federated, chunk_size=5)
    if name == "feddyn":
        return _trainer(
            small_model, small_federated, algorithm="feddyn:alpha=0.02"
        )
    if name == "intermittent":
        factory = RngFactory(5)
        participation = IntermittentAvailabilityParticipation(
            np.linspace(0.4, 0.9, small_federated.num_clients),
            on_to_off=0.3,
            off_to_on=0.5,
            rng=factory.make("participation"),
        )
        return _trainer(
            small_model, small_federated, participation=participation
        )
    if name == "float32-fast":
        # Above FAST_EVAL_SAMPLE clients, so the evaluation panel and the
        # row cache both take part.
        federated = streaming_synthetic_federated(
            300, total_samples=3000, seed=4, test_clients=5
        )
        q = np.full(federated.num_clients, 0.05)
        participation = BernoulliParticipation(
            q, rng=RngFactory(5).make("participation")
        )
        return _trainer(
            _model(federated),
            federated,
            participation=participation,
            precision="float32",
            fast=True,
        )
    raise KeyError(name)


RUNS = ["eager-fedavg", "streaming", "feddyn", "intermittent", "float32-fast"]


@pytest.mark.parametrize("name", RUNS)
def test_checkpoint_files_match_pinned_bytes(
    name, small_model, small_federated, tmp_path
):
    trainer = _build(name, small_model, small_federated)
    history_digest, files = _checkpointed_run(trainer, tmp_path)
    expected_history, expected_files = CHECKPOINT_PINS[name]
    assert files == expected_files
    assert history_digest == expected_history


#: History digest of a run resumed from ``trainer-checkpoint/v1`` files.
V1_RESUME_PIN = (
    "9f1e8fdbd222fa6fecc7f1ccb3149ea0666a03adbbba846c05731959965d395c"
)


def test_v1_document_resumes_to_pinned_history(
    small_model, small_federated, tmp_path
):
    reference = _trainer(small_model, small_federated).run(NUM_ROUNDS)
    interrupted = _trainer(small_model, small_federated)
    base = interrupted.round_timer

    def timer(mask, round_index):
        if round_index == 5:
            raise _Killed()
        return base(mask, round_index)

    interrupted.round_timer = timer
    config = CheckpointConfig(directory=tmp_path, every=2, resume=True)
    with pytest.raises(_Killed):
        interrupted.run(NUM_ROUNDS, checkpoint=config)
    for path in tmp_path.glob("round-*.json"):
        doc = json.loads(path.read_text())
        doc["format"] = "trainer-checkpoint/v1"
        path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    resumed = _trainer(small_model, small_federated).run(
        NUM_ROUNDS, checkpoint=config
    )
    assert resumed.records == reference.records
    assert resumed.digest() == V1_RESUME_PIN


#: sha256 of the pilot checkpoints, then of the ``G_n`` estimate at them.
PILOT_PIN = (
    "374444e370cf5b4cc1ec00d967380672720d106a594286019d62b416b717b934"
)
GRADIENT_BOUNDS_PIN = (
    "edd4b3a6b2420cc5d429c41f0afbe1917cfa38b0eb84bf5e6601adf0017e9399"
)


def test_pilot_trajectory_and_gradient_bounds_match_pins(
    small_model, small_federated
):
    checkpoints = pilot_trajectory(
        small_model,
        small_federated,
        local_steps=3,
        batch_size=8,
        num_rounds=6,
        num_checkpoints=4,
        rng_factory=RngFactory(3),
    )
    assert len(checkpoints) == 4
    assert _array_digest(checkpoints) == PILOT_PIN
    bounds = estimate_gradient_bounds(
        small_model,
        small_federated,
        checkpoints,
        batch_size=8,
        samples_per_checkpoint=5,
        rng_factory=RngFactory(4),
    )
    assert _array_digest([bounds]) == GRADIENT_BOUNDS_PIN
