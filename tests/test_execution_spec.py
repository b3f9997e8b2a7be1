"""Tests for :class:`repro.fl.execution.ExecutionSpec` and key relevance.

The audit below is generated from the spec's own fields: every knob is
trained at a non-default value (eager and streaming) and its effect on
the history digest is checked against its effect on the ``TrainJob``
cache key. A new knob without an audit value fails the suite.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.algorithms import AlgorithmSpec
from repro.experiments.orchestrator import TrainJob
from repro.fl import CheckpointConfig, ParticipationSpec
from repro.fl.execution import DEFAULT_EXECUTION, ExecutionSpec
from repro.game.client_model import ClientPopulation
from repro.game.server_problem import ServerProblem
from repro.testing import InvariantContext

#: One non-default value per spec field, for the generated audit.
AUDIT_VALUES = {
    "backend": "loop",
    "chunk_size": 2,
    "precision": "float32",
    "fast": True,
}

#: A non-default local-update rule (the algorithm is a key-relevant knob
#: that lives beside the spec).
AUDIT_ALGORITHM = AlgorithmSpec(kind="fedprox", mu=0.5)

#: The knobs the spec declares result-neutral.
RESULT_NEUTRAL = {
    knob.name
    for knob in dataclasses.fields(ExecutionSpec)
    if not knob.metadata["changes_results"]
}

Q = (0.5, 0.25)


def _key(**fields) -> dict:
    return TrainJob(q=Q, seed=3, **fields).key_fields()


class TestValidation:
    def test_defaults(self):
        spec = ExecutionSpec()
        assert spec == DEFAULT_EXECUTION
        assert (spec.backend, spec.chunk_size, spec.precision, spec.fast) == (
            "vectorized",
            None,
            "float64",
            False,
        )
        assert spec.key_fields() == {}

    @pytest.mark.parametrize(
        "knobs, field",
        [
            ({"backend": "gpu"}, "backend"),
            ({"chunk_size": 0}, "chunk_size"),
            ({"precision": "float16"}, "precision"),
        ],
    )
    def test_bad_values_name_their_field(self, knobs, field):
        with pytest.raises(ValueError) as error:
            ExecutionSpec(**knobs)
        assert str(error.value).startswith(f"{field} ")

    def test_normalizes_types(self):
        spec = ExecutionSpec(chunk_size=np.int64(4), fast=1)
        assert type(spec.chunk_size) is int
        assert spec.fast is True
        assert spec == ExecutionSpec(chunk_size=4, fast=True)

    def test_frozen_and_hashable(self):
        spec = ExecutionSpec(fast=True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.fast = False
        assert len({spec, ExecutionSpec(fast=True)}) == 1


class TestPinnedKeyFields:
    """``key_fields()`` for every knob combination the orchestrator could
    express before the spec existed, as literal dicts."""

    @pytest.mark.parametrize(
        "execution, expected",
        [
            (ExecutionSpec(), {}),
            (ExecutionSpec(backend="loop"), {}),
            (ExecutionSpec(chunk_size=8), {}),
            (ExecutionSpec(backend="loop", chunk_size=3), {}),
            (ExecutionSpec(precision="float32"), {"precision": "float32"}),
            (ExecutionSpec(fast=True), {"fast": True}),
            (
                ExecutionSpec(precision="float32", fast=True),
                {"precision": "float32", "fast": True},
            ),
            (
                ExecutionSpec(
                    backend="loop", chunk_size=4, precision="float32",
                    fast=True,
                ),
                {"precision": "float32", "fast": True},
            ),
        ],
    )
    def test_spec_key_fields(self, execution, expected):
        assert execution.key_fields() == expected

    def test_train_job_key_fields(self):
        base = {"q": [0.5, 0.25], "seed": 3}
        assert _key() == base
        assert _key(execution=ExecutionSpec(backend="loop", chunk_size=2)) == (
            base
        )
        assert _key(
            checkpoint=CheckpointConfig("/tmp/ck", every=3, resume=True)
        ) == base
        assert _key(execution=ExecutionSpec(precision="float32")) == {
            **base,
            "precision": "float32",
        }
        assert _key(execution=ExecutionSpec(fast=True)) == {
            **base,
            "fast": True,
        }
        assert _key(
            execution=ExecutionSpec(precision="float32", fast=True),
            algorithm=AlgorithmSpec(kind="fedprox", mu=0.05),
            participation=ParticipationSpec(kind="dropout", dropout=0.3),
            exclude_zero=True,
        ) == {
            **base,
            "precision": "float32",
            "fast": True,
            "algorithm": {"kind": "fedprox", "mu": 0.05},
            "participation": ParticipationSpec(
                kind="dropout", dropout=0.3
            ).to_doc(),
            "exclude_zero": True,
        }
        assert _key(algorithm=AlgorithmSpec()) == base


def _context() -> InvariantContext:
    population = ClientPopulation(
        weights=np.full(4, 0.25),
        gradient_bounds=np.full(4, 2.0),
        costs=np.array([5.0, 10.0, 20.0, 40.0]),
        values=np.array([0.0, 1.0, 4.0, 9.0]),
        q_max=np.ones(4),
    )
    problem = ServerProblem(
        population=population, alpha=2_000.0, num_rounds=100, budget=50.0
    )
    return InvariantContext(
        problem, ParticipationSpec(kind="bernoulli"), "proposed", train=True
    )


def _audit_cases():
    """``(label, execution, algorithm)`` per audited knob."""
    for knob in dataclasses.fields(ExecutionSpec):
        execution = ExecutionSpec(**{knob.name: AUDIT_VALUES[knob.name]})
        yield knob.name, execution, None
    yield "algorithm", DEFAULT_EXECUTION, AUDIT_ALGORITHM


class TestKeyRelevanceAudit:
    def test_every_knob_has_an_audit_value(self):
        names = {knob.name for knob in dataclasses.fields(ExecutionSpec)}
        assert names == set(AUDIT_VALUES)

    @pytest.mark.parametrize("eager", [False, True], ids=["streaming", "eager"])
    @pytest.mark.parametrize(
        "label, execution, algorithm",
        list(_audit_cases()),
        ids=[case[0] for case in _audit_cases()],
    )
    def test_changed_digest_implies_changed_key(
        self, label, execution, algorithm, eager
    ):
        context = _context()
        reference = context.run_training(eager=eager).digest()
        digest = context.run_training(
            execution, eager=eager, algorithm=algorithm
        ).digest()
        changed_key = _key(execution=execution, algorithm=algorithm) != _key()
        if digest != reference:
            assert changed_key, f"{label} changes results but not the key"
        if label in RESULT_NEUTRAL:
            assert digest == reference, f"{label} is declared result-neutral"
            assert not changed_key, f"{label} forks the cache needlessly"

    @pytest.mark.parametrize("eager", [False, True], ids=["streaming", "eager"])
    def test_checkpoint_changes_neither_digest_nor_key(self, eager, tmp_path):
        context = _context()
        reference = context.run_training(eager=eager).digest()
        config = CheckpointConfig(tmp_path, every=1)
        assert context.run_training(
            eager=eager, checkpoint=config
        ).digest() == reference
        assert list(tmp_path.glob("round-*.json"))
        assert _key(checkpoint=config) == _key()

    def test_result_changing_knobs_do_change_results(self):
        """The audit is not vacuous: float32 and the algorithm really do
        move the tiny history, so their key entries are load-bearing."""
        context = _context()
        reference = context.run_training().digest()
        assert context.run_training(
            ExecutionSpec(precision="float32")
        ).digest() != reference
        assert context.run_training(
            algorithm=AUDIT_ALGORITHM
        ).digest() != reference
