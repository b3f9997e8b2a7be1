"""Key-relevance audit of the streaming train path.

A streaming scenario builds its federation with
:func:`~repro.datasets.streaming_synthetic_federated` from the spec's
population, the scale profile and the runner's seed, and its train jobs
are keyed by :func:`~repro.experiments.orchestrator.job_key`: the
prepared setup's fingerprint (config, scale, derived seed, problem
arrays) plus the job's fields. The federation itself never enters the
key, so every input that reaches the builder must reach the key by
another road.

Generated from :class:`~repro.scenarios.PopulationSpec`'s own fields:
each field, and the runner seed, is set to a non-default value on a tiny
streaming scenario, which is priced by the proposed mechanism and
trained. Any input that changes the trained history must change the
key, and the inputs that reach the builder must really move the history
(else the audit is vacuous). A new field without an audit value fails
the suite, as does a :class:`~repro.scenarios.ScenarioSpec` field with no
stated home.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.datasets
from repro.experiments.orchestrator import TrainJob, job_key
from repro.experiments.runner import run_history
from repro.game import build_mechanism
from repro.scenarios import PopulationSpec, ScenarioRunner, ScenarioSpec

BASE = ScenarioSpec(
    name="streaming-key-audit",
    population=PopulationSpec(num_clients=40),
    streaming=True,
)

#: A non-default value per PopulationSpec field.
POPULATION_AUDIT_VALUES = {
    "num_clients": 48,
    "cost_factor": 2.0,
    "value_factor": 0.5,
    "budget_factor": 0.5,
    "heterogeneity": 0.0,
    "q_max": 0.6,
}

#: The population fields that reach ``streaming_synthetic_federated``.
REACHES_BUILDER = {"num_clients"}

#: Every other ScenarioSpec field, and where its key relevance is pinned.
OTHER_SPEC_FIELDS = {
    "name": "a label: never reaches preparation or training",
    "description": "a label",
    "tags": "labels",
    "setup": "streaming scenarios take setup1 only (ScenarioSpec validates)",
    "population": "audited field by field here",
    "participation": "tests/test_train_job_key_audit.py",
    "train": "streaming scenarios always train (ScenarioSpec validates)",
    "streaming": "fixed on here; enters population_fingerprint()",
    "fast": "the trainer tier: ExecutionSpec.key_fields()",
    "algorithm": "TrainJob.key_fields(), audited with the algorithms",
}

TRAIN_SEED = 3


def _run(spec, *, runner_seed=0, monkeypatch):
    """``(builder arguments, history digest, job key)`` for one spec."""
    calls = []
    builder = repro.datasets.streaming_synthetic_federated

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return builder(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(repro.datasets, "streaming_synthetic_federated", spy)
        concrete = ScenarioRunner(scale="ci", seed=runner_seed).prepare(spec)
    assert len(calls) == 1
    prepared = concrete.prepared
    q = build_mechanism("proposed").apply(concrete.problem).q
    history = run_history(prepared, q, seed=TRAIN_SEED, exclude_zero=True)
    job = TrainJob(
        q=tuple(float(v) for v in q), seed=TRAIN_SEED, exclude_zero=True
    )
    return calls[0], history.digest(), job_key(prepared, job)


@pytest.fixture(scope="module")
def baseline():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _run(BASE, monkeypatch=monkeypatch)


def test_audit_tables_cover_the_specs():
    population = {field.name for field in dataclasses.fields(PopulationSpec)}
    assert set(POPULATION_AUDIT_VALUES) == population
    assert REACHES_BUILDER <= population
    spec = {field.name for field in dataclasses.fields(ScenarioSpec)}
    assert set(OTHER_SPEC_FIELDS) == spec


@pytest.mark.parametrize("field", sorted(POPULATION_AUDIT_VALUES))
def test_population_field_changes_key_when_it_changes_history(
    baseline, monkeypatch, field
):
    population = dataclasses.replace(
        BASE.population, **{field: POPULATION_AUDIT_VALUES[field]}
    )
    variant = dataclasses.replace(BASE, population=population)
    build, digest, key = _run(variant, monkeypatch=monkeypatch)
    base_build, base_digest, base_key = baseline
    assert (build != base_build) == (field in REACHES_BUILDER)
    if field in REACHES_BUILDER:
        assert digest != base_digest, f"{field} moved nothing"
    if digest != base_digest:
        assert key != base_key, f"{field} changes the history only"


def test_runner_seed_changes_key_with_the_history(baseline, monkeypatch):
    build, digest, key = _run(BASE, runner_seed=1, monkeypatch=monkeypatch)
    base_build, base_digest, base_key = baseline
    assert build != base_build
    assert digest != base_digest
    assert key != base_key
