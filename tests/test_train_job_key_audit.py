"""Key-relevance audit of the train-job participation fields.

Generated from :class:`~repro.fl.ParticipationSpec`'s own fields: for
every ``kind``, every field is trained at a non-default value on a tiny
ci setup, and its effect on the trained-history digest is checked
against its effect on :func:`~repro.experiments.orchestrator.job_key`.
A field that changes results must change the key (else the result store
serves a stale history); a field the kind ignores must change neither
(else the store forks for nothing). ``exclude_zero`` must change the key
whenever it can change results (``q`` holds an exact zero) and leave
results alone otherwise. A new field without an audit value fails the
suite.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.experiments.configs import SCALES, SETUPS, apply_scale
from repro.experiments.orchestrator import TrainJob, job_key
from repro.experiments.runner import run_history
from repro.experiments.setup import prepare_setup
from repro.fl import ParticipationSpec

#: The fields each kind reads; every other field must be inert for it.
KIND_FIELDS = {
    "bernoulli": (),
    "correlated": ("correlation",),
    "intermittent": ("on_to_off", "off_to_on"),
    "dropout": ("dropout",),
}

#: A non-default value per field (defaults: 0.5, 0.1, 0.3, 0.1).
AUDIT_VALUES = {
    "correlation": 0.9,
    "on_to_off": 0.5,
    "off_to_on": 0.8,
    "dropout": 0.4,
}

SEED = 2


@pytest.fixture(scope="module")
def prepared():
    scale = dataclasses.replace(SCALES["ci"], num_rounds=8, eval_every=2)
    return prepare_setup(
        apply_scale(SETUPS["setup1"], scale), scale=scale, seed=5
    )


@pytest.fixture(scope="module")
def q(prepared):
    return np.linspace(0.3, 0.9, prepared.federated.num_clients)


def _digest_and_key(prepared, q, participation=None, exclude_zero=False):
    history = run_history(
        prepared,
        q,
        seed=SEED,
        participation=participation,
        exclude_zero=exclude_zero,
    )
    job = TrainJob(
        q=tuple(float(v) for v in q),
        seed=SEED,
        participation=participation,
        exclude_zero=exclude_zero,
    )
    return history.digest(), job_key(prepared, job)


def _field_cases():
    """``(kind, field)`` for every spec field under every kind."""
    fields = [
        field.name
        for field in dataclasses.fields(ParticipationSpec)
        if field.name != "kind"
    ]
    for kind in ParticipationSpec._KINDS:
        for name in fields:
            yield kind, name


class TestParticipationKeyAudit:
    def test_audit_tables_cover_the_spec(self):
        fields = {
            field.name for field in dataclasses.fields(ParticipationSpec)
        } - {"kind"}
        assert set(AUDIT_VALUES) == fields
        assert set(KIND_FIELDS) == set(ParticipationSpec._KINDS)
        for read in KIND_FIELDS.values():
            assert set(read) <= fields

    @pytest.mark.parametrize(
        "kind, field",
        list(_field_cases()),
        ids=[f"{kind}-{field}" for kind, field in _field_cases()],
    )
    def test_field_changes_key_iff_it_changes_results(
        self, prepared, q, kind, field
    ):
        base = ParticipationSpec(kind=kind)
        variant = dataclasses.replace(base, **{field: AUDIT_VALUES[field]})
        digest, key = _digest_and_key(prepared, q, base)
        new_digest, new_key = _digest_and_key(prepared, q, variant)
        if field in KIND_FIELDS[kind]:
            # Not vacuous: the field really moves this tiny history...
            assert new_digest != digest, f"{kind}.{field} moved nothing"
            # ...so the store must not serve the old one.
            assert new_key != key, f"{kind}.{field} changes results only"
        else:
            assert new_digest == digest, f"{kind} reads {field}"
            assert new_key == key, f"{kind}.{field} forks the key needlessly"

    @pytest.mark.parametrize(
        "kind", [k for k in ParticipationSpec._KINDS if k != "bernoulli"]
    )
    def test_kind_changes_results_and_key(self, prepared, q, kind):
        digest, key = _digest_and_key(
            prepared, q, ParticipationSpec(kind="bernoulli")
        )
        new_digest, new_key = _digest_and_key(
            prepared, q, ParticipationSpec(kind=kind)
        )
        assert new_digest != digest
        assert new_key != key

    def test_bernoulli_spec_trains_the_historical_path(self, prepared, q):
        """``None`` and an explicit Bernoulli spec train the same history
        (the orchestrator normalizes the spec away to share the key)."""
        digest, _ = _digest_and_key(prepared, q)
        explicit, _ = _digest_and_key(
            prepared, q, ParticipationSpec(kind="bernoulli")
        )
        assert explicit == digest


class TestExcludeZeroKeyAudit:
    def test_exact_zero_keys_the_flag(self, prepared, q):
        """With an exact zero the flag keeps the client out of every
        lottery instead of clipping it to ``Q_MIN``. A clipped client
        almost never draws in a few rounds, so the two histories usually
        agree; the key still separates them, which is the safe side."""
        with_zero = q.copy()
        with_zero[0] = 0.0
        _, key = _digest_and_key(prepared, with_zero)
        _, new_key = _digest_and_key(prepared, with_zero, exclude_zero=True)
        assert new_key != key

    def test_no_zero_leaves_results_unchanged(self, prepared, q):
        """Without an exact zero the flag is inert; the orchestrator drops
        it from such jobs so they keep their historical key."""
        digest, _ = _digest_and_key(prepared, q)
        new_digest, _ = _digest_and_key(prepared, q, exclude_zero=True)
        assert new_digest == digest
