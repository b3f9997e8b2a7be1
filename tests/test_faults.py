"""Tests for the seeded fault-injection harness and the dropout regime.

Covers the ISSUE-6 fault catalog: plan validation, install/clear scoping,
deterministic (seeded, scheduling-independent) fault decisions, store
write/replace failure budgets, and the unbiasedness-preserving client
dropout participation model that ``ParticipationSpec(kind="dropout")``
builds.
"""

from __future__ import annotations

import errno

import numpy as np
import pytest
from helpers import fault_scope

from repro import faults
from repro.faults import CRASH_EXIT_CODE, FaultPlan
from repro.fl import DropoutParticipation, ParticipationSpec
from repro.fl.participation import STATE_FORMAT


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Fault plans are process-global; never leak one across tests."""
    faults.clear()
    yield
    faults.clear()


class TestFaultPlan:
    def test_defaults_inject_nothing(self):
        plan = FaultPlan()
        assert plan.crash_probability == 0.0
        assert plan.straggler_probability == 0.0
        assert not plan.injects_store_faults

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_probability": -0.1},
            {"crash_probability": 1.5},
            {"straggler_probability": 2.0},
            {"crash_attempts": -1},
            {"straggler_attempts": -2},
            {"store_write_failures": -1},
            {"store_replace_failures": -3},
            {"straggler_seconds": -0.5},
        ],
        ids=lambda kwargs: next(iter(kwargs)),
    )
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_crash_exit_code_is_distinctive(self):
        # Not a signal-death code and not a plausible normal exit status.
        assert 0 < CRASH_EXIT_CODE < 128

    def test_plan_is_picklable(self):
        import pickle

        plan = FaultPlan(seed=3, crash_probability=0.5, crash_kinds=("train",))
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestInstallScope:
    def test_install_and_clear(self):
        assert faults.active() is None
        plan = FaultPlan(seed=1)
        faults.install(plan)
        assert faults.active() is plan
        faults.clear()
        assert faults.active() is None

    def test_install_rejects_non_plans(self):
        with pytest.raises(TypeError, match="FaultPlan"):
            faults.install({"crash_probability": 1.0})

    def test_fault_scope_restores_on_exit(self):
        with fault_scope(FaultPlan(seed=2)) as plan:
            assert faults.active() is plan
        assert faults.active() is None

    def test_fault_scope_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with fault_scope(FaultPlan(seed=2)):
                raise RuntimeError("boom")
        assert faults.active() is None


class TestSeededDecisions:
    def test_decisions_are_reproducible(self):
        plan = FaultPlan(seed=7)
        for key in ("a", "b", "longer-key"):
            for attempt in range(3):
                first = faults._fires(plan, "crash", key, attempt, 0.5)
                again = faults._fires(plan, "crash", key, attempt, 0.5)
                assert first == again

    def test_decisions_vary_with_key_and_attempt(self):
        plan = FaultPlan(seed=7)
        outcomes = {
            faults._fires(plan, "crash", f"key-{i}", 0, 0.5)
            for i in range(64)
        }
        assert outcomes == {True, False}
        per_attempt = {
            faults._fires(plan, "crash", "key-0", attempt, 0.5)
            for attempt in range(64)
        }
        assert per_attempt == {True, False}

    def test_probability_extremes_skip_rng(self):
        plan = FaultPlan(seed=0)
        assert not faults._fires(plan, "crash", "k", 0, 0.0)
        assert faults._fires(plan, "crash", "k", 0, 1.0)

    def test_on_job_noop_without_plan(self):
        faults.on_job("train", "key", 0)  # must not raise or sleep

    def test_on_job_respects_attempt_gate(self):
        # crash_attempts=0 disables crashes entirely even at p=1; the
        # test would die (os._exit) if the gate failed.
        faults.install(FaultPlan(crash_probability=1.0, crash_attempts=0))
        faults.on_job("train", "key", 0)
        faults.install(FaultPlan(crash_probability=1.0, crash_attempts=1))
        faults.on_job("train", "key", 1)  # attempt >= crash_attempts

    def test_on_job_respects_kind_filter(self):
        faults.install(
            FaultPlan(
                crash_probability=1.0,
                crash_attempts=5,
                crash_kinds=("equilibrium",),
            )
        )
        faults.on_job("train", "key", 0)  # wrong kind: must survive


class TestStoreFaults:
    def test_write_budget_depletes(self):
        faults.install(FaultPlan(store_write_failures=2))
        for _ in range(2):
            with pytest.raises(OSError) as caught:
                faults.on_store_write("/tmp/x.json")
            assert caught.value.errno == errno.ENOSPC
        faults.on_store_write("/tmp/x.json")  # budget spent: no-op

    def test_replace_budget_depletes(self):
        faults.install(FaultPlan(store_replace_failures=1))
        with pytest.raises(OSError) as caught:
            faults.on_store_replace("/tmp/x.json")
        assert caught.value.errno == errno.EIO
        faults.on_store_replace("/tmp/x.json")

    def test_reinstall_resets_budgets(self):
        faults.install(FaultPlan(store_write_failures=1))
        with pytest.raises(OSError):
            faults.on_store_write("/tmp/x.json")
        faults.install(FaultPlan(store_write_failures=1))
        with pytest.raises(OSError):
            faults.on_store_write("/tmp/x.json")

    def test_no_plan_means_no_store_faults(self):
        faults.on_store_write("/tmp/x.json")
        faults.on_store_replace("/tmp/x.json")


class TestClientDropoutSpec:
    def test_returns_dropout_spec(self):
        spec = ParticipationSpec(kind="dropout", dropout=0.25)
        assert isinstance(spec, ParticipationSpec)
        assert spec.kind == "dropout"
        assert spec.dropout == 0.25

    def test_rate_validated_by_spec(self):
        with pytest.raises(ValueError):
            ParticipationSpec(kind="dropout", dropout=1.0)


class TestDropoutParticipation:
    def test_inclusion_probabilities_fold_in_dropout(self):
        q = np.array([0.2, 0.5, 1.0])
        model = DropoutParticipation(
            q, dropout=0.3, rng=np.random.default_rng(0)
        )
        assert np.allclose(model.inclusion_probabilities, 0.7 * q)
        assert model.dropout == 0.3

    def test_empirical_frequency_matches_effective_inclusion(self):
        q = np.array([0.3, 0.6, 0.9, 1.0])
        model = DropoutParticipation(
            q, dropout=0.4, rng=np.random.default_rng(11)
        )
        rounds = 4_000
        counts = np.zeros_like(q)
        for round_index in range(rounds):
            counts += model.sample_round(round_index)
        assert np.allclose(counts / rounds, 0.6 * q, atol=0.03)

    def test_zero_dropout_matches_bernoulli_distributionally(self):
        # dropout=0 consumes two uniform vectors per round (willing and
        # survives), so it is not stream-identical to Bernoulli — but no
        # willing client may ever be dropped.
        q = np.full(6, 0.5)
        model = DropoutParticipation(
            q, dropout=0.0, rng=np.random.default_rng(3)
        )
        rounds = 2_000
        counts = sum(model.sample_round(r) for r in range(rounds))
        assert np.allclose(counts / rounds, q, atol=0.04)

    def test_invalid_dropout_rejected(self):
        q = np.full(3, 0.5)
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                DropoutParticipation(
                    q, dropout=rate, rng=np.random.default_rng(0)
                )

    def test_state_roundtrip_resumes_bit_identically(self):
        q = np.array([0.4, 0.8, 0.6, 0.9])
        model = DropoutParticipation(
            q, dropout=0.2, rng=np.random.default_rng(5)
        )
        for round_index in range(7):
            model.sample_round(round_index)
        doc = model.state_doc()
        assert doc["format"] == STATE_FORMAT
        reference = [model.sample_round(7 + r) for r in range(5)]
        restored = DropoutParticipation(
            q, dropout=0.2, rng=np.random.default_rng(999)
        )
        restored.restore_state(doc)
        resumed = [restored.sample_round(7 + r) for r in range(5)]
        for expected, actual in zip(reference, resumed):
            assert np.array_equal(expected, actual)

    def test_restore_rejects_wrong_model(self):
        from repro.fl import BernoulliParticipation

        q = np.full(3, 0.5)
        bernoulli = BernoulliParticipation(q, rng=np.random.default_rng(0))
        dropout = DropoutParticipation(
            q, dropout=0.1, rng=np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="cannot restore"):
            dropout.restore_state(bernoulli.state_doc())


class TestDropoutSpec:
    def test_build_and_effective_inclusion(self):
        spec = ParticipationSpec(kind="dropout", dropout=0.3)
        q = np.array([0.5, 1.0])
        model = spec.build(q, rng=np.random.default_rng(0))
        assert isinstance(model, DropoutParticipation)
        assert np.allclose(spec.effective_inclusion(q), 0.7 * q)
        assert np.allclose(model.inclusion_probabilities, 0.7 * q)

    def test_doc_roundtrip(self):
        spec = ParticipationSpec(kind="dropout", dropout=0.3)
        doc = spec.to_doc()
        assert doc["dropout"] == 0.3
        assert ParticipationSpec.from_doc(doc) == spec

    def test_non_dropout_docs_unchanged(self):
        # Pre-existing kinds must keep their historical cache-key docs.
        assert "dropout" not in ParticipationSpec(kind="bernoulli").to_doc()
        assert "dropout" not in ParticipationSpec(
            kind="correlated", correlation=0.5
        ).to_doc()

    def test_flaky_fleet_scenario_registered(self):
        from repro.scenarios import get_scenario

        spec = get_scenario("flaky-fleet")
        assert spec.participation.kind == "dropout"
        assert spec.participation.dropout == 0.3
        assert "robustness" in spec.tags
