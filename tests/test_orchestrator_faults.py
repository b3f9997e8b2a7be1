"""Fault-tolerance tests for the experiment orchestrator.

The ISSUE-6 contract: injected worker crashes and stragglers are retried
with backoff and the graph completes **bit-identical** to a failure-free
run; an exhausted retry budget raises :class:`GraphFailure` carrying the
structured :class:`GraphReport`; result-store write failures surface a
clear :class:`ResultStoreError` (with the orphaned temp file removed) and
never kill a graph that already holds the computed result; and a
``KeyboardInterrupt`` mid-graph leaves no worker processes behind
(subprocess regression test).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.algorithms import AlgorithmSpec
from repro.experiments import (
    SCALES,
    SETUP1,
    apply_scale,
    prepare_setup,
    run_pricing_comparison,
)
from repro.experiments.orchestrator import (
    ExperimentOrchestrator,
    GraphFailure,
    GraphReport,
    JobNode,
    ResultStore,
    ResultStoreError,
    TrainJob,
    job_key,
)
from repro.faults import FaultPlan
from repro.fl import CheckpointConfig
from repro.game import UniformPricing


FEDPROX = AlgorithmSpec(kind="fedprox", mu=0.05)
FEDDYN = AlgorithmSpec(kind="feddyn", alpha=0.02)


@pytest.fixture(scope="module")
def prepared():
    scale = SCALES["ci"]
    config = apply_scale(SETUP1, scale)
    return prepare_setup(config, scale=scale, seed=11)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    faults.clear()
    yield
    faults.clear()


def _train_nodes(prepared, seeds=(0, 1), algorithm=None):
    """Train nodes at q = 0.5; one ``algorithm`` per lockstep group."""
    q = tuple(float(v) for v in np.full(prepared.config.num_clients, 0.5))
    prefix = "train" if algorithm is None else algorithm.kind
    return [
        JobNode(
            name=f"{prefix}-{seed}",
            build=lambda results, s=seed: TrainJob(
                q=q, seed=s, algorithm=algorithm
            ),
        )
        for seed in seeds
    ]


def _records(results):
    return {name: history.records for name, history in results.items()}


class TestCrashRetry:
    def test_injected_crashes_retry_and_match_serial(self, prepared):
        nodes = _train_nodes(prepared)
        serial = ExperimentOrchestrator(jobs=1).run_graph(prepared, nodes)
        plan = FaultPlan(
            crash_probability=1.0, crash_attempts=1, crash_kinds=("train",)
        )
        orchestrator = ExperimentOrchestrator(
            jobs=2, fault_plan=plan, max_retries=2, retry_base_delay=0.05
        )
        chaotic = orchestrator.run_graph(prepared, nodes)
        assert _records(chaotic) == _records(serial)
        report = orchestrator.last_report
        assert report is not None
        assert report.crashes >= 2  # every attempt-0 execution died
        assert report.retries >= 2
        assert report.submitted >= 4  # two jobs, each at least twice
        assert any(e["event"] == "crash" for e in report.events)
        assert any(e["event"] == "retry" for e in report.events)

    def test_exhausted_budget_raises_graph_failure(self, prepared):
        # Crashes fire on every attempt (attempts gate far above budget),
        # so the retry budget must run out deterministically.
        plan = FaultPlan(crash_probability=1.0, crash_attempts=100)
        orchestrator = ExperimentOrchestrator(
            jobs=2, fault_plan=plan, max_retries=1, retry_base_delay=0.05
        )
        nodes = _train_nodes(prepared, seeds=(0,))
        with pytest.raises(GraphFailure, match="retry budget") as caught:
            orchestrator.run_graph(prepared, nodes)
        report = caught.value.report
        assert report is orchestrator.last_report
        assert [e["event"] for e in report.events] == [
            "crash", "retry", "crash", "exhausted"
        ]
        assert report.failures[-1]["event"] == "exhausted"

    @pytest.mark.parametrize("jobs", [1, 2], ids=["inline", "pool"])
    def test_worker_error_is_retried_not_fatal(self, prepared, jobs):
        """A job raising an ordinary exception (not a dead worker) also
        consumes the retry budget and surfaces in the report — inline
        too — and the failure chains the job's own exception."""
        orchestrator = ExperimentOrchestrator(
            jobs=jobs, max_retries=1, retry_base_delay=0.01
        )
        q = tuple([float("nan")] * prepared.config.num_clients)
        bad = [JobNode(name="bad", build=lambda r: TrainJob(q=q, seed=0))]
        with pytest.raises(GraphFailure) as caught:
            orchestrator.run_graph(prepared, bad)
        events = [e["event"] for e in caught.value.report.events]
        assert events == ["error", "retry", "error", "exhausted"]
        assert "error" in caught.value.report.events[0]
        assert caught.value.report.submitted == 2
        cause = caught.value.__cause__
        assert isinstance(cause, Exception)
        assert repr(cause) == caught.value.report.events[-2]["error"]


class TestInlineJobs:
    def test_interrupt_keeps_the_finished_group(
        self, prepared, tmp_path, monkeypatch
    ):
        """At jobs=1 each lockstep group is persisted, member by member,
        before the next group starts, so a KeyboardInterrupt in the
        second group keeps every member of the first."""
        from repro.experiments import orchestrator as module

        calls = []
        execute = module._execute_spec

        def interrupt_second(setup, specs):
            calls.append([(spec.algorithm, spec.seed) for spec in specs])
            if len(calls) == 2:
                raise KeyboardInterrupt
            return execute(setup, specs)

        monkeypatch.setattr(module, "_execute_spec", interrupt_second)
        store = ResultStore(tmp_path / "cache")
        plain = _train_nodes(prepared)
        prox = _train_nodes(prepared, algorithm=FEDPROX)
        with pytest.raises(KeyboardInterrupt):
            ExperimentOrchestrator(jobs=1, store=store).run_graph(
                prepared, plain + prox
            )
        assert calls == [[(None, 0), (None, 1)], [(FEDPROX, 0), (FEDPROX, 1)]]
        for node in plain:
            assert store._path(job_key(prepared, node.build({}))).is_file()
        for node in prox:
            assert not store._path(job_key(prepared, node.build({}))).exists()


class TestStragglerTimeout:
    def test_straggler_times_out_and_retries_bit_identically(self, prepared):
        nodes = _train_nodes(prepared, seeds=(0,))
        serial = ExperimentOrchestrator(jobs=1).run_graph(prepared, nodes)
        plan = FaultPlan(
            straggler_probability=1.0,
            straggler_seconds=60.0,
            straggler_attempts=1,
        )
        orchestrator = ExperimentOrchestrator(
            jobs=2,
            fault_plan=plan,
            job_timeout=3.0,
            max_retries=2,
            retry_base_delay=0.05,
        )
        result = orchestrator.run_graph(prepared, nodes)
        assert _records(result) == _records(serial)
        report = orchestrator.last_report
        assert report.timeouts >= 1
        assert any(e["event"] == "timeout" for e in report.events)

    def test_job_waiting_for_a_worker_never_times_out(self, prepared):
        """A unit's clock starts when a worker is free for it, and a
        lockstep group's timeout is ``job_timeout`` per member: three
        groups of two 2-second stragglers on two workers take two waves of
        4 s each. Every group runs past the unscaled 3 s, and the last one
        finishes 8 s after the graph started, yet none of them is overdue
        against its 6 s scaled timeout counted from its own start."""
        plan = FaultPlan(
            straggler_probability=1.0,
            straggler_seconds=2.0,
            straggler_attempts=1,
        )
        orchestrator = ExperimentOrchestrator(
            jobs=2, fault_plan=plan, job_timeout=3.0, max_retries=2,
            retry_base_delay=0.05,
        )
        nodes = (
            _train_nodes(prepared)
            + _train_nodes(prepared, algorithm=FEDPROX)
            + _train_nodes(prepared, algorithm=FEDDYN)
        )
        orchestrator.run_graph(prepared, nodes)
        report = orchestrator.last_report
        assert (report.timeouts, report.retries, report.submitted) == (0, 0, 6)


class TestGraphReport:
    def test_to_doc_shape(self):
        report = GraphReport()
        report.submitted = 3
        report.record("crash", key="abc", nodes=["a"], attempt=0)
        doc = report.to_doc()
        assert doc["format"] == "graph-report/v1"
        assert doc["submitted"] == 3
        assert doc["events"][0]["event"] == "crash"

    def test_failures_excludes_recoveries(self):
        report = GraphReport()
        report.record("crash", key="k", nodes=["a"], attempt=0)
        report.record("retry", key="k", nodes=["a"], attempt=1, delay=0.1)
        report.record("store-error", key="k", error="disk full")
        assert [e["event"] for e in report.failures] == ["crash"]


class TestStoreFailures:
    def _payload(self):
        return {
            "format": "history/v1", "round_index": [], "sim_time": [],
            "num_participants": [], "step_size": [], "global_loss": [],
            "test_loss": [], "test_accuracy": [], "participants": [],
        }

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(store_write_failures=1),
            FaultPlan(store_replace_failures=1),
        ],
        ids=["write", "replace"],
    )
    def test_put_failure_is_actionable_and_leaves_no_orphan(
        self, prepared, tmp_path, plan
    ):
        store = ResultStore(tmp_path / "cache")
        spec = TrainJob(
            q=tuple([0.5] * prepared.config.num_clients), seed=0
        )
        key = job_key(prepared, spec)
        with faults.fault_scope(plan):
            with pytest.raises(ResultStoreError, match="free space"):
                store.put(key, {}, spec.kind, self._payload())
        assert store.stats()["orphaned_tmp"] == 0
        assert store.stats()["entries"] == 0
        # The failure is transient (budget spent): the next put lands.
        store.put(key, {}, spec.kind, self._payload())
        assert store.stats()["entries"] == 1

    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "parallel"])
    def test_store_failure_does_not_kill_the_graph(
        self, prepared, tmp_path, jobs
    ):
        """The computed result is already in hand when persisting fails;
        losing the memoization must cost a warning, not the run."""
        nodes = _train_nodes(prepared, seeds=(0,))
        reference = ExperimentOrchestrator(jobs=1).run_graph(prepared, nodes)
        orchestrator = ExperimentOrchestrator(
            jobs=jobs, cache_dir=tmp_path / "cache"
        )
        with faults.fault_scope(FaultPlan(store_write_failures=10)):
            results = orchestrator.run_graph(prepared, nodes)
        assert _records(results) == _records(reference)
        events = [e["event"] for e in orchestrator.last_report.events]
        assert "store-error" in events


class TestCheckpointedJobs:
    def test_checkpoint_knobs_stay_out_of_cache_keys(self, prepared):
        plain = TrainJob(q=(0.5, 0.5), seed=0)
        knobbed = TrainJob(
            q=(0.5, 0.5), seed=0,
            checkpoint=CheckpointConfig("/tmp/ck", every=3, resume=True),
        )
        assert plain.key_fields() == knobbed.key_fields()
        assert job_key(prepared, plain) == job_key(prepared, knobbed)

    def test_checkpointed_comparison_matches_plain(self, prepared, tmp_path):
        plain = run_pricing_comparison(
            prepared, repeats=1, schemes=[UniformPricing()]
        )
        orchestrator = ExperimentOrchestrator(
            jobs=2, checkpoint=CheckpointConfig(tmp_path / "ckpt", every=7)
        )
        checkpointed = run_pricing_comparison(
            prepared, repeats=1, schemes=[UniformPricing()],
            orchestrator=orchestrator,
        )
        assert [h.records for h in plain["uniform"].histories] == [
            h.records for h in checkpointed["uniform"].histories
        ]
        # Each train job checkpointed into its own key-derived subdir.
        subdirs = list(Path(tmp_path / "ckpt").glob("*/round-*.json"))
        assert subdirs

    def test_checkpoint_config_validates(self, tmp_path):
        with pytest.raises(ValueError, match="every"):
            ExperimentOrchestrator(
                jobs=1, checkpoint=CheckpointConfig(tmp_path, every=0)
            )

    def test_orchestrator_validates_fault_knobs(self):
        with pytest.raises(ValueError, match="job_timeout"):
            ExperimentOrchestrator(jobs=2, job_timeout=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            ExperimentOrchestrator(jobs=2, max_retries=-1)
        with pytest.raises(ValueError, match="retry_base_delay"):
            ExperimentOrchestrator(jobs=2, retry_base_delay=-0.5)

    def test_retry_delay_backoff_is_bounded_and_deterministic(self):
        orchestrator = ExperimentOrchestrator(
            jobs=2, retry_base_delay=0.5, retry_seed=3
        )
        first = orchestrator._retry_delay("somekey", 1)
        assert first == orchestrator._retry_delay("somekey", 1)
        second = orchestrator._retry_delay("somekey", 2)
        # Exponential growth with at most 25% jitter on top.
        assert 0.5 <= first <= 0.5 * 1.25
        assert 1.0 <= second <= 1.0 * 1.25
        huge = orchestrator._retry_delay("somekey", 30)
        assert huge <= orchestrator.RETRY_MAX_DELAY * 1.25


INTERRUPT_SCRIPT = textwrap.dedent(
    """
    import multiprocessing
    import threading
    import time

    import numpy as np

    from repro.experiments import SCALES, SETUP1, apply_scale, prepare_setup
    from repro.experiments.orchestrator import (
        ExperimentOrchestrator, JobNode, TrainJob,
    )
    from repro.faults import FaultPlan

    scale = SCALES["ci"]
    prepared = prepare_setup(
        apply_scale(SETUP1, scale), scale=scale, seed=11
    )
    q = tuple(float(v) for v in np.full(prepared.config.num_clients, 0.5))
    # Every job stalls for minutes, guaranteeing the SIGINT lands while
    # workers are busy.
    plan = FaultPlan(
        straggler_probability=1.0,
        straggler_seconds=300.0,
        straggler_attempts=10,
    )
    orchestrator = ExperimentOrchestrator(jobs=2, fault_plan=plan)

    def announce_workers():
        while not multiprocessing.active_children():
            time.sleep(0.05)
        print("WORKERS", flush=True)

    threading.Thread(target=announce_workers, daemon=True).start()
    nodes = [
        JobNode(name="a", build=lambda r: TrainJob(q=q, seed=0)),
        JobNode(name="b", build=lambda r: TrainJob(q=q, seed=1)),
    ]
    try:
        orchestrator.run_graph(prepared, nodes)
        print("FINISHED", flush=True)
    except KeyboardInterrupt:
        deadline = time.time() + 15
        while multiprocessing.active_children() and time.time() < deadline:
            time.sleep(0.1)
        leftovers = multiprocessing.active_children()
        print("CLEAN" if not leftovers else f"LEAKED {leftovers}", flush=True)
    """
)


class TestKeyboardInterrupt:
    def test_interrupt_mid_graph_leaves_no_workers(self, tmp_path):
        """SIGINT while jobs are inflight must tear the pool down in the
        finally path — no orphaned worker processes survive."""
        script = tmp_path / "interrupt_run.py"
        script.write_text(INTERRUPT_SCRIPT)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, str(script)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            for line in child.stdout:
                if "WORKERS" in line:
                    break
            else:
                pytest.fail("child never started pool workers")
            child.send_signal(signal.SIGINT)
            out, err = child.communicate(timeout=120)
        finally:
            if child.poll() is None:
                child.kill()
                child.communicate()
        assert "CLEAN" in out, f"stdout={out!r} stderr={err!r}"
        assert "LEAKED" not in out
