"""Tests for the experiment orchestrator and its content-addressed store.

Covers the ISSUE-2 contract: cache hit/miss behavior, key stability across
processes, corruption handling (truncated/garbage file -> recompute, not
crash), and serial-vs-parallel bit-equivalence on a tiny setup.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.experiments import (
    SCALES,
    SETUP1,
    apply_scale,
    prepare_setup,
    run_pricing_comparison,
    sweep_mean_value,
)
from repro.experiments.orchestrator import (
    EquilibriumJob,
    ExperimentOrchestrator,
    JobNode,
    ResultCache,
    ResultStore,
    TrainJob,
    _scheme_spec,
    job_key,
    job_key_doc,
)
from repro.experiments.runner import Q_MIN, run_history
from repro.fl.execution import DEFAULT_EXECUTION, ExecutionSpec
from repro.game import OptimalPricing, UniformPricing
from repro.utils.serialization import (
    content_address,
    history_from_doc,
    history_to_doc,
    outcome_from_doc,
    outcome_to_doc,
)


@pytest.fixture(scope="module")
def prepared():
    scale = SCALES["ci"]
    config = apply_scale(SETUP1, scale)
    return prepare_setup(config, scale=scale, seed=11)


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


def _train_spec(prepared, seed=0):
    q = tuple(float(v) for v in np.full(prepared.config.num_clients, 0.5))
    return TrainJob(q=q, seed=seed)


class TestCacheKeys:
    def test_same_job_same_key(self, prepared):
        spec = _train_spec(prepared)
        assert job_key(prepared, spec) == job_key(prepared, spec)

    def test_key_distinguishes_every_coordinate(self, prepared):
        base = job_key(prepared, _train_spec(prepared, seed=0))
        assert base != job_key(prepared, _train_spec(prepared, seed=1))
        other_q = TrainJob(
            q=tuple(np.full(prepared.config.num_clients, 0.25)), seed=0
        )
        assert base != job_key(prepared, other_q)
        eq = EquilibriumJob(
            scheme_class="OptimalPricing", scheme_name="proposed",
            method="kkt",
        )
        assert base != job_key(prepared, eq)
        variant = EquilibriumJob(
            scheme_class="OptimalPricing", scheme_name="proposed",
            method="kkt", variant=("mean_value", 0.0),
        )
        assert job_key(prepared, eq) != job_key(prepared, variant)

    def test_key_stable_across_processes(self, prepared):
        """The same key document must hash identically in a fresh process
        (no per-process hash salting, no id()-dependent content)."""
        doc = job_key_doc(prepared, _train_spec(prepared))
        local = content_address(doc)
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(content_address, doc).result()
        assert local == remote

    def test_train_key_independent_of_scheme(self, prepared):
        """Train jobs are keyed by q, so schemes inducing the same vector
        share one cached run."""
        spec = _train_spec(prepared)
        assert "scheme" not in spec.key_fields()

    def test_derived_setup_never_shares_keys_with_base(self, prepared):
        """with_* variants replace the problem without touching the
        config, so the fingerprint must capture the problem itself —
        otherwise a derived setup would return the base setup's cached
        equilibria."""
        spec = EquilibriumJob(
            scheme_class="OptimalPricing", scheme_name="proposed",
            method="kkt",
        )
        base = job_key(prepared, spec)
        doubled = prepared.with_budget(prepared.problem.budget * 2)
        assert base != job_key(doubled, spec)
        revalued = prepared.with_mean_value(123.0)
        assert base != job_key(revalued, spec)
        recosted = prepared.with_mean_cost(
            float(prepared.problem.population.costs.mean()) * 3
        )
        assert base != job_key(recosted, spec)
        # An identically-derived setup still produces identical keys.
        assert job_key(doubled, spec) == job_key(
            prepared.with_budget(prepared.problem.budget * 2), spec
        )


class TestResultStore:
    def test_miss_then_hit(self, prepared, store):
        spec = _train_spec(prepared)
        key = job_key(prepared, spec)
        assert store.get(key, history_from_doc) is None
        assert store.misses == 1
        history = run_history(prepared, np.asarray(spec.q), seed=spec.seed)
        store.put(key, job_key_doc(prepared, spec), spec.kind,
                  history_to_doc(history))
        decoded = store.get(key, history_from_doc)
        assert decoded.records == history.records and store.hits == 1

    def test_stats_and_clear(self, prepared, store):
        spec = _train_spec(prepared)
        key = job_key(prepared, spec)
        store.put(key, job_key_doc(prepared, spec), spec.kind,
                  {"format": "history/v1", "round_index": [],
                   "sim_time": [], "num_participants": [], "step_size": [],
                   "global_loss": [], "test_loss": [], "test_accuracy": [],
                   "participants": []})
        stats = store.stats()
        assert stats["entries"] == 1 and stats["total_bytes"] > 0
        assert store.clear() == 1
        assert store.stats()["entries"] == 0

    def test_orphaned_tmp_files_are_reported_and_cleared(
        self, prepared, store
    ):
        """A write that dies between mkstemp and os.replace leaves a
        .tmp-* file; stats must surface it and clear must reclaim it."""
        spec = _train_spec(prepared)
        key = job_key(prepared, spec)
        store.put(key, job_key_doc(prepared, spec), spec.kind,
                  {"format": "history/v1", "round_index": [],
                   "sim_time": [], "num_participants": [], "step_size": [],
                   "global_loss": [], "test_loss": [], "test_accuracy": [],
                   "participants": []})
        orphan = store.root / key[:2] / ".tmp-interrupted.json"
        orphan.write_text("{ partial write")
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["orphaned_tmp"] == 1
        # The orphan never shadows an entry.
        assert store.get(key, history_from_doc) is not None
        assert store.clear() == 1
        assert not orphan.exists()
        assert store.stats()["orphaned_tmp"] == 0

    @pytest.mark.parametrize(
        "corruption",
        ["truncate", "garbage", "wrong-structure"],
        ids=str,
    )
    def test_corrupt_entry_is_a_miss(self, prepared, store, corruption):
        spec = _train_spec(prepared)
        key = job_key(prepared, spec)
        store.put(key, job_key_doc(prepared, spec), spec.kind,
                  history_to_doc(
                      run_history(prepared, np.asarray(spec.q), seed=0)
                  ))
        path = store._path(key)
        if corruption == "truncate":
            path.write_text(path.read_text()[: path.stat().st_size // 2])
        elif corruption == "garbage":
            path.write_bytes(b"\x00\xff not json at all")
        else:
            path.write_text('{"unexpected": true}')
        assert store.get(key, history_from_doc) is None
        assert store.corrupt == 1

    def test_corrupt_entry_recomputes_not_crashes(self, prepared, tmp_path):
        orchestrator = ExperimentOrchestrator(
            jobs=1, cache_dir=tmp_path / "cache"
        )
        first = run_pricing_comparison(
            prepared, repeats=1, schemes=[UniformPricing()],
            orchestrator=orchestrator,
        )
        for path in orchestrator.store._entries():
            path.write_text("{ truncated")
        again = run_pricing_comparison(
            prepared, repeats=1, schemes=[UniformPricing()],
            orchestrator=ExperimentOrchestrator(
                jobs=1, cache_dir=tmp_path / "cache"
            ),
        )
        a, b = first["uniform"], again["uniform"]
        assert np.array_equal(a.outcome.q, b.outcome.q)
        assert [h.records for h in a.histories] == [
            h.records for h in b.histories
        ]


class TestResultCache:
    def test_concurrent_gets_read_the_store_once(self, store):
        """Threads racing on one key share one store read and one decoded
        object (a lost memo update would read the store twice)."""
        key = "ab" * 32
        store.put(key, {}, "train", {"value": 1})
        cache = ResultCache(store)
        seen = []
        start = threading.Barrier(8)

        def slow_decode(doc):
            time.sleep(0.01)  # widens the window between probe and memo
            return dict(doc)

        def probe():
            start.wait(timeout=30)
            for _ in range(50):
                seen.append(cache.get(key, slow_decode))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=probe) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 400
        assert all(value is seen[0] for value in seen)
        assert (store.hits, store.misses) == (1, 0)


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize(
        "execution",
        [
            ExecutionSpec(),
            ExecutionSpec(chunk_size=4, precision="float32", fast=True),
        ],
        ids=["exact", "fast"],
    )
    def test_comparison_bit_identical(self, prepared, tmp_path, execution):
        """Serial, parallel cold-cache and warm-cache runs agree to the bit
        under the same execution spec, and the warm pass recomputes
        nothing."""

        def orchestrator(jobs, cache_dir=None):
            return ExperimentOrchestrator(
                jobs=jobs, cache_dir=cache_dir, execution=execution
            )

        serial = run_pricing_comparison(
            prepared, repeats=2, orchestrator=orchestrator(1)
        )
        parallel = run_pricing_comparison(
            prepared, repeats=2,
            orchestrator=orchestrator(2, tmp_path / "cache"),
        )
        warm_orchestrator = orchestrator(2, tmp_path / "cache")
        warm = run_pricing_comparison(
            prepared, repeats=2, orchestrator=warm_orchestrator
        )
        assert warm_orchestrator.store.hits > 0
        assert warm_orchestrator.store.misses == 0
        assert set(serial) == set(parallel) == set(warm)
        for name in serial:
            for variant in (parallel, warm):
                assert np.array_equal(
                    serial[name].outcome.q, variant[name].outcome.q
                )
                assert np.array_equal(
                    serial[name].outcome.prices, variant[name].outcome.prices
                )
                assert [h.records for h in serial[name].histories] == [
                    h.records for h in variant[name].histories
                ]
        if execution != DEFAULT_EXECUTION:
            # The fast case must really train on the fast tier.
            exact = run_pricing_comparison(prepared, repeats=2)
            for name in serial:
                assert [h.records for h in serial[name].histories] != [
                    h.records for h in exact[name].histories
                ]

    def test_sweep_matches_serial(self, prepared, tmp_path):
        values = (0.0, 2_000.0)
        serial = sweep_mean_value(prepared, values, repeats=1)
        parallel = sweep_mean_value(
            prepared, values, repeats=1,
            orchestrator=ExperimentOrchestrator(
                jobs=2, cache_dir=tmp_path / "cache"
            ),
        )
        for a, b in zip(serial, parallel):
            assert a.parameter == b.parameter
            assert np.array_equal(a.result.outcome.q, b.result.outcome.q)
            assert [h.records for h in a.result.histories] == [
                h.records for h in b.result.histories
            ]

    def test_equilibrium_outcome_roundtrip(self, prepared):
        """The store codec preserves outcomes exactly, equilibrium included."""
        outcome = OptimalPricing().apply(prepared.problem)
        decoded = outcome_from_doc(
            outcome_to_doc(outcome), prepared.problem
        )
        assert np.array_equal(outcome.q, decoded.q)
        assert np.array_equal(outcome.prices, decoded.prices)
        assert outcome.equilibrium.lambda_star == \
            decoded.equilibrium.lambda_star
        assert outcome.equilibrium.value_threshold == \
            decoded.equilibrium.value_threshold


class TestGraphExecution:
    def test_cycle_detection(self, prepared):
        nodes = [
            JobNode(name="a", deps=("b",),
                    build=lambda r: _train_spec(prepared)),
            JobNode(name="b", deps=("a",),
                    build=lambda r: _train_spec(prepared)),
        ]
        with pytest.raises(ValueError, match="cycle"):
            ExperimentOrchestrator(jobs=1).run_graph(prepared, nodes)

    def test_unknown_dep_rejected(self, prepared):
        nodes = [
            JobNode(name="a", deps=("missing",),
                    build=lambda r: _train_spec(prepared)),
        ]
        with pytest.raises(ValueError, match="unknown"):
            ExperimentOrchestrator(jobs=1).run_graph(prepared, nodes)

    def test_duplicate_names_rejected(self, prepared):
        nodes = [
            JobNode(name="a", build=lambda r: _train_spec(prepared)),
            JobNode(name="a", build=lambda r: _train_spec(prepared, seed=1)),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentOrchestrator(jobs=1).run_graph(prepared, nodes)

    def test_unregistered_scheme_rejected(self, prepared):
        class CustomScheme(UniformPricing):
            name = "custom"

        with pytest.raises(ValueError, match="not orchestratable"):
            _scheme_spec(CustomScheme(), None)

    def test_custom_scheme_comparison_still_works(self, prepared, tmp_path):
        """User-defined PricingScheme subclasses are solved inline (their
        train jobs still go through the pool/cache), matching the
        pre-orchestrator behavior of run_pricing_comparison."""

        class CustomScheme(UniformPricing):
            name = "custom"

        plain = run_pricing_comparison(
            prepared, repeats=1, schemes=[CustomScheme()]
        )
        orchestrated = run_pricing_comparison(
            prepared, repeats=1, schemes=[CustomScheme()],
            orchestrator=ExperimentOrchestrator(
                jobs=2, cache_dir=tmp_path / "cache"
            ),
        )
        assert np.array_equal(
            plain["custom"].outcome.q, orchestrated["custom"].outcome.q
        )
        assert [h.records for h in plain["custom"].histories] == [
            h.records for h in orchestrated["custom"].histories
        ]

    def test_identical_keys_share_one_inflight_execution(
        self, prepared, tmp_path
    ):
        """Two nodes with the same content-addressed key submitted to a
        cold pool must coalesce onto a single worker execution (and a
        single decode), not recompute the job once per node."""
        spec = _train_spec(prepared)
        nodes = [
            JobNode(name="a", build=lambda r, s=spec: s),
            JobNode(name="b", build=lambda r, s=spec: s),
        ]
        orchestrator = ExperimentOrchestrator(
            jobs=2, cache_dir=tmp_path / "cache"
        )
        results = orchestrator.run_graph(prepared, nodes)
        # Shared decode object is the observable proof of coalescing:
        # separate executions would decode two distinct histories.
        assert results["a"] is results["b"]
        assert len(orchestrator.store._entries()) == 1

    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "parallel"])
    def test_coalesced_key_probes_the_store_once(
        self, prepared, tmp_path, jobs
    ):
        """A node whose key is already queued or in flight joins it
        without a store probe, so the counters do not depend on jobs."""
        spec = _train_spec(prepared)
        nodes = [
            JobNode(name="a", build=lambda r, s=spec: s),
            JobNode(name="b", build=lambda r, s=spec: s),
        ]
        orchestrator = ExperimentOrchestrator(
            jobs=jobs, cache_dir=tmp_path / "cache"
        )
        results = orchestrator.run_graph(prepared, nodes)
        assert results["a"] is results["b"]
        store = orchestrator.store
        assert (store.hits, store.misses) == (0, 1)
        assert orchestrator.last_report.submitted == 1
        warm = ExperimentOrchestrator(jobs=jobs, cache_dir=tmp_path / "cache")
        again = warm.run_graph(prepared, nodes)
        assert again["a"] is again["b"]
        assert (warm.store.hits, warm.store.misses) == (1, 0)
        assert warm.last_report.submitted == 0

    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "parallel"])
    def test_identical_keys_dedupe_without_a_store(self, prepared, jobs):
        """The per-graph in-memory memo shares results across duplicate
        keys even with no cache_dir — including when the duplicate is
        unlocked only after its twin already completed (dependent node)."""
        spec = _train_spec(prepared)
        nodes = [
            JobNode(name="a", build=lambda r, s=spec: s),
            # "b" becomes ready only after "a" finished, so it exercises
            # the post-completion memo path, not in-flight coalescing.
            JobNode(name="b", deps=("a",), build=lambda r, s=spec: s),
        ]
        results = ExperimentOrchestrator(jobs=jobs).run_graph(
            prepared, nodes
        )
        assert results["a"] is results["b"]

    def test_undecodable_payload_recomputes(self, prepared, tmp_path):
        """Valid JSON with the right top-level keys but a broken payload
        must be treated as corruption (recompute), not crash the run."""
        orchestrator = ExperimentOrchestrator(
            jobs=1, cache_dir=tmp_path / "cache"
        )
        first = run_pricing_comparison(
            prepared, repeats=1, schemes=[UniformPricing()],
            orchestrator=orchestrator,
        )
        for path in orchestrator.store._entries():
            path.write_text('{"key": {}, "kind": "train", "payload": {}}')
        fresh = ExperimentOrchestrator(jobs=1, cache_dir=tmp_path / "cache")
        again = run_pricing_comparison(
            prepared, repeats=1, schemes=[UniformPricing()],
            orchestrator=fresh,
        )
        assert fresh.store.corrupt == len(fresh.store._entries())
        assert np.array_equal(
            first["uniform"].outcome.q, again["uniform"].outcome.q
        )
        assert [h.records for h in first["uniform"].histories] == [
            h.records for h in again["uniform"].histories
        ]


class TestRunHistoryClipping:
    def test_clipping_is_logged(self, prepared, caplog):
        q = np.zeros(prepared.config.num_clients)
        with caplog.at_level("WARNING", logger="repro.experiments.runner"):
            run_history(prepared, q, seed=0)
        assert any("clipped" in record.message for record in caplog.records)

    def test_in_range_q_does_not_log(self, prepared, caplog):
        q = np.full(prepared.config.num_clients, 0.5)
        with caplog.at_level("WARNING", logger="repro.experiments.runner"):
            run_history(prepared, q, seed=0)
        assert not caplog.records

    def test_bound_is_documented(self):
        assert Q_MIN == 1e-4
        assert "Q_MIN" in run_history.__doc__
