"""Parallel experiment orchestration with content-addressed result caching.

Reproducing the paper's Fig. 4-7 curves and Tables II-V means many
independent (setup x pricing-scheme x seed) equilibrium solves and FL
training runs. This module decomposes those batteries into a DAG of *pure
jobs* and executes independent jobs across a process pool, memoizing every
job in an on-disk result store so re-runs and partial sweeps are
near-instant.

Job kinds
=========

* :class:`EquilibriumJob` — apply one pricing scheme to one (possibly
  variant) prepared setup; produces a
  :class:`~repro.game.pricing.PricingOutcome`.
* :class:`TrainJob` — one FL training run at a fixed participation vector
  ``q`` and seed; produces a :class:`~repro.fl.history.TrainingHistory`.

A pricing comparison is the two-level DAG ``equilibrium -> {train(seed)}``
per scheme; a Figs.-5-7 sweep is the same DAG once per swept value. The
final seed-average (history aggregation) is a cheap in-process reduction
performed by :class:`~repro.experiments.runner.SchemeResult`.

Determinism contract
====================

Parallel results are **bit-identical** to serial ones. Every job derives
its randomness from an explicit :class:`~repro.utils.rng.RngFactory` child
keyed by the job's own coordinates (the root seed travels inside the
pickled :class:`~repro.experiments.setup.PreparedSetup`; a train job's
stream is ``rng_factory.child("run", str(seed))``), never from process
state, execution order, or wall-clock. Workers reconstruct the identical
factory from the same integers, so scheduling cannot perturb any stream.

Cache key scheme
================

A job's key is the SHA-256 of the canonical JSON of::

    {schema, code, setup: {config, scale, rng_seed, problem}, kind,
     <job fields>}

where ``code`` is ``repro.__version__`` (bump it when numerics change),
``setup.rng_seed`` is the prepared setup's derived root seed, and
``setup.problem`` digests the calibrated economic problem itself — so a
``with_budget``/``with_mean_value``-derived setup never shares keys with
its base. Train jobs are keyed by the *full* ``q`` vector rather than the
scheme that produced it, so two schemes or sweep points that induce the
same participation share one cached run. The scenario layer's knobs — a
non-Bernoulli participation process, zero-exclusion, a parameterized
mechanism's constructor kwargs — and the local-update *algorithm*
(:class:`~repro.algorithms.AlgorithmSpec`) enter job keys **only at
non-default values**, so every pre-scenario/pre-algorithm key is
preserved and the paper-default scenario shares the plain pipeline's
entries. The trainer's execution knobs contribute exactly
:meth:`~repro.fl.execution.ExecutionSpec.key_fields`, the single statement
of which of them change results; the rest (the engine, the stack width)
and checkpointing never fork the cache. Within a single graph run,
duplicate keys are coalesced in memory — onto one pool submission while in
flight, and onto the already-decoded result afterwards — so the sharing
holds even without an on-disk store.

Example::

    orchestrator = ExperimentOrchestrator(jobs=4, cache_dir="~/.repro-cache")
    comparison = run_pricing_comparison(prepared, orchestrator=orchestrator)
"""

from __future__ import annotations

import dataclasses
import logging
import os
import pickle
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

import repro
from repro import faults
from repro.algorithms import AlgorithmSpec, coerce_algorithm
from repro.experiments.setup import PreparedSetup
from repro.fl.checkpoint import CheckpointConfig
from repro.fl.execution import DEFAULT_EXECUTION, ExecutionSpec
from repro.utils.rng import spawn_rng
from repro.utils.serialization import (
    canonical_dumps,
    content_address,
    history_from_doc,
    history_to_doc,
    load_json,
    outcome_from_doc,
    outcome_to_doc,
)

logger = logging.getLogger(__name__)

#: Bump when the store layout or key document structure changes.
CACHE_SCHEMA_VERSION = 2

#: ``(kind, value)`` describing a derived setup, e.g. ``("mean_value", 0.0)``
#: for :meth:`PreparedSetup.with_mean_value`; ``None`` is the base setup.
Variant = Optional[Tuple[str, float]]

_VARIANT_KINDS = ("mean_value", "mean_cost", "budget")


def apply_variant(prepared: PreparedSetup, variant: Variant) -> PreparedSetup:
    """Return the setup a job runs against: base or a ``with_*`` copy."""
    if variant is None:
        return prepared
    kind, value = variant
    if kind not in _VARIANT_KINDS:
        raise ValueError(
            f"unknown variant kind {kind!r}; choose from {_VARIANT_KINDS}"
        )
    return getattr(prepared, f"with_{kind}")(float(value))


def setup_fingerprint(prepared: PreparedSetup) -> dict:
    """The cache-key component identifying a prepared setup.

    The config dataclass and scale profile pin every structural knob and
    the derived root seed (an integer, stable across processes) pins every
    random stream — but ``PreparedSetup.with_*`` variants replace the
    stored economic problem *without* touching the config, so the problem
    itself is fingerprinted too (scalars verbatim, client arrays as
    digests). A derived setup therefore never collides with its base.
    """
    problem = prepared.problem
    population = problem.population
    return {
        "config": dataclasses.asdict(prepared.config),
        "scale": dataclasses.asdict(prepared.scale),
        "rng_seed": prepared.rng_factory.seed,
        "problem": {
            "alpha": float(problem.alpha),
            "num_rounds": int(problem.num_rounds),
            "budget": float(problem.budget),
            "beta": float(problem.beta),
            "f_star": float(problem.f_star),
            "local_gaps": (
                None
                if problem.local_gaps is None
                else content_address(
                    [float(gap) for gap in problem.local_gaps]
                )
            ),
            "population": content_address(
                {
                    name: [float(v) for v in getattr(population, name)]
                    for name in (
                        "weights",
                        "gradient_bounds",
                        "costs",
                        "values",
                        "q_max",
                    )
                }
            ),
        },
    }


@dataclass(frozen=True)
class EquilibriumJob:
    """Solve one pricing scheme on one (variant) setup — a pure game solve.

    ``params`` carries a parameterized mechanism's constructor kwargs as a
    sorted tuple of pairs (e.g. ``(("fraction", 0.25),)`` for the random-
    selection baseline). It enters :meth:`key_fields` only when set, so
    every pre-existing job keeps its historical cache key.
    """

    scheme_class: str
    scheme_name: str
    method: Optional[str] = None
    variant: Variant = None
    params: Optional[Tuple[Tuple[str, float], ...]] = None

    kind = "equilibrium"

    def key_fields(self) -> dict:
        fields = {
            "scheme_class": self.scheme_class,
            "scheme_name": self.scheme_name,
            "method": self.method,
            "variant": list(self.variant) if self.variant else None,
        }
        if self.params is not None:
            fields["params"] = [list(pair) for pair in self.params]
        return fields


@dataclass(frozen=True)
class TrainJob:
    """One FL training run at participation vector ``q`` with one seed.

    ``q`` is stored as a tuple of exact floats: it *is* the job's identity
    (training never reads the economic problem), so identical vectors from
    different schemes or sweep points dedupe to one cached run.

    ``participation`` (a :class:`~repro.fl.ParticipationSpec`),
    ``exclude_zero`` and ``algorithm`` (an
    :class:`~repro.algorithms.AlgorithmSpec`) change results, so each
    enters :meth:`key_fields` — only at non-default values, so every
    pre-scenario, pre-algorithm job keeps its historical cache key.
    ``execution`` contributes exactly
    :meth:`~repro.fl.execution.ExecutionSpec.key_fields`. ``checkpoint``
    never enters the key (a resumed history is bit-identical); the worker
    checkpoints into a subdirectory of ``checkpoint.directory`` derived
    from this job's key, so concurrent jobs never share one.
    """

    q: Tuple[float, ...]
    seed: int
    participation: Optional[Any] = None
    exclude_zero: bool = False
    algorithm: Optional[AlgorithmSpec] = None
    execution: ExecutionSpec = DEFAULT_EXECUTION
    checkpoint: Optional[CheckpointConfig] = None

    kind = "train"

    def key_fields(self) -> dict:
        fields = {"q": list(self.q), "seed": int(self.seed)}
        if self.participation is not None:
            fields["participation"] = self.participation.to_doc()
        if self.exclude_zero:
            fields["exclude_zero"] = True
        fields.update(self.execution.key_fields())
        if self.algorithm is not None and not self.algorithm.is_default:
            fields["algorithm"] = self.algorithm.to_doc()
        return fields


JobSpec = Union[EquilibriumJob, TrainJob]


def job_key_doc(
    prepared: PreparedSetup,
    spec: JobSpec,
    *,
    setup_doc: Optional[dict] = None,
) -> dict:
    """The full, human-readable key document hashed into a cache key.

    ``setup_doc`` lets batch callers pass a precomputed
    :func:`setup_fingerprint` instead of re-digesting the config and
    client arrays once per job.
    """
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "code": repro.__version__,
        "setup": (
            setup_fingerprint(prepared) if setup_doc is None else setup_doc
        ),
        "kind": spec.kind,
        "job": spec.key_fields(),
    }


def job_key(
    prepared: PreparedSetup,
    spec: JobSpec,
    *,
    setup_doc: Optional[dict] = None,
) -> str:
    """SHA-256 cache key for ``spec`` run against ``prepared``."""
    return content_address(job_key_doc(prepared, spec, setup_doc=setup_doc))


# Result store ---------------------------------------------------------------


#: What a payload decoder raises on a document of the wrong shape
#: (``json.JSONDecodeError`` and ``schemas.SchemaError`` are ValueErrors).
DECODE_ERRORS = (KeyError, IndexError, TypeError, ValueError)


class ResultStoreError(OSError):
    """A result-store write failed in a way the user must act on.

    Raised by :meth:`ResultStore.put` when the temp-file write or the
    atomic ``os.replace`` publish fails (disk full, permissions, dying
    filesystem). The orphaned temp file is removed before raising, so a
    failed write never inflates ``cache stats``.
    """


class ResultStore:
    """Content-addressed on-disk memo of job results.

    Layout: ``root/<key[:2]>/<key>.json``, each file holding
    ``{"key": <key document>, "kind": ..., "payload": <encoded result>}``.
    Writes are atomic (temp file + ``os.replace``), so a crashed run never
    leaves a partially-written entry under its final name. Reads treat any
    unreadable or malformed entry as a miss and recompute — corruption can
    cost time, never correctness.
    """

    _SUFFIX = ".json"

    def __init__(self, root: "os.PathLike[str] | str"):
        self.root = Path(root).expanduser()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{self._SUFFIX}"

    def get(self, key: str, decode: Callable[[dict], Any]) -> Any:
        """Return ``decode`` of the payload stored under ``key``, or
        ``None`` on miss.

        Truncated, unparsable, or structurally wrong files, and payloads
        that ``decode`` rejects (valid JSON of the wrong shape, e.g. an
        entry rewritten by hand), are logged, counted in :attr:`corrupt`,
        and reported as misses: only a usable result counts as a hit.
        """
        path = self._path(key)
        try:
            doc = load_json(path)
            if (
                not isinstance(doc, dict)
                or "payload" not in doc
                or "kind" not in doc
            ):
                raise ValueError("missing payload/kind fields")
            result = decode(doc["payload"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError,) + DECODE_ERRORS as error:
            logger.warning(
                "result store: discarding corrupt entry %s (%s); "
                "the job will be recomputed",
                path,
                error,
            )
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, key_doc: dict, kind: str, payload: dict) -> Path:
        """Atomically persist one job result under ``key``.

        On an I/O failure (ENOSPC mid-write, a failing ``os.replace``) the
        orphaned temp file is removed and a :class:`ResultStoreError`
        naming the path and the likely remedy is raised — the computation
        itself already succeeded, only its memoization is lost.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {"key": key_doc, "kind": kind, "payload": payload}
        descriptor, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=self._SUFFIX
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                faults.on_store_write(tmp_name)
                handle.write(canonical_dumps(document))
            faults.on_store_replace(str(path))
            os.replace(tmp_name, path)
        except BaseException as error:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            if isinstance(error, OSError):
                raise ResultStoreError(
                    f"result store: could not persist {path} ({error}); "
                    f"check free space and permissions under {self.root} "
                    "(the partial temp file was removed; the computed "
                    "result is unaffected, only its caching failed)"
                ) from error
            raise
        return path

    def _entries(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return [
            path
            for path in self.root.glob(f"??/*{self._SUFFIX}")
            if not path.name.startswith(".tmp-")
        ]

    def _orphans(self) -> List[Path]:
        """``.tmp-*`` files left by writes that died before ``os.replace``."""
        if not self.root.is_dir():
            return []
        return list(self.root.glob("??/.tmp-*"))

    @staticmethod
    def _size_of(path: Path) -> int:
        """File size, tolerating concurrent writers: a ``.tmp-`` file can
        be renamed away (or an entry replaced) between glob and stat."""
        try:
            return path.stat().st_size
        except OSError:
            return 0

    def stats(self) -> dict:
        """On-disk totals plus this session's hit/miss/corruption counters.

        ``total_bytes`` includes orphaned temp files from interrupted
        writes (reclaimable via :meth:`clear`), reported separately under
        ``orphaned_tmp``.
        """
        entries = self._entries()
        orphans = self._orphans()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "total_bytes": sum(
                self._size_of(path) for path in entries + orphans
            ),
            "orphaned_tmp": len(orphans),
            "session_hits": self.hits,
            "session_misses": self.misses,
            "session_corrupt": self.corrupt,
        }

    def clear(self) -> int:
        """Delete every cached entry (and any orphaned temp file left by an
        interrupted write); returns how many entries were removed."""
        entries = self._entries()
        for path in entries + self._orphans():
            try:
                path.unlink()
            except FileNotFoundError:
                pass  # a concurrent writer renamed/removed it first
        return len(entries)


# Worker-side execution ------------------------------------------------------

# The base PreparedSetup is shipped once per worker (pool initializer), not
# once per job; at bench scale the pickle runs to megabytes.
_WORKER_PREPARED: Optional[PreparedSetup] = None


def _init_worker(
    payload: bytes, fault_plan: Optional[faults.FaultPlan] = None
) -> None:
    global _WORKER_PREPARED
    _WORKER_PREPARED = pickle.loads(payload)
    if fault_plan is not None:
        faults.install(fault_plan)


def _scheme_registry() -> dict:
    from repro.game import (
        FixedSubsetMechanism,
        FullParticipationMechanism,
        OptimalPricing,
        RandomSelectionMechanism,
        UniformPricing,
        WeightedPricing,
    )

    return {
        "OptimalPricing": OptimalPricing,
        "UniformPricing": UniformPricing,
        "WeightedPricing": WeightedPricing,
        "FullParticipationMechanism": FullParticipationMechanism,
        "FixedSubsetMechanism": FixedSubsetMechanism,
        "RandomSelectionMechanism": RandomSelectionMechanism,
    }


def _build_scheme(spec: "EquilibriumJob"):
    """Reconstruct the scheme/mechanism an :class:`EquilibriumJob` names."""
    registry = _scheme_registry()
    if spec.scheme_class not in registry:
        raise ValueError(
            f"unknown scheme class {spec.scheme_class!r}; orchestrated "
            f"schemes must be one of {sorted(registry)}"
        )
    cls = registry[spec.scheme_class]
    kwargs = dict(spec.params) if spec.params is not None else {}
    if spec.method is not None:
        kwargs["method"] = spec.method
    return cls(**kwargs)


def _execute_spec(prepared: PreparedSetup, spec: JobSpec) -> dict:
    """Run one job and return its *encoded* payload.

    Both the serial path and the pool workers return encoded documents, and
    the orchestrator always decodes before handing results to callers — so
    fresh, parallel, and cache-hit results pass through the exact same
    codec and are indistinguishable.
    """
    if isinstance(spec, EquilibriumJob):
        scheme = _build_scheme(spec)
        outcome = scheme.apply(apply_variant(prepared, spec.variant).problem)
        return outcome_to_doc(outcome)
    if isinstance(spec, TrainJob):
        from repro.experiments.runner import run_history

        checkpoint = spec.checkpoint
        if checkpoint is not None:
            # Per-job subdirectory keyed by the job's own identity, so
            # concurrent jobs (and retries of this one) land in a stable,
            # collision-free location.
            digest = content_address({"kind": spec.kind, **spec.key_fields()})
            checkpoint = dataclasses.replace(
                checkpoint,
                directory=str(Path(checkpoint.directory) / digest[:16]),
            )
        history = run_history(
            prepared,
            np.asarray(spec.q, dtype=float),
            seed=spec.seed,
            participation=spec.participation,
            exclude_zero=spec.exclude_zero,
            algorithm=spec.algorithm,
            execution=spec.execution,
            checkpoint=checkpoint,
        )
        return history_to_doc(history)
    raise TypeError(f"unknown job spec {type(spec).__name__}")


def _run_remote(spec: JobSpec, attempt: int = 0, key: str = "") -> dict:
    if _WORKER_PREPARED is None:
        raise RuntimeError("worker pool was not initialized with a setup")
    faults.on_job(spec.kind, key, attempt)
    return _execute_spec(_WORKER_PREPARED, spec)


# DAG scheduling -------------------------------------------------------------


@dataclass(frozen=True)
class JobNode:
    """One node of a job DAG.

    ``build`` receives the decoded results of this node's dependencies
    (name -> result) and returns the concrete :class:`JobSpec` — specs that
    depend on upstream outputs (a train job's ``q``) can only be formed
    once those outputs exist.
    """

    name: str
    build: Callable[[Dict[str, Any]], JobSpec]
    deps: Tuple[str, ...] = ()


@dataclass
class GraphReport:
    """Structured account of one graph run's failures and recoveries.

    ``events`` holds one dict per noteworthy incident —
    ``{"event": "crash" | "timeout" | "error" | "retry" | "store-error"
    | "exhausted", "key": ..., "nodes": [...], "attempt": ..., ...}`` —
    in the order observed. Exposed as
    :attr:`ExperimentOrchestrator.last_report` after every parallel graph
    run (and attached to :class:`GraphFailure` when the run dies).
    """

    submitted: int = 0
    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    events: List[dict] = field(default_factory=list)

    def record(self, event: str, **details: Any) -> None:
        """Append one structured event."""
        self.events.append({"event": event, **details})

    @property
    def failures(self) -> List[dict]:
        """Events describing job failures (crash/timeout/error/exhausted)."""
        return [
            entry
            for entry in self.events
            if entry["event"] in ("crash", "timeout", "error", "exhausted")
        ]

    def to_doc(self) -> dict:
        """JSON-serializable summary."""
        return {
            "format": "graph-report/v1",
            "submitted": self.submitted,
            "retries": self.retries,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "events": list(self.events),
        }


class GraphFailure(RuntimeError):
    """A job exhausted its retry budget; carries the graph's report."""

    def __init__(self, message: str, report: GraphReport):
        super().__init__(message)
        self.report = report


@dataclass
class _Inflight:
    """Bookkeeping for one pool submission."""

    spec: JobSpec
    key: str
    names: List[str]
    attempt: int
    started: float


class ExperimentOrchestrator:
    """Executes job DAGs across a worker pool with result memoization.

    Args:
        jobs: Worker processes. ``1`` (the default) runs everything inline
            in the calling process — no pool, no pickling — which is also
            the reference order for the determinism contract.
        cache_dir: Directory for the content-addressed result store; when
            ``None``, nothing is persisted and every job recomputes.
        store: Pre-built store (overrides ``cache_dir``); mainly for tests.
        execution: How the train jobs this orchestrator builds execute
            (an :class:`~repro.fl.execution.ExecutionSpec`; ``None`` is
            the exact default). The spec decides which of its knobs enter
            cache keys.
        checkpoint: Checkpoint the train jobs this orchestrator builds
            (a :class:`~repro.fl.checkpoint.CheckpointConfig`), each into
            its own key-derived subdirectory of ``checkpoint.directory``;
            with ``resume`` a re-run (or a retry after a crash) continues
            from the newest checkpoint. Never enters cache keys.
        algorithm: Local-update rule for the train jobs this orchestrator
            builds (an :class:`~repro.algorithms.AlgorithmSpec`, its
            string/dict form, or ``None`` for plain FedAvg). It changes
            results, so non-default values enter every train job's key.
        job_timeout: Seconds a pool job may run before it is presumed
            stuck; the pool is torn down (a running task cannot be
            cancelled individually), the overdue job is retried with
            backoff, and on-time victims are resubmitted without penalty.
            ``None`` (default) disables timeouts.
        max_retries: Retry budget *per job* for crashes/timeouts/errors;
            exceeding it raises :class:`GraphFailure` carrying the
            structured :class:`GraphReport`.
        retry_base_delay: First-retry backoff in seconds; doubles each
            further attempt, plus seeded jitter.
        retry_seed: Seed for the deterministic backoff jitter.
        fault_plan: A :class:`repro.faults.FaultPlan` shipped to every
            pool worker (chaos testing); ``None`` injects nothing.

    Attributes:
        last_report: The :class:`GraphReport` of the most recent
            :meth:`run_graph` call (``None`` before the first run).
    """

    #: Cap on the exponential backoff delay between retries.
    RETRY_MAX_DELAY = 30.0

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: "os.PathLike[str] | str | None" = None,
        *,
        store: Optional[ResultStore] = None,
        execution: Optional[ExecutionSpec] = None,
        checkpoint: Optional[CheckpointConfig] = None,
        algorithm: Optional[Any] = None,
        job_timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_base_delay: float = 0.5,
        retry_seed: int = 0,
        fault_plan: Optional[faults.FaultPlan] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError(
                f"job_timeout must be positive, got {job_timeout}"
            )
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_base_delay < 0:
            raise ValueError(
                f"retry_base_delay must be >= 0, got {retry_base_delay}"
            )
        self.jobs = int(jobs)
        self.execution = execution or DEFAULT_EXECUTION
        self.checkpoint = checkpoint
        # Normalized so plain fedavg and None build identical TrainJobs
        # (and therefore identical cache keys).
        spec = coerce_algorithm(algorithm)
        self.algorithm = None if spec.is_default else spec
        self.job_timeout = None if job_timeout is None else float(job_timeout)
        self.max_retries = int(max_retries)
        self.retry_base_delay = float(retry_base_delay)
        self.retry_seed = int(retry_seed)
        self.fault_plan = fault_plan
        self.last_report: Optional[GraphReport] = None
        if store is not None:
            self.store = store
        elif cache_dir is not None:
            self.store = ResultStore(cache_dir)
        else:
            self.store = None

    # Core executor ----------------------------------------------------------

    def run_graph(
        self, prepared: PreparedSetup, nodes: Sequence[JobNode]
    ) -> Dict[str, Any]:
        """Execute a DAG of jobs; returns decoded results keyed by node name.

        Ready nodes (all dependencies resolved) run as soon as a worker is
        free; cache hits resolve without touching the pool. Node results
        are deterministic, so scheduling order never affects values.

        The parallel path is fault-tolerant: a job whose worker dies
        (:class:`~concurrent.futures.process.BrokenProcessPool`), raises,
        or exceeds ``job_timeout`` is retried up to ``max_retries`` times
        with exponential backoff and seeded jitter on a fresh pool; other
        jobs that were inflight when a pool died are resubmitted without
        penalty. Every incident lands in :attr:`last_report`; a job that
        exhausts its budget raises :class:`GraphFailure`. The pool is
        always shut down — forcibly (terminating workers) when jobs were
        still inflight, as on ``KeyboardInterrupt``. The serial path
        (``jobs=1``) is the reference order and simply propagates
        failures.
        """
        by_name = {node.name: node for node in nodes}
        if len(by_name) != len(nodes):
            raise ValueError("duplicate job node names")
        for node in nodes:
            for dep in node.deps:
                if dep not in by_name:
                    raise ValueError(
                        f"node {node.name!r} depends on unknown {dep!r}"
                    )
        results: Dict[str, Any] = {}
        remaining = dict(by_name)
        # Fingerprint the setup once per graph (it digests the config and
        # every client array) and memoize decoded results by key for the
        # run's duration, so nodes sharing a key (two schemes inducing the
        # same q vector) compute once even without an on-disk store.
        setup_doc = setup_fingerprint(prepared)
        memo: Dict[str, Any] = {}
        report = GraphReport()
        self.last_report = report
        if self.jobs == 1:
            while remaining:
                ready = [
                    node
                    for node in remaining.values()
                    if all(dep in results for dep in node.deps)
                ]
                if not ready:
                    raise ValueError("job graph contains a dependency cycle")
                # `ready` preserves declaration order (dicts iterate in
                # insertion order), which is the reference serial order.
                for node in ready:
                    results[node.name] = self._run_one(
                        prepared, node.build(results),
                        setup_doc=setup_doc, memo=memo,
                    )
                    del remaining[node.name]
            return results
        # The pool (and the multi-megabyte setup pickle its initializer
        # ships) is created lazily on the first cache miss, so a fully
        # warm re-run never pays worker startup at all.
        pool: Optional[ProcessPoolExecutor] = None
        payload: Optional[bytes] = None
        # future -> _Inflight(spec, key, node names awaiting it, attempt,
        # start time). Several nodes can share one content-addressed key
        # (e.g. two schemes inducing the same q vector); `inflight`
        # coalesces them onto a single pool submission instead of
        # recomputing. `pending` holds retries waiting out their backoff.
        futures: Dict[Any, _Inflight] = {}
        inflight: Dict[str, Any] = {}
        pending: List[dict] = []
        pending_keys: Dict[str, dict] = {}

        def submit(
            spec: JobSpec, key: str, names: List[str], attempt: int
        ) -> None:
            nonlocal pool, payload
            if pool is None:
                if payload is None:
                    payload = pickle.dumps(
                        prepared, protocol=pickle.HIGHEST_PROTOCOL
                    )
                pool = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=_init_worker,
                    initargs=(payload, self.fault_plan),
                )
            try:
                future = pool.submit(_run_remote, spec, attempt, key)
            except BrokenProcessPool:
                # A worker died since the last wait(); its own future
                # reports the crash. This job never ran: queue it again
                # at the same attempt for the fresh pool.
                info = _Inflight(spec, key, list(names), attempt, 0.0)
                requeue(info, attempt, 0.0)
                return
            futures[future] = _Inflight(
                spec, key, list(names), attempt, time.monotonic()
            )
            inflight[key] = future
            report.submitted += 1

        def requeue(info: _Inflight, attempt: int, delay: float) -> None:
            entry = {
                "ready_at": time.monotonic() + delay,
                "spec": info.spec,
                "key": info.key,
                "names": list(info.names),
                "attempt": attempt,
            }
            pending.append(entry)
            pending_keys[info.key] = entry

        def fail_and_retry(
            info: _Inflight, event: str, detail: Optional[str] = None
        ) -> None:
            incident = {
                "key": info.key,
                "nodes": list(info.names),
                "attempt": info.attempt,
            }
            if detail is not None:
                incident["error"] = detail
            report.record(event, **incident)
            if event == "crash":
                report.crashes += 1
            elif event == "timeout":
                report.timeouts += 1
            attempt = info.attempt + 1
            if attempt > self.max_retries:
                report.record(
                    "exhausted",
                    key=info.key,
                    nodes=list(info.names),
                    attempts=attempt,
                )
                raise GraphFailure(
                    f"job {info.names[0]!r} (key {info.key[:12]}...) failed "
                    f"{attempt} time(s), last failure: {event}"
                    f"{'' if detail is None else f' ({detail})'}; retry "
                    f"budget was {self.max_retries}. Structured incident "
                    "log in this exception's .report",
                    report,
                )
            delay = self._retry_delay(info.key, attempt)
            report.retries += 1
            report.record(
                "retry",
                key=info.key,
                nodes=list(info.names),
                attempt=attempt,
                delay=round(delay, 3),
            )
            logger.warning(
                "orchestrator: job %s failed (%s); retry %d/%d in %.2fs",
                info.names[0],
                event,
                attempt,
                self.max_retries,
                delay,
            )
            requeue(info, attempt, delay)

        try:
            while remaining or futures or pending:
                progressed = True
                while progressed:
                    progressed = False
                    for name in list(remaining):
                        node = remaining[name]
                        if not all(dep in results for dep in node.deps):
                            continue
                        spec = node.build(results)
                        key, cached = self._lookup(
                            prepared, spec, setup_doc=setup_doc, memo=memo
                        )
                        if cached is not None:
                            results[name] = cached
                            progressed = True
                        elif key in inflight:
                            futures[inflight[key]].names.append(name)
                        elif key in pending_keys:
                            pending_keys[key]["names"].append(name)
                        else:
                            submit(spec, key, [name], 0)
                        del remaining[name]
                # Release retries whose backoff has elapsed.
                now = time.monotonic()
                due = [e for e in pending if e["ready_at"] <= now]
                if due:
                    pending[:] = [e for e in pending if e["ready_at"] > now]
                    for entry in due:
                        del pending_keys[entry["key"]]
                        submit(
                            entry["spec"],
                            entry["key"],
                            entry["names"],
                            entry["attempt"],
                        )
                if not futures:
                    if pending:
                        time.sleep(
                            max(
                                0.0,
                                min(e["ready_at"] for e in pending)
                                - time.monotonic(),
                            )
                        )
                        continue
                    if remaining:
                        raise ValueError(
                            "job graph contains a dependency cycle"
                        )
                    break
                done, _ = wait(
                    list(futures),
                    timeout=self._wait_timeout(futures, pending),
                    return_when=FIRST_COMPLETED,
                )
                pool_broken = False
                for future in done:
                    info = futures.pop(future)
                    inflight.pop(info.key, None)
                    try:
                        doc = future.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        fail_and_retry(info, "crash")
                        continue
                    except Exception as error:
                        fail_and_retry(info, "error", detail=repr(error))
                        continue
                    try:
                        self._persist(
                            prepared, info.spec, info.key, doc,
                            setup_doc=setup_doc,
                        )
                    except ResultStoreError as error:
                        # The result is in hand; losing its memoization is
                        # recoverable and must not kill the graph.
                        report.record(
                            "store-error", key=info.key, error=str(error)
                        )
                        logger.warning("%s", error)
                    decoded = self._decode(prepared, info.spec, doc)
                    memo[info.key] = decoded
                    for name in info.names:
                        results[name] = decoded
                if pool_broken:
                    # A dead worker poisons the whole pool: every other
                    # inflight future fails with BrokenProcessPool too.
                    # They are victims, not culprits — resubmit them on a
                    # fresh pool at the same attempt, immediately.
                    for victim in futures.values():
                        requeue(victim, victim.attempt, 0.0)
                    futures.clear()
                    inflight.clear()
                    self._shutdown_pool(pool, force=True)
                    pool = None
                    continue
                if self.job_timeout is not None and futures:
                    poisoned = self._enforce_timeouts(
                        futures, inflight, fail_and_retry, requeue
                    )
                    if poisoned:
                        # A stuck running task cannot be cancelled — the
                        # pool itself must go. Futures already *done* stay
                        # in the books: their results live in the future
                        # objects and survive the shutdown.
                        self._shutdown_pool(pool, force=True)
                        pool = None
        finally:
            if pool is not None:
                self._shutdown_pool(pool, force=bool(futures))
        return results

    def _wait_timeout(
        self, futures: Dict[Any, _Inflight], pending: List[dict]
    ) -> Optional[float]:
        """How long the scheduler may block: until the next retry becomes
        due or the oldest inflight job would exceed ``job_timeout``."""
        timeout: Optional[float] = None
        now = time.monotonic()
        if pending:
            timeout = max(
                0.0, min(e["ready_at"] for e in pending) - now
            )
        if self.job_timeout is not None:
            oldest = min(info.started for info in futures.values())
            until_deadline = max(0.0, oldest + self.job_timeout - now)
            timeout = (
                until_deadline
                if timeout is None
                else min(timeout, until_deadline)
            )
        return timeout

    def _enforce_timeouts(
        self,
        futures: Dict[Any, _Inflight],
        inflight: Dict[str, Any],
        fail_and_retry: Callable[..., None],
        requeue: Callable[..., None],
    ) -> bool:
        """Handle jobs running past ``job_timeout``.

        Returns whether the pool is now poisoned and must be replaced. A
        :class:`ProcessPoolExecutor` cannot cancel a *running* task, so
        one overdue job costs the whole pool: overdue jobs retry with
        backoff, on-time victims resubmit immediately at their current
        attempt, and futures that already completed (but are not yet
        collected) stay — their results survive the pool.
        """
        now = time.monotonic()
        overdue = {
            future
            for future, info in futures.items()
            if not future.done() and now - info.started >= self.job_timeout
        }
        if not overdue:
            return False
        for future, info in list(futures.items()):
            if future.done():
                continue
            del futures[future]
            inflight.pop(info.key, None)
            if future in overdue:
                fail_and_retry(info, "timeout")
            else:
                requeue(info, info.attempt, 0.0)
        return True

    def _retry_delay(self, key: str, attempt: int) -> float:
        """Exponential backoff with deterministic, key-seeded jitter."""
        base = self.retry_base_delay * (2.0 ** (attempt - 1))
        jitter = float(
            spawn_rng(self.retry_seed, "retry", key, str(attempt)).random()
        )
        return min(self.RETRY_MAX_DELAY, base) * (1.0 + 0.25 * jitter)

    @staticmethod
    def _shutdown_pool(
        pool: Optional[ProcessPoolExecutor], *, force: bool = False
    ) -> None:
        """Shut a pool down; ``force`` terminates workers outright.

        The forced path runs when jobs are still inflight (timeout or
        crash recovery, ``KeyboardInterrupt``, a fatal error): a graceful
        ``shutdown()`` would block on — or leak — running workers, so
        they are terminated and reaped instead.
        """
        if pool is None:
            return
        if not force:
            pool.shutdown()
            return
        processes = list((getattr(pool, "_processes", None) or {}).values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        finally:
            for process in processes:
                if process.is_alive():
                    process.terminate()
            for process in processes:
                process.join(timeout=5)

    def _lookup(
        self,
        prepared: PreparedSetup,
        spec: JobSpec,
        *,
        setup_doc: Optional[dict] = None,
        memo: Optional[Dict[str, Any]] = None,
    ) -> Tuple[str, Optional[Any]]:
        """Return ``(key, decoded result or None)`` for ``spec``.

        ``memo`` (a per-graph in-memory ``{key: decoded}`` map) is checked
        before the store; the store decodes its entry itself, so a payload
        that fails to decode is a corrupt miss (see :meth:`ResultStore.get`).
        """
        key = job_key(prepared, spec, setup_doc=setup_doc)
        if memo is not None and key in memo:
            return key, memo[key]
        if self.store is None:
            return key, None
        return key, self.store.get(
            key, lambda payload: self._decode(prepared, spec, payload)
        )

    def _persist(
        self,
        prepared: PreparedSetup,
        spec: JobSpec,
        key: str,
        doc: dict,
        *,
        setup_doc: Optional[dict] = None,
    ) -> None:
        if self.store is not None:
            self.store.put(
                key,
                job_key_doc(prepared, spec, setup_doc=setup_doc),
                spec.kind,
                doc,
            )

    def _run_one(
        self,
        prepared: PreparedSetup,
        spec: JobSpec,
        *,
        setup_doc: Optional[dict] = None,
        memo: Optional[Dict[str, Any]] = None,
    ) -> Any:
        key, cached = self._lookup(
            prepared, spec, setup_doc=setup_doc, memo=memo
        )
        if cached is not None:
            return cached
        doc = _execute_spec(prepared, spec)
        try:
            self._persist(prepared, spec, key, doc, setup_doc=setup_doc)
        except ResultStoreError as error:
            # The computed result is in hand; losing its memoization is
            # recoverable and must not kill the run.
            if self.last_report is not None:
                self.last_report.record(
                    "store-error", key=key, error=str(error)
                )
            logger.warning("%s", error)
        decoded = self._decode(prepared, spec, doc)
        if memo is not None:
            memo[key] = decoded
        return decoded

    def _decode(
        self, prepared: PreparedSetup, spec: JobSpec, doc: dict
    ) -> Any:
        if isinstance(spec, EquilibriumJob):
            problem = apply_variant(prepared, spec.variant).problem
            return outcome_from_doc(doc, problem)
        return history_from_doc(doc)

    # High-level batteries ---------------------------------------------------

    def equilibrium_outcome(
        self,
        prepared: PreparedSetup,
        scheme: Optional[Any] = None,
        *,
        variant: Variant = None,
    ) -> Any:
        """One cached/parallelizable scheme application (Table-V building
        block)."""
        spec = _scheme_spec(scheme, variant)
        return self._run_one(prepared, spec)

    def run_comparison(
        self,
        prepared: PreparedSetup,
        *,
        repeats: Optional[int] = None,
        schemes: Optional[Sequence[Any]] = None,
        train: bool = True,
        variant: Variant = None,
        participation: Optional[Any] = None,
        exclude_zero: bool = False,
        algorithm: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """Orchestrated :func:`~repro.experiments.runner.run_pricing_comparison`.

        Builds the ``equilibrium -> {train(seed)}`` DAG per scheme and
        returns ``{scheme name: SchemeResult}``.

        ``participation`` and ``exclude_zero`` are forwarded to every train
        job (see :class:`TrainJob`); a plain-Bernoulli spec is normalized
        to ``None`` so it shares cache entries with the historical path.
        ``algorithm`` overrides this orchestrator's default local-update
        rule for the battery (plain FedAvg normalizes to ``None`` for the
        same cache-sharing reason).
        """
        from repro.experiments.runner import SchemeResult, default_schemes

        if repeats is None:
            repeats = prepared.config.repeats
        if schemes is None:
            schemes = default_schemes()
        if participation is not None and participation.kind == "bernoulli":
            participation = None
        if algorithm is None:
            algorithm = self.algorithm
        else:
            spec = coerce_algorithm(algorithm)
            algorithm = None if spec.is_default else spec

        def train_job(q_vector: Tuple[float, ...], seed: int) -> TrainJob:
            # exclude_zero is a no-op unless q actually contains an exact
            # zero; normalizing it away keeps zero-free jobs on their
            # historical cache keys.
            return TrainJob(
                q=q_vector,
                seed=seed,
                participation=participation,
                exclude_zero=exclude_zero and 0.0 in q_vector,
                algorithm=algorithm,
                execution=self.execution,
                checkpoint=self.checkpoint,
            )

        nodes: List[JobNode] = []
        # Schemes outside the registry (user subclasses of PricingScheme)
        # can't be shipped to workers or cached by name, so their solves run
        # inline here — their train jobs still parallelize/memoize, since a
        # train job depends only on the induced q vector.
        inline_outcomes: Dict[str, Any] = {}
        for scheme in schemes:
            eq_name = f"eq/{scheme.name}"
            if type(scheme).__name__ in _scheme_registry():
                spec = _scheme_spec(scheme, variant)
                nodes.append(
                    JobNode(name=eq_name, build=lambda _, s=spec: s)
                )
            else:
                inline_outcomes[scheme.name] = scheme.apply(
                    apply_variant(prepared, variant).problem
                )
            if train:
                for seed in range(repeats):
                    if scheme.name in inline_outcomes:
                        q_vector = tuple(
                            float(v) for v in inline_outcomes[scheme.name].q
                        )
                        nodes.append(
                            JobNode(
                                name=f"train/{scheme.name}/{seed}",
                                build=lambda _, q=q_vector, s=seed: (
                                    train_job(q, s)
                                ),
                            )
                        )
                    else:
                        nodes.append(
                            JobNode(
                                name=f"train/{scheme.name}/{seed}",
                                deps=(eq_name,),
                                build=lambda results, e=eq_name, s=seed: (
                                    train_job(
                                        tuple(
                                            float(v) for v in results[e].q
                                        ),
                                        s,
                                    )
                                ),
                            )
                        )
        results = self.run_graph(prepared, nodes)
        comparison: Dict[str, Any] = {}
        for scheme in schemes:
            histories = [
                results[f"train/{scheme.name}/{seed}"]
                for seed in range(repeats)
            ] if train else []
            outcome = inline_outcomes.get(
                scheme.name, results.get(f"eq/{scheme.name}")
            )
            comparison[scheme.name] = SchemeResult(
                outcome=outcome, histories=histories
            )
        return comparison

    def run_sweep(
        self,
        prepared: PreparedSetup,
        kind: str,
        values: Sequence[float],
        *,
        repeats: int = 1,
        train: bool = True,
    ) -> List[Any]:
        """Orchestrated Figs.-5-7 sweep under :class:`OptimalPricing`.

        Args:
            prepared: Base setup; each value derives a variant via the
                matching ``with_<kind>`` copy.
            kind: ``"mean_value"``, ``"mean_cost"``, or ``"budget"``.
            values: Swept parameter values.
            repeats: Training seeds per sweep point.
            train: When ``False`` only equilibria are solved.
        """
        from repro.experiments.runner import SchemeResult, SweepPoint
        from repro.game import OptimalPricing

        if kind not in _VARIANT_KINDS:
            raise ValueError(
                f"unknown sweep kind {kind!r}; choose from {_VARIANT_KINDS}"
            )
        nodes: List[JobNode] = []
        for index, value in enumerate(values):
            spec = _scheme_spec(OptimalPricing(), (kind, float(value)))
            eq_name = f"eq/{index}"
            nodes.append(JobNode(name=eq_name, build=lambda _, s=spec: s))
            if train:
                for seed in range(repeats):
                    nodes.append(
                        JobNode(
                            name=f"train/{index}/{seed}",
                            deps=(eq_name,),
                            build=lambda results, e=eq_name, s=seed: TrainJob(
                                q=tuple(float(v) for v in results[e].q),
                                seed=s,
                                algorithm=self.algorithm,
                                execution=self.execution,
                                checkpoint=self.checkpoint,
                            ),
                        )
                    )
        results = self.run_graph(prepared, nodes)
        points = []
        for index, value in enumerate(values):
            histories = [
                results[f"train/{index}/{seed}"] for seed in range(repeats)
            ] if train else []
            points.append(
                SweepPoint(
                    parameter=float(value),
                    result=SchemeResult(
                        outcome=results[f"eq/{index}"], histories=histories
                    ),
                )
            )
        return points


def _scheme_spec(scheme: Optional[Any], variant: Variant) -> EquilibriumJob:
    """Build the :class:`EquilibriumJob` identifying ``scheme``."""
    from repro.game import OptimalPricing

    if scheme is None:
        scheme = OptimalPricing()
    cls = type(scheme).__name__
    if cls not in _scheme_registry():
        raise ValueError(
            f"scheme {cls!r} is not orchestratable; register it in "
            "repro.experiments.orchestrator or run it serially via "
            "scheme.apply(problem)"
        )
    return EquilibriumJob(
        scheme_class=cls,
        scheme_name=scheme.name,
        method=getattr(scheme, "method", None),
        variant=variant,
        params=getattr(scheme, "spec_params", None),
    )
