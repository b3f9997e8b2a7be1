"""Parallel experiment orchestration with content-addressed result caching.

Reproducing the paper's Fig. 4-7 curves and Tables II-V means many
independent (setup x pricing-scheme x seed) equilibrium solves and FL
training runs. This module decomposes those batteries into a DAG of *pure
jobs* and executes independent jobs across a process pool (or inline, at
``jobs=1``), memoizing every job in an on-disk result store so re-runs and
partial sweeps are near-instant. Both run through one scheduling loop, so
retries and the :class:`GraphReport` apply at every ``jobs`` count; only
``job_timeout`` needs a pool, since an inline job cannot be stopped.

Job kinds
=========

* :class:`EquilibriumJob` — apply one pricing scheme to one (possibly
  variant) prepared setup; produces a
  :class:`~repro.game.pricing.PricingOutcome`.
* :class:`TrainJob` — one FL training run at a fixed participation vector
  ``q`` and seed; produces a :class:`~repro.fl.history.TrainingHistory`.
  Due train jobs that share ``(execution, algorithm)`` are submitted
  together as one *lockstep group* (one trainer advancing all their runs
  with shared kernel calls, see
  :func:`~repro.experiments.runner.run_histories`); each member is still
  keyed, cached and checkpointed on its own, and its history equals its
  solo run's.

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
duplicate keys are coalesced in memory — onto one submission while queued
or in flight, and onto the already-decoded result afterwards (a
:class:`ResultCache`) — so the sharing holds even without an on-disk store.

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
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

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


class ResultCache:
    """Decoded results in memory over an optional :class:`ResultStore`.

    The one cache tier of both the orchestrator (one per graph run) and
    :class:`~repro.api.ApiRuntime` (one per runtime). :meth:`get` checks
    the in-memory memo, then the store, and memoizes a store hit, so each
    key is read from disk at most once per cache and every caller of a
    key receives the same object (treat it as read-only). It has one
    policy per failure: a corrupt store entry is a logged, counted miss
    (see :meth:`ResultStore.get`), and a failed store write is logged and
    returned to the caller to report, never raised, since the result is
    already in hand. Thread-safe: the memo and the store probe sit under
    one lock; store writes (atomic per file) run outside it.
    """

    def __init__(self, store: Optional[ResultStore] = None):
        self.store = store
        self._memo: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def get(self, key: str, decode: Callable[[dict], Any]) -> Any:
        """The result cached under ``key`` (``decode`` reads a stored
        document), or ``None`` on a miss."""
        with self._lock:
            if key in self._memo:
                return self._memo[key]
            if self.store is None:
                return None
            result = self.store.get(key, decode)
            if result is not None:
                self._memo[key] = result
            return result

    def put(
        self, key: str, key_doc: dict, kind: str, doc: dict, result: Any
    ) -> Optional[ResultStoreError]:
        """Memoize ``result`` and persist its encoded ``doc``; returns the
        store-write error (already logged), or ``None``."""
        with self._lock:
            self._memo[key] = result
        if self.store is None:
            return None
        try:
            self.store.put(key, key_doc, kind, doc)
        except ResultStoreError as error:
            logger.warning("%s", error)
            return error
        return None


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
    from repro.game import MECHANISMS

    return {cls.__name__: cls for cls in MECHANISMS.values()}


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


def _job_checkpoint(spec: TrainJob) -> TrainJob:
    """``spec`` checkpointing into its own key-derived subdirectory.

    Keyed by the job's own identity, so concurrent jobs, the members of a
    lockstep group and retries of one job each land in a stable,
    collision-free location.
    """
    if spec.checkpoint is None:
        return spec
    digest = content_address({"kind": spec.kind, **spec.key_fields()})
    return dataclasses.replace(
        spec,
        checkpoint=dataclasses.replace(
            spec.checkpoint,
            directory=str(Path(spec.checkpoint.directory) / digest[:16]),
        ),
    )


def _execute_spec(
    prepared: PreparedSetup, specs: Sequence[JobSpec]
) -> List[dict]:
    """Run one scheduled unit and return one *encoded* payload per spec.

    A unit is one equilibrium job, or a lockstep group of train jobs that
    share ``(execution, algorithm)``: the group trains through one
    :func:`~repro.experiments.runner.run_histories` call, and each
    member's history equals its solo run. Both inline and pool units
    return encoded documents, and the orchestrator always decodes before
    handing results to callers — so fresh, parallel, grouped and
    cache-hit results pass through the exact same codec and are
    indistinguishable.
    """
    if all(isinstance(spec, TrainJob) for spec in specs):
        from repro.experiments.runner import run_histories

        histories = run_histories(
            prepared, [_job_checkpoint(spec) for spec in specs]
        )
        return [history_to_doc(history) for history in histories]
    docs = []
    for spec in specs:
        if not isinstance(spec, EquilibriumJob):
            raise TypeError(f"unknown job spec {type(spec).__name__}")
        scheme = _build_scheme(spec)
        outcome = scheme.apply(apply_variant(prepared, spec.variant).problem)
        docs.append(outcome_to_doc(outcome))
    return docs


def _run_remote(
    specs: Sequence[JobSpec], attempts: Sequence[int], keys: Sequence[str]
) -> List[dict]:
    if _WORKER_PREPARED is None:
        raise RuntimeError("worker pool was not initialized with a setup")
    for spec, attempt, key in zip(specs, attempts, keys):
        faults.on_job(spec.kind, key, attempt)
    return _execute_spec(_WORKER_PREPARED, specs)


class _InlineExecutor(Executor):
    """Runs each submitted call in the calling process, at submission.

    Returns an already-completed future, so the scheduler collects the
    result (decode, persist, memoize) before it submits the next job. An
    exception becomes the future's, costing the job one attempt like a
    pool job's; a ``BaseException`` (``KeyboardInterrupt``) propagates.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as error:
            future.set_exception(error)
        return future


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
    :attr:`ExperimentOrchestrator.last_report` after every graph run
    (and attached to :class:`GraphFailure` when the run dies).
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
    """A job exhausted its retry budget; carries the graph's report.

    Raised from the job's last exception (``__cause__``) when it had one.
    """

    def __init__(self, message: str, report: GraphReport):
        super().__init__(message)
        self.report = report


@dataclass
class _Inflight:
    """One job from its cache miss to its result.

    Queued while it waits for a free slot or out its retry backoff (until
    ``ready_at``), then in flight from ``started``. ``names`` are the
    nodes awaiting its result.
    """

    spec: JobSpec
    key: str
    names: List[str]
    attempt: int = 0
    ready_at: float = 0.0
    started: float = 0.0


def _submission_units(
    due: List[_Inflight], slots: int
) -> List[List[_Inflight]]:
    """Split the due jobs into at most ``slots`` submissions.

    Each equilibrium job is a unit of its own. Train jobs that share
    ``(execution, algorithm)`` form one lockstep group, placed where the
    first of them is queued. Units are taken in queue order, one per
    slot; slots left over split the taken train groups evenly (a group of
    ``n`` over ``s`` slots runs as ``s`` contiguous pieces of ``n // s``
    or ``n // s + 1`` jobs), so every worker gets a share of the training.
    """
    units: List[List[_Inflight]] = []
    groups: Dict[tuple, List[_Inflight]] = {}
    for job in due:
        spec = job.spec
        if not isinstance(spec, TrainJob):
            units.append([job])
            continue
        share = (spec.execution, spec.algorithm)
        if share not in groups:
            groups[share] = []
            units.append(groups[share])
        groups[share].append(job)
    units = units[:slots]
    pieces = [1] * len(units)
    spare = slots - len(units)
    while spare > 0:
        growable = [
            index
            for index, unit in enumerate(units)
            if isinstance(unit[0].spec, TrainJob) and pieces[index] < len(unit)
        ][:spare]
        if not growable:
            break
        for index in growable:
            pieces[index] += 1
        spare -= len(growable)
    split = []
    for unit, count in zip(units, pieces):
        size, extra = divmod(len(unit), count)
        start = 0
        for piece in range(count):
            end = start + size + (piece < extra)
            split.append(unit[start:end])
            start = end
    return split


class ExperimentOrchestrator:
    """Executes job DAGs across a worker pool with result memoization.

    Args:
        jobs: Submission units (one job, or a lockstep group of train
            jobs) in flight at once. ``1`` (the default) runs each unit
            inline in the calling process — no pool, no pickling — which
            is also the reference order for the determinism contract;
            ``N > 1`` runs them on ``N`` worker processes. Both go through
            the same retry and report path.
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
            stuck (a lockstep group of ``k`` train jobs gets ``k`` times
            this, since it does ``k`` jobs' work); the pool is torn down
            (a running task cannot be cancelled individually), every
            member of the overdue unit is retried with backoff, and
            on-time victims are resubmitted without penalty.
            An inline (``jobs=1``) job cannot be stopped, so the timeout
            applies to pooled jobs only. ``None`` (default) disables
            timeouts.
        max_retries: Retry budget *per job* for crashes/timeouts/errors,
            at every ``jobs`` count; exceeding it raises
            :class:`GraphFailure` carrying the structured
            :class:`GraphReport`.
        retry_base_delay: First-retry backoff in seconds; doubles each
            further attempt, plus seeded jitter.
        retry_seed: Seed for the deterministic backoff jitter.
        fault_plan: A :class:`repro.faults.FaultPlan` shipped to every
            pool worker (chaos testing); inline jobs never consult it.
            ``None`` injects nothing.

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

        A ready node (all dependencies resolved) joins a job already
        queued or in flight under its key, else resolves from the cache,
        else queues a job. Queued jobs are submitted in units while fewer
        than ``jobs`` units are in flight: each equilibrium job alone, and
        the due train jobs sharing ``(execution, algorithm)`` as one
        lockstep group, split evenly across the free slots (see
        :func:`_submission_units`). Units go to a process pool, or at
        ``jobs=1`` to an inline executor that runs each unit in the
        calling process before the next is submitted. Node results are
        deterministic and a group member's history equals its solo run's,
        so scheduling and grouping never affect values.

        One loop serves every ``jobs`` count. A unit that raises, or whose
        worker dies (:class:`~concurrent.futures.process.BrokenProcessPool`),
        charges each of its jobs one attempt, and each is retried up to
        ``max_retries`` times with exponential backoff and seeded jitter
        (regrouped with whatever is due then), as are the jobs of a pool
        unit that exceeds its timeout (an inline unit cannot be stopped);
        a dead or stuck pool is replaced, and the other jobs it held are
        resubmitted without penalty. Every incident lands in
        :attr:`last_report`; a job that exhausts its budget raises
        :class:`GraphFailure` from its last exception. Each result is
        persisted as it is collected, so an interrupted run keeps every
        finished job (every member of a finished group). The pool is
        always shut down — forcibly (terminating workers) when jobs were
        still in flight, as on ``KeyboardInterrupt``.
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
        # every client array). The cache memoizes decoded results by key
        # for the run's duration, so nodes sharing a key (two schemes
        # inducing the same q vector) compute once even without a store.
        setup_doc = setup_fingerprint(prepared)
        cache = ResultCache(self.store)
        report = GraphReport()
        self.last_report = report
        # The executor (for a pool, with the multi-megabyte setup pickle
        # its initializer ships) is created lazily on the first cache
        # miss, so a fully warm re-run never pays worker startup at all.
        executor: Optional[Executor] = None
        payload: Optional[bytes] = None
        # An inline job runs on `prepared` itself; a pool job on the copy
        # its worker's initializer unpickled.
        if self.jobs == 1:
            def task(specs, attempts, keys) -> List[dict]:
                return _execute_spec(prepared, specs)
        else:
            task = _run_remote
        # Every job between its cache miss and its result, by key; nodes
        # sharing a key coalesce onto it. `queue` holds those not in
        # flight, in order; `futures` the submitted units (one job, or a
        # lockstep group of train jobs) in flight.
        open_jobs: Dict[str, _Inflight] = {}
        queue: List[_Inflight] = []
        futures: Dict[Future, List[_Inflight]] = {}

        def submit(group: List[_Inflight]) -> None:
            nonlocal executor, payload
            if executor is None and self.jobs == 1:
                executor = _InlineExecutor()
            elif executor is None:
                # Pickled once, however often a broken pool is replaced.
                payload = payload or pickle.dumps(
                    prepared, protocol=pickle.HIGHEST_PROTOCOL
                )
                executor = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=_init_worker,
                    initargs=(payload, self.fault_plan),
                )
            started = time.monotonic()
            for job in group:
                job.started = started
            try:
                future = executor.submit(
                    task,
                    [job.spec for job in group],
                    [job.attempt for job in group],
                    [job.key for job in group],
                )
            except BrokenProcessPool:
                # A worker died since the last wait(); its own future
                # reports the crash. These jobs never ran: queue them
                # again at the same attempt for the fresh pool.
                for job in group:
                    requeue(job)
                return
            futures[future] = group
            report.submitted += len(group)

        def requeue(job: _Inflight, delay: float = 0.0) -> None:
            job.ready_at = time.monotonic() + delay
            queue.append(job)

        def fail_and_retry(
            job: _Inflight, event: str, error: Optional[Exception] = None
        ) -> None:
            detail = None if error is None else repr(error)
            incident = {
                "key": job.key,
                "nodes": list(job.names),
                "attempt": job.attempt,
            }
            if detail is not None:
                incident["error"] = detail
            report.record(event, **incident)
            if event == "crash":
                report.crashes += 1
            elif event == "timeout":
                report.timeouts += 1
            job.attempt += 1
            if job.attempt > self.max_retries:
                report.record(
                    "exhausted",
                    key=job.key,
                    nodes=list(job.names),
                    attempts=job.attempt,
                )
                raise GraphFailure(
                    f"job {job.names[0]!r} (key {job.key[:12]}...) failed "
                    f"{job.attempt} time(s), last failure: {event}"
                    f"{'' if detail is None else f' ({detail})'}; retry "
                    f"budget was {self.max_retries}. Structured incident "
                    "log in this exception's .report",
                    report,
                ) from error
            delay = self._retry_delay(job.key, job.attempt)
            report.retries += 1
            report.record(
                "retry",
                key=job.key,
                nodes=list(job.names),
                attempt=job.attempt,
                delay=round(delay, 3),
            )
            logger.warning(
                "orchestrator: job %s failed (%s); retry %d/%d in %.2fs",
                job.names[0],
                event,
                job.attempt,
                self.max_retries,
                delay,
            )
            requeue(job, delay)

        try:
            while remaining or open_jobs:
                progressed = True
                while progressed:
                    progressed = False
                    for name in list(remaining):
                        node = remaining[name]
                        if not all(dep in results for dep in node.deps):
                            continue
                        del remaining[name]
                        spec = node.build(results)
                        key = job_key(prepared, spec, setup_doc=setup_doc)
                        if key in open_jobs:
                            # Queued or in flight: join it, no cache probe.
                            open_jobs[key].names.append(name)
                            continue
                        cached = cache.get(
                            key,
                            lambda doc, s=spec: self._decode(prepared, s, doc),
                        )
                        if cached is None:
                            open_jobs[key] = _Inflight(spec, key, [name])
                            queue.append(open_jobs[key])
                        else:
                            results[name] = cached
                            progressed = True
                # Submit due jobs (new, or past their backoff) into the
                # free slots, train jobs as lockstep groups. At most `jobs`
                # units are in flight, so an inline result is collected
                # before the next unit runs, and a pool unit's timeout
                # clock starts when a worker is free for it.
                now = time.monotonic()
                due = [job for job in queue if job.ready_at <= now]
                for group in _submission_units(due, self.jobs - len(futures)):
                    for job in group:
                        queue.remove(job)
                    submit(group)
                if not futures:
                    if queue:
                        time.sleep(
                            max(
                                0.0,
                                min(job.ready_at for job in queue)
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
                    timeout=self._wait_timeout(futures, queue),
                    return_when=FIRST_COMPLETED,
                )
                pool_broken = False
                for future in done:
                    group = futures.pop(future)
                    try:
                        docs = future.result()
                    except BrokenProcessPool:
                        # A failed group charges every member one attempt.
                        pool_broken = True
                        for job in group:
                            fail_and_retry(job, "crash")
                        continue
                    except Exception as error:
                        for job in group:
                            fail_and_retry(job, "error", error)
                        continue
                    # Each member is memoized and persisted under its own
                    # key, in group order.
                    for job, doc in zip(group, docs):
                        del open_jobs[job.key]
                        decoded = self._decode(prepared, job.spec, doc)
                        store_error = cache.put(
                            job.key,
                            job_key_doc(
                                prepared, job.spec, setup_doc=setup_doc
                            ),
                            job.spec.kind,
                            doc,
                            decoded,
                        )
                        if store_error is not None:
                            # The result is in hand; losing its memoization
                            # is recoverable and must not kill the graph.
                            report.record(
                                "store-error",
                                key=job.key,
                                error=str(store_error),
                            )
                        for name in job.names:
                            results[name] = decoded
                if pool_broken:
                    # A dead worker poisons the whole pool: every other
                    # in-flight future fails with BrokenProcessPool too.
                    # They are victims, not culprits — resubmit them on a
                    # fresh pool at the same attempt, immediately.
                    for victims in futures.values():
                        for victim in victims:
                            requeue(victim)
                    futures.clear()
                    self._shutdown_pool(executor, force=True)
                    executor = None
                    continue
                if self.job_timeout is not None and futures:
                    if self._enforce_timeouts(
                        futures, fail_and_retry, requeue
                    ):
                        # A stuck running task cannot be cancelled — the
                        # pool itself must go. Futures already *done* stay
                        # in the books: their results live in the future
                        # objects and survive the shutdown.
                        self._shutdown_pool(executor, force=True)
                        executor = None
        finally:
            if executor is not None:
                self._shutdown_pool(executor, force=bool(futures))
        return results

    def _deadline(self, group: List[_Inflight]) -> float:
        """When an in-flight unit is overdue: a group does ``len(group)``
        jobs' work, so it gets ``job_timeout`` per member."""
        return group[0].started + self.job_timeout * len(group)

    def _wait_timeout(
        self, futures: Dict[Future, List[_Inflight]], queue: List[_Inflight]
    ) -> Optional[float]:
        """How long the scheduler may block: until the next retry leaves
        its backoff or the first in-flight unit would pass its deadline.
        A due job waiting for a slot waits for a completion."""
        timeout: Optional[float] = None
        now = time.monotonic()
        backoffs = [job.ready_at for job in queue if job.ready_at > now]
        if backoffs:
            timeout = min(backoffs) - now
        if self.job_timeout is not None:
            deadline = min(self._deadline(group) for group in futures.values())
            until_deadline = max(0.0, deadline - now)
            timeout = (
                until_deadline
                if timeout is None
                else min(timeout, until_deadline)
            )
        return timeout

    def _enforce_timeouts(
        self,
        futures: Dict[Future, List[_Inflight]],
        fail_and_retry: Callable[..., None],
        requeue: Callable[..., None],
    ) -> bool:
        """Handle units running past their deadline (``job_timeout`` per
        member, see :meth:`_deadline`).

        Returns whether the pool is now poisoned and must be replaced. A
        :class:`ProcessPoolExecutor` cannot cancel a *running* task, so
        one overdue unit costs the whole pool: every member of an overdue
        unit retries with backoff, on-time victims resubmit immediately at
        their current attempt, and futures that already completed (but are
        not yet collected) stay — their results survive the pool. Inline
        futures are complete on return, so they never time out.
        """
        now = time.monotonic()
        overdue = {
            future
            for future, group in futures.items()
            if not future.done() and now >= self._deadline(group)
        }
        if not overdue:
            return False
        for future, group in list(futures.items()):
            if future.done():
                continue
            del futures[future]
            for job in group:
                if future in overdue:
                    fail_and_retry(job, "timeout")
                else:
                    requeue(job)
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
        pool: Optional[Executor], *, force: bool = False
    ) -> None:
        """Shut an executor down; ``force`` terminates pool workers.

        The forced path runs when jobs are still in flight (timeout or
        crash recovery, ``KeyboardInterrupt``, a fatal error): a graceful
        ``shutdown()`` would block on — or leak — running workers, so
        they are terminated and reaped instead. The inline executor has
        nothing to shut down.
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

    def _decode(
        self, prepared: PreparedSetup, spec: JobSpec, doc: dict
    ) -> Any:
        if isinstance(spec, EquilibriumJob):
            problem = apply_variant(prepared, spec.variant).problem
            return outcome_from_doc(doc, problem)
        return history_from_doc(doc)

    # High-level batteries ---------------------------------------------------

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
