"""The blessed entry points: one public surface over the game machinery.

Before this module, pricing a fleet meant knowing which of
:mod:`repro.game.pricing`, :mod:`repro.game.mechanisms`,
:mod:`repro.scenarios.runner`, or the CLI internals to call.
:mod:`repro.api` collapses that to four functions over frozen
request/response dataclasses::

    from repro import api

    response = api.price(api.PriceRequest(scenario="megafleet",
                                          mechanism="uniform"))
    response.outcome.spending          # the rich object
    response.to_doc()                  # the versioned JSON envelope

* :func:`price` — apply one mechanism to one economy.
* :func:`best_response` — Stage-II best responses to posted prices.
* :func:`solve_equilibrium` — the Stackelberg equilibrium ``{P^SE, q^SE}``.
* :func:`run_scenario` — one scenario across the mechanism suite.

Economies are named, not constructed: a request references either a
registered ``scenario`` (game-only fleets materialize synthetically;
training scenarios run the full preparation pipeline) or a paper ``setup``
(``setup1``-``3`` through :func:`~repro.experiments.setup.prepare_setup`).

An :class:`ApiRuntime` holds the warm state: prepared economies (built
once, reused across requests), an optional content-addressed
:class:`~repro.experiments.orchestrator.ResultStore` as the cache tier,
and a :class:`~repro.observability.MetricsRegistry`. The CLI, the
:mod:`repro.service` HTTP server, and in-process callers all sit on this
one facade, so their answers are interchangeable:

* **Cache keys are shared with the orchestrator.** Economies that carry a
  :class:`~repro.experiments.setup.PreparedSetup` (paper setups, training
  scenarios) key their solves through the exact
  :func:`~repro.experiments.orchestrator.job_key` the batch pipeline uses
  — a store warmed by ``python -m repro.experiments equilibrium
  --cache-dir D`` serves the API (and the server), and vice versa.
  Game-only scenarios get API-scoped keys over the realized population
  fingerprint.
* **Responses are bit-deterministic.** The envelope's ``result`` (plus
  ``schema_version`` and ``population_fingerprint``) is a pure function of
  the request; only the ``trace`` (IDs, stage latencies, cache outcome)
  varies per call. A warm-cache request skips the ``solve`` stage
  entirely — visible in the trace's stage breakdown.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro import schemas
from repro.observability import MetricsRegistry, Trace
from repro.utils.serialization import (
    content_address,
    outcome_from_doc,
    outcome_to_doc,
)

#: Paper-setup names a request may reference.
SETUP_NAMES = ("setup1", "setup2", "setup3")


class ApiError(ValueError):
    """A request is malformed or references an unknown economy/mechanism.

    ``status`` is the HTTP status the service layer maps it to (400 for
    malformed requests, 404 for unknown names).
    """

    def __init__(self, message: str, *, status: int = 400):
        super().__init__(message)
        self.status = int(status)


def _check_economy_ref(scenario: Optional[str], setup: Optional[str]) -> None:
    if (scenario is None) == (setup is None):
        raise ApiError(
            "exactly one of 'scenario' (a registered scenario name) or "
            "'setup' (setup1/setup2/setup3) must be given"
        )
    if setup is not None and setup not in SETUP_NAMES:
        raise ApiError(
            f"unknown setup {setup!r}; choose from {SETUP_NAMES}",
            status=404,
        )


# Requests --------------------------------------------------------------------


@dataclass(frozen=True)
class PriceRequest:
    """Apply one pricing mechanism to one economy.

    Attributes:
        scenario: Registered scenario name (the economy source), or
        setup: a paper setup name — exactly one of the two.
        mechanism: A :data:`repro.game.MECHANISMS` name
            (default: ``"proposed"``).
        method: Solver-method override for method-taking mechanisms
            (``"kkt"``/``"m-search"``/``"approx"`` for proposed,
            ``"approx"`` for the level-searched benchmarks).
    """

    scenario: Optional[str] = None
    setup: Optional[str] = None
    mechanism: str = "proposed"
    method: Optional[str] = None

    def __post_init__(self) -> None:
        _check_economy_ref(self.scenario, self.setup)


@dataclass(frozen=True)
class BestResponseRequest:
    """Evaluate Stage-II best responses ``q*(P)`` to posted prices."""

    prices: Tuple[float, ...]
    scenario: Optional[str] = None
    setup: Optional[str] = None

    def __post_init__(self) -> None:
        _check_economy_ref(self.scenario, self.setup)
        object.__setattr__(
            self, "prices", tuple(float(p) for p in self.prices)
        )


@dataclass(frozen=True)
class EquilibriumRequest:
    """Solve the CPL game's Stackelberg equilibrium on one economy."""

    scenario: Optional[str] = None
    setup: Optional[str] = None
    method: str = "kkt"

    def __post_init__(self) -> None:
        _check_economy_ref(self.scenario, self.setup)
        if self.method not in ("kkt", "m-search", "approx"):
            raise ApiError(
                f"unknown method {self.method!r}; use 'kkt', 'm-search', "
                "or 'approx'"
            )


@dataclass(frozen=True)
class ScenarioRunRequest:
    """Run one registered scenario across a mechanism suite.

    Attributes:
        scenario: Registered scenario name.
        mechanisms: Mechanism names to run (default: the scenario's
            default suite).
        fast_suite: With ``mechanisms=None``, select the approximate
            (fast-tier) default suite.
        repeats: Training seeds per mechanism (training scenarios only;
            default: the scale profile's).
    """

    scenario: str = ""
    mechanisms: Optional[Tuple[str, ...]] = None
    fast_suite: bool = False
    repeats: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.scenario:
            raise ApiError("scenario name must be non-empty")
        if self.mechanisms is not None:
            object.__setattr__(
                self, "mechanisms", tuple(str(m) for m in self.mechanisms)
            )
        if self.repeats is not None and self.repeats < 1:
            raise ApiError(f"repeats must be >= 1, got {self.repeats}")


# Responses -------------------------------------------------------------------


@dataclass(frozen=True)
class PriceResponse:
    """One mechanism's outcome plus the response envelope's parts."""

    outcome: Any
    population_fingerprint: str
    cached: bool
    trace: Trace
    result: dict

    kind = "pricing-response"
    schema_version = schemas.SCHEMA_VERSIONS["pricing-response"]

    def to_doc(self) -> dict:
        """The versioned ``pricing-response/v1`` envelope."""
        return schemas.envelope(
            self.kind,
            self.result,
            population_fingerprint=self.population_fingerprint,
            trace=self.trace.to_doc(),
        )


@dataclass(frozen=True)
class BestResponseResponse:
    """Stage-II best responses ``q*`` to the requested prices."""

    prices: np.ndarray
    q: np.ndarray
    population_fingerprint: str
    trace: Trace
    result: dict

    kind = "best-response"
    schema_version = schemas.SCHEMA_VERSIONS["best-response"]

    def to_doc(self) -> dict:
        """The versioned ``best-response/v1`` envelope."""
        return schemas.envelope(
            self.kind,
            self.result,
            population_fingerprint=self.population_fingerprint,
            trace=self.trace.to_doc(),
        )


@dataclass(frozen=True)
class EquilibriumResponse:
    """The Stackelberg equilibrium plus its scalar summary."""

    equilibrium: Any
    population_fingerprint: str
    cached: bool
    trace: Trace
    result: dict

    kind = "equilibrium-response"
    schema_version = schemas.SCHEMA_VERSIONS["equilibrium-response"]

    def to_doc(self) -> dict:
        """The versioned ``equilibrium-response/v1`` envelope."""
        return schemas.envelope(
            self.kind,
            self.result,
            population_fingerprint=self.population_fingerprint,
            trace=self.trace.to_doc(),
        )


@dataclass(frozen=True)
class ScenarioRunResponse:
    """One scenario's (mechanism x metrics) cells."""

    cells: List[Any]
    population_fingerprint: str
    cached: bool
    trace: Trace
    result: dict

    kind = "scenario-run"
    schema_version = schemas.SCHEMA_VERSIONS["scenario-run"]

    def to_doc(self) -> dict:
        """The versioned ``scenario-run/v1`` envelope."""
        return schemas.envelope(
            self.kind,
            self.result,
            population_fingerprint=self.population_fingerprint,
            trace=self.trace.to_doc(),
        )


# Runtime ---------------------------------------------------------------------


class ApiRuntime:
    """Warm state shared by every facade call (and the service).

    Args:
        scale: Scale-profile name (default: the ``REPRO_SCALE``
            environment / ``bench``).
        seed: Root seed for every economy's streams.
        cache_dir: Directory for a content-addressed
            :class:`~repro.experiments.orchestrator.ResultStore` cache
            tier (ignored when ``store`` or an orchestrator-with-store is
            given).
        store: A pre-built store to multiplex (the CLI passes the
            orchestrator's so both surfaces share one cache).
        orchestrator: An
            :class:`~repro.experiments.orchestrator.ExperimentOrchestrator`
            for training-scenario cells; its store (when it has one)
            becomes the runtime's cache tier.
        metrics: A :class:`~repro.observability.MetricsRegistry`
            (default: a fresh one).

    Economies are prepared once per runtime and kept warm: scenario
    populations through one shared
    :class:`~repro.scenarios.runner.ScenarioRunner` (memoized per
    population fingerprint), paper setups through
    :func:`~repro.experiments.setup.prepare_setup` memoized per name.
    Preparation and scenario execution run under a lock; solves on warm
    economies are pure and run concurrently.
    """

    def __init__(
        self,
        *,
        scale: Optional[str] = None,
        seed: int = 0,
        cache_dir: Optional[Any] = None,
        store: Optional[Any] = None,
        orchestrator: Optional[Any] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        from repro.experiments.configs import resolve_scale
        from repro.experiments.orchestrator import ResultStore
        from repro.scenarios import ScenarioRunner

        self.scale = resolve_scale(scale)
        self.seed = int(seed)
        self.orchestrator = orchestrator
        if store is None and orchestrator is not None:
            store = orchestrator.store
        if store is None and cache_dir is not None:
            store = ResultStore(cache_dir)
        self.store = store
        self.metrics = metrics or MetricsRegistry()
        self._lock = threading.RLock()
        self._runner = ScenarioRunner(
            scale=self.scale.name, seed=self.seed, orchestrator=orchestrator
        )
        self._setups: Dict[str, Any] = {}
        self._setup_docs: Dict[str, dict] = {}
        self._fingerprints: Dict[str, str] = {}
        self._memo: Dict[str, dict] = {}

    # Economy lifecycle -------------------------------------------------------

    def economy(
        self, scenario: Optional[str], setup: Optional[str]
    ) -> Tuple[Any, Optional[Any], str]:
        """Resolve (and keep warm) the referenced economy.

        Returns ``(problem, prepared_setup_or_None, population
        fingerprint)``. Unknown names raise :class:`ApiError` with a
        404-mapped status.
        """
        from repro.scenarios import get_scenario

        _check_economy_ref(scenario, setup)
        with self._lock:
            if scenario is not None:
                try:
                    spec = get_scenario(scenario)
                except KeyError as error:
                    raise ApiError(error.args[0], status=404) from None
                concrete = self._runner.prepare(spec)
                problem, prepared = concrete.problem, concrete.prepared
                ref = f"scenario/{scenario}"
            else:
                if setup not in self._setups:
                    from repro.experiments.configs import SETUPS, apply_scale
                    from repro.experiments.setup import prepare_setup

                    config = apply_scale(SETUPS[setup], self.scale)
                    self._setups[setup] = prepare_setup(
                        config, scale=self.scale, seed=self.seed
                    )
                prepared = self._setups[setup]
                problem = prepared.problem
                ref = f"setup/{setup}"
            if ref not in self._fingerprints:
                self._fingerprints[ref] = schemas.problem_fingerprint(problem)
            return problem, prepared, self._fingerprints[ref]

    def scenario_spec(self, name: str) -> Any:
        """The registered :class:`~repro.scenarios.ScenarioSpec`, or 404."""
        from repro.scenarios import get_scenario

        try:
            return get_scenario(name)
        except KeyError as error:
            raise ApiError(error.args[0], status=404) from None

    # Cache tier --------------------------------------------------------------

    def _setup_doc(self, ref: str, prepared: Any) -> dict:
        """Memoized :func:`setup_fingerprint` (it digests client arrays)."""
        from repro.experiments.orchestrator import setup_fingerprint

        with self._lock:
            if ref not in self._setup_docs:
                self._setup_docs[ref] = setup_fingerprint(prepared)
            return self._setup_docs[ref]

    def solve_key(
        self,
        prepared: Optional[Any],
        fingerprint: str,
        spec: Any,
        ref: str,
    ) -> Tuple[str, dict]:
        """``(cache key, key document)`` for one equilibrium-type solve.

        Economies with a :class:`PreparedSetup` use the orchestrator's
        :func:`job_key` verbatim — the whole point being that the batch
        CLI and the service share one store. Game-only economies (no
        prepared setup) are keyed by the realized population fingerprint
        under an API-scoped kind.
        """
        from repro.experiments.orchestrator import (
            CACHE_SCHEMA_VERSION,
            job_key_doc,
        )

        if prepared is not None:
            key_doc = job_key_doc(
                prepared, spec, setup_doc=self._setup_doc(ref, prepared)
            )
        else:
            key_doc = {
                "schema": CACHE_SCHEMA_VERSION,
                "code": repro.__version__,
                "kind": f"api-{spec.kind}",
                "population": fingerprint,
                "job": spec.key_fields(),
            }
        return content_address(key_doc), key_doc

    def cache_get(self, key: str, decode: Callable[[dict], Any]) -> Any:
        """``decode`` of the cached document for ``key``: the in-memory
        memo first, then the store; ``None`` on a miss.

        A document that ``decode`` rejects is a miss, so it is recomputed;
        in the store it is also a logged, counted corrupt entry (see
        :meth:`~repro.experiments.orchestrator.ResultStore.get`).
        """
        from repro.experiments.orchestrator import DECODE_ERRORS

        with self._lock:
            doc = self._memo.get(key)
        if doc is None:
            return None if self.store is None else self.store.get(key, decode)
        try:
            return decode(doc)
        except DECODE_ERRORS:
            return None

    def cache_put(self, key: str, key_doc: dict, kind: str, doc: dict) -> None:
        """Memoize in memory and (when a store exists) on disk."""
        with self._lock:
            self._memo[key] = doc
        if self.store is not None:
            from repro.experiments.orchestrator import ResultStoreError

            try:
                self.store.put(key, key_doc, kind, doc)
            except ResultStoreError:
                # The computed result is in hand; losing its memoization
                # must not fail the request.
                pass


_DEFAULT_RUNTIME: Optional[ApiRuntime] = None
_DEFAULT_LOCK = threading.Lock()


def default_runtime() -> ApiRuntime:
    """The process-wide runtime used when a call passes none."""
    global _DEFAULT_RUNTIME
    with _DEFAULT_LOCK:
        if _DEFAULT_RUNTIME is None:
            _DEFAULT_RUNTIME = ApiRuntime()
        return _DEFAULT_RUNTIME


def _build_mechanism(name: str, method: Optional[str]) -> Any:
    from repro.game import MECHANISMS

    if name not in MECHANISMS:
        raise ApiError(
            f"unknown mechanism {name!r}; choose from {sorted(MECHANISMS)}",
            status=404,
        )
    if method is not None and method not in ("kkt", "m-search", "approx"):
        # Schemes store the method and only consult it at solve time;
        # validate eagerly so a typo is a 400, not a mid-solve 500.
        raise ApiError(
            f"unknown method {method!r}; use 'kkt', 'm-search', or 'approx'"
        )
    try:
        if method is None:
            return MECHANISMS[name]()
        return MECHANISMS[name](method=method)
    except (TypeError, ValueError) as error:
        raise ApiError(
            f"mechanism {name!r} rejected method {method!r}: {error}"
        ) from None


def _solve_outcome(
    runtime: ApiRuntime,
    trace: Trace,
    scenario: Optional[str],
    setup: Optional[str],
    mechanism: str,
    method: Optional[str],
) -> Tuple[Any, str, bool, dict]:
    """Shared cache-or-solve path behind :func:`price` and
    :func:`solve_equilibrium`.

    Returns ``(outcome, population fingerprint, cached, outcome doc)``.
    The ``cache_lookup`` stage covers identity derivation — including
    materializing the warm economy — plus the memo/store probe; ``solve``
    runs only on a miss.
    """
    from repro.experiments.orchestrator import _scheme_spec

    with trace.stage("cache_lookup"):
        problem, prepared, fingerprint = runtime.economy(scenario, setup)
        scheme = _build_mechanism(mechanism, method)
        ref = f"scenario/{scenario}" if scenario else f"setup/{setup}"
        spec = _scheme_spec(scheme, None)
        key, key_doc = runtime.solve_key(prepared, fingerprint, spec, ref)
        cached = runtime.cache_get(
            key, lambda doc: (outcome_from_doc(doc, problem), doc)
        )
    if cached is not None:
        trace.mark_cache(True)
        outcome, doc = cached
        return outcome, fingerprint, True, doc
    trace.mark_cache(False)
    with trace.stage("solve"):
        outcome = scheme.apply(problem)
    with trace.stage("encode"):
        doc = outcome_to_doc(outcome)
    runtime.cache_put(key, key_doc, spec.kind, doc)
    return outcome, fingerprint, False, doc


# The facade ------------------------------------------------------------------


def price(
    request: PriceRequest,
    runtime: Optional[ApiRuntime] = None,
    *,
    trace: Optional[Trace] = None,
) -> PriceResponse:
    """Apply one pricing mechanism to one economy (cached, traced)."""
    runtime = runtime or default_runtime()
    trace = trace or Trace()
    outcome, fingerprint, cached, doc = _solve_outcome(
        runtime,
        trace,
        request.scenario,
        request.setup,
        request.mechanism,
        request.method,
    )
    with trace.stage("encode"):
        result = {"outcome": doc}
    return PriceResponse(
        outcome=outcome,
        population_fingerprint=fingerprint,
        cached=cached,
        trace=trace,
        result=result,
    )


def best_response(
    request: BestResponseRequest,
    runtime: Optional[ApiRuntime] = None,
    *,
    trace: Optional[Trace] = None,
) -> BestResponseResponse:
    """Stage-II best responses to posted prices (uncached: the vectorized
    evaluation is cheaper than a cache probe)."""
    from repro.game import best_response_vector

    runtime = runtime or default_runtime()
    trace = trace or Trace()
    with trace.stage("solve"):
        problem, _, fingerprint = runtime.economy(
            request.scenario, request.setup
        )
        prices = np.asarray(request.prices, dtype=float)
        if prices.shape != (problem.population.num_clients,):
            raise ApiError(
                f"prices must have one entry per client "
                f"({problem.population.num_clients}), got {prices.shape[0]}"
            )
        q = best_response_vector(
            prices, problem.population, problem.contributions
        )
    with trace.stage("encode"):
        result = {
            "prices": [float(p) for p in prices],
            "q": [float(v) for v in q],
        }
    return BestResponseResponse(
        prices=prices,
        q=q,
        population_fingerprint=fingerprint,
        trace=trace,
        result=result,
    )


def solve_equilibrium(
    request: EquilibriumRequest,
    runtime: Optional[ApiRuntime] = None,
    *,
    trace: Optional[Trace] = None,
) -> EquilibriumResponse:
    """The Stackelberg equilibrium of one economy (cached, traced).

    Solves through :class:`~repro.game.OptimalPricing`, so the cache entry
    is byte-for-byte the one the batch pipeline's "proposed" scheme reads
    and writes — a store warmed on either surface serves both.
    """
    runtime = runtime or default_runtime()
    trace = trace or Trace()
    outcome, fingerprint, cached, _ = _solve_outcome(
        runtime,
        trace,
        request.scenario,
        request.setup,
        "proposed",
        request.method,
    )
    equilibrium = outcome.equilibrium
    with trace.stage("encode"):
        doc = schemas.equilibrium_response_doc(equilibrium)
        result = doc["result"]
    return EquilibriumResponse(
        equilibrium=equilibrium,
        population_fingerprint=fingerprint,
        cached=cached,
        trace=trace,
        result=result,
    )


def run_scenario(
    request: ScenarioRunRequest,
    runtime: Optional[ApiRuntime] = None,
    *,
    trace: Optional[Trace] = None,
) -> ScenarioRunResponse:
    """One scenario across a mechanism suite (cached as a whole, traced).

    Training cells additionally flow through the runtime's orchestrator
    (its per-job cache, pool, and determinism contract), so even a
    whole-run cache miss reuses every cached equilibrium/train job.
    """
    from repro.experiments.orchestrator import CACHE_SCHEMA_VERSION
    from repro.game import build_mechanism, default_mechanisms

    runtime = runtime or default_runtime()
    trace = trace or Trace()
    with trace.stage("cache_lookup"):
        spec = runtime.scenario_spec(request.scenario)
        problem, _, fingerprint = runtime.economy(request.scenario, None)
        if request.mechanisms is not None:
            unknown = [
                name
                for name in request.mechanisms
                if name not in _mechanism_names()
            ]
            if unknown:
                raise ApiError(
                    f"unknown mechanisms {unknown}; choose from "
                    f"{_mechanism_names()}",
                    status=404,
                )
        key_doc = {
            "schema": CACHE_SCHEMA_VERSION,
            "code": repro.__version__,
            "kind": "api-scenario-run",
            "scenario": spec.fingerprint(),
            "scale": runtime.scale.name,
            "seed": runtime.seed,
            "mechanisms": (
                None
                if request.mechanisms is None
                else list(request.mechanisms)
            ),
            "fast_suite": request.fast_suite,
            "repeats": request.repeats,
        }
        # The training orchestrator's knobs change results too; at
        # non-default values only, so default keys are unchanged.
        orchestrator = (
            runtime._runner.training_orchestrator(spec) if spec.train else None
        )
        if orchestrator is not None:
            key_doc.update(orchestrator.execution.key_fields())
            if spec.algorithm is None and orchestrator.algorithm is not None:
                key_doc["algorithm"] = orchestrator.algorithm.to_doc()
        key = content_address(key_doc)

        def decode(doc: dict) -> Tuple[list, dict]:
            envelope = schemas.envelope(
                "scenario-run", doc, population_fingerprint=fingerprint
            )
            return schemas.scenario_cells_from_doc(envelope), doc

        cached = runtime.cache_get(key, decode)
    if cached is not None:
        trace.mark_cache(True)
        cells, result = cached
    else:
        trace.mark_cache(False)
        if request.mechanisms is not None:
            mechanisms = [
                build_mechanism(name) for name in request.mechanisms
            ]
        elif request.fast_suite:
            mechanisms = default_mechanisms(fast=True)
        else:
            mechanisms = None
        with trace.stage("solve"):
            # The runner mutates its preparation memos; serialize runs.
            with runtime._lock:
                cells = runtime._runner.run(
                    spec, mechanisms, repeats=request.repeats
                )
        with trace.stage("encode"):
            result = schemas.scenario_cells_doc(cells)["result"]
        runtime.cache_put(key, key_doc, "api-scenario-run", result)
    return ScenarioRunResponse(
        cells=cells,
        population_fingerprint=fingerprint,
        cached=cached is not None,
        trace=trace,
        result=result,
    )


def _mechanism_names() -> List[str]:
    from repro.game import MECHANISMS

    return sorted(MECHANISMS)


__all__ = [
    "ApiError",
    "ApiRuntime",
    "default_runtime",
    "PriceRequest",
    "BestResponseRequest",
    "EquilibriumRequest",
    "ScenarioRunRequest",
    "PriceResponse",
    "BestResponseResponse",
    "EquilibriumResponse",
    "ScenarioRunResponse",
    "price",
    "best_response",
    "solve_equilibrium",
    "run_scenario",
]
