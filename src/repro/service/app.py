"""Transport-independent request handling for the pricing service.

:class:`ServiceApp` maps ``(method, path, body)`` to ``(status, envelope
document)`` — no sockets anywhere, so tests can drive the full routing /
validation / observability stack in-process, and
:mod:`repro.service.http` stays a thin socket shim.

Routes (all responses are versioned :mod:`repro.schemas` envelopes):

=========================================  =================================
``GET /v1/health``                         liveness + version + warm scale
``GET /v1/scenarios``                      the scenario registry
``GET /v1/metrics``                        observability snapshot
``POST /v1/price``                         :func:`repro.api.price`
``POST /v1/best-response``                 :func:`repro.api.best_response`
``POST /v1/equilibrium``                   :func:`repro.api.solve_equilibrium`
``POST /v1/scenarios/{name}/run``          :func:`repro.api.run_scenario`
=========================================  =================================

Every POST route is one :meth:`ServiceApp._post` over a :mod:`repro.api`
request type. Request bodies are strict JSON objects whose allowed keys
are that type's field names (less ``scenario`` on the run route, which
takes it from the path); unknown fields are a 400 (a misspelled
``mecanism`` must not silently price with the default). Every other
check lives in the request type's constructor or the :mod:`repro.api`
call, so HTTP and in-process callers get the same status and message. A
known path hit with the wrong method is a 405. Every request — including
failures — is observed in the runtime's
:class:`~repro.observability.MetricsRegistry` under its route label and
emitted as one structured (JSON) log line.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import time
from typing import Any, Callable, Dict, Optional, Tuple

import repro
from repro import api, schemas
from repro.observability import Trace

#: Route labels used for metrics aggregation and logging; parameterized
#: paths collapse onto one label so per-endpoint percentiles make sense.
ROUTES = (
    "GET /v1/health",
    "GET /v1/scenarios",
    "GET /v1/metrics",
    "POST /v1/price",
    "POST /v1/best-response",
    "POST /v1/equilibrium",
    "POST /v1/scenarios/{name}/run",
)

_LOGGER = logging.getLogger("repro.service")


def _body_fields(
    body: bytes, allowed: Tuple[str, ...]
) -> Dict[str, Any]:
    """Parse a strict-JSON-object request body, rejecting unknown keys."""
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise api.ApiError(f"request body is not valid JSON: {error}")
    if not isinstance(payload, dict):
        raise api.ApiError(
            f"request body must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise api.ApiError(
            f"unknown request fields {unknown}; allowed: {sorted(allowed)}"
        )
    return payload


class ServiceApp:
    """The service's request handler: routes onto the :mod:`repro.api`
    facade and wraps every answer in the observability contract.

    Args:
        runtime: The warm :class:`~repro.api.ApiRuntime` to serve from
            (default: a fresh one at the environment scale). Its metrics
            registry backs ``GET /v1/metrics``.
        logger: Structured-request-log destination (default:
            ``repro.service``).
    """

    def __init__(
        self,
        runtime: Optional[api.ApiRuntime] = None,
        *,
        logger: Optional[logging.Logger] = None,
    ):
        self.runtime = runtime or api.ApiRuntime()
        self.metrics = self.runtime.metrics
        self.logger = logger or _LOGGER
        #: Route label -> ``handler(name, body, trace)``; ``name`` is the
        #: path's ``{name}`` segment (``None`` on fixed paths).
        self._routes: Dict[str, Callable] = {
            "GET /v1/health": self._health,
            "GET /v1/scenarios": self._scenarios,
            "GET /v1/metrics": self._metrics,
            "POST /v1/price": self._post(api.PriceRequest, api.price),
            "POST /v1/best-response": self._post(
                api.BestResponseRequest, api.best_response
            ),
            "POST /v1/equilibrium": self._post(
                api.EquilibriumRequest, api.solve_equilibrium
            ),
            "POST /v1/scenarios/{name}/run": self._post(
                api.ScenarioRunRequest, api.run_scenario,
                from_path="scenario",
            ),
        }

    def handle(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, dict]:
        """Serve one request; never raises.

        Returns ``(http status, envelope document)``. Failures come back
        as ``error/v1`` envelopes (400 malformed, 404 unknown resource,
        405 wrong method, 500 unexpected), and every outcome is counted
        in the metrics registry and logged.
        """
        started = time.perf_counter()
        endpoint, handler, name = self._route(method, path)
        trace = Trace()
        try:
            if handler is None:
                if method not in ("GET", "POST"):
                    raise api.ApiError(
                        f"method {method} not supported", status=405
                    )
                raise api.ApiError(f"no such endpoint: {path}", status=404)
            status, doc = handler(name, body, trace)
        except api.ApiError as error:
            status = error.status
            doc = schemas.error_doc(status, str(error), trace=trace.to_doc())
        except Exception:  # the server must answer, whatever broke
            self.logger.exception("unhandled error serving %s %s",
                                  method, path)
            status = 500
            doc = schemas.error_doc(
                500, "internal error (see server log)",
                trace=trace.to_doc(),
            )
        self.metrics.observe(endpoint, status, trace)
        self.logger.info(
            "%s",
            json.dumps(
                {
                    "event": "request",
                    "endpoint": endpoint,
                    "method": method,
                    "path": path,
                    "status": status,
                    "trace_id": trace.trace_id,
                    "cache": trace.cache,
                    "duration_s": round(time.perf_counter() - started, 6),
                },
                sort_keys=True,
            ),
        )
        return status, doc

    # Routing -----------------------------------------------------------------

    def _route(self, method: str, path: str):
        """Map a request line onto ``(route label, handler or None, the
        path's {name} segment or None)``."""
        path = path.split("?", 1)[0].rstrip("/") or "/"
        parts = path.strip("/").split("/")
        name = None
        if len(parts) == 4 and parts[:2] == ["v1", "scenarios"] and (
            parts[3] == "run"
        ):
            name, path = parts[2], "/v1/scenarios/{name}/run"
        label = f"{method} {path}"
        if label in self._routes:
            return label, self._routes[label], name
        # Wrong-method hits on known paths are 405, not 404.
        for known in self._routes:
            known_method, known_path = known.split(" ", 1)
            if known_path == path:
                return known, self._method_not_allowed(known_method), name
        return label, None, None

    @staticmethod
    def _method_not_allowed(expected: str):
        def handler(name: Optional[str], body: bytes, trace: Trace):
            raise api.ApiError(
                f"method not allowed; use {expected}", status=405
            )

        return handler

    # GET endpoints -----------------------------------------------------------

    def _health(self, name: Optional[str], body: bytes, trace: Trace):
        return 200, schemas.envelope(
            "health",
            {
                "status": "ok",
                "version": repro.__version__,
                "scale": self.runtime.scale.name,
                "seed": self.runtime.seed,
            },
            trace=trace.to_doc(),
        )

    def _scenarios(self, name: Optional[str], body: bytes, trace: Trace):
        from repro.game import MECHANISMS
        from repro.scenarios import list_scenarios

        with trace.stage("encode"):
            doc = schemas.scenario_list_doc(
                list_scenarios(), sorted(MECHANISMS)
            )
        doc["trace"] = trace.to_doc()
        return 200, doc

    def _metrics(self, name: Optional[str], body: bytes, trace: Trace):
        # Snapshot excludes this in-flight request (observed on return).
        return 200, schemas.metrics_snapshot_doc(self.metrics.snapshot())

    # POST endpoints ----------------------------------------------------------

    def _post(
        self,
        request_type: type,
        call: Callable,
        *,
        from_path: Optional[str] = None,
    ) -> Callable:
        """The handler for a POST route: the body's fields (and, with
        ``from_path``, the path's ``{name}`` as that field) build
        ``request_type``, which validates them; ``call`` answers it."""
        allowed = tuple(
            field.name
            for field in dataclasses.fields(request_type)
            if field.name != from_path
        )

        def handler(name: Optional[str], body: bytes, trace: Trace):
            with trace.stage("parse"):
                fields = _body_fields(body, allowed)
                if from_path is not None:
                    fields[from_path] = name
                request = request_type(**fields)
            return 200, call(request, self.runtime, trace=trace).to_doc()

        return handler
