"""Versioned JSON schemas: the one stable contract for machine consumers.

Every machine-readable payload the reproduction emits — service responses,
CLI ``--out`` artifacts, the ``scenarios list --json`` document CI consumes
— is wrapped in one **envelope** shape::

    {
        "schema_version": "<kind>/v1",       # e.g. "pricing-response/v1"
        "population_fingerprint": "<sha-256 hex>" | null,
        "result": {...},                     # the deterministic payload
        "trace": {...} | null,               # per-request observability
    }

The split matters: ``result`` (together with ``schema_version`` and
``population_fingerprint``) is a pure function of the request and the code
version, so its canonical encoding (:func:`result_bytes`) is **bit-stable**
— a warm server, a cold server, and the in-process :mod:`repro.api` call
all produce identical bytes. ``trace`` carries what legitimately varies per
request (trace ID, per-stage latencies, cache hit/miss) and is excluded
from the deterministic portion on purpose.

``population_fingerprint`` (:func:`problem_fingerprint`) content-addresses
the *realized economy* the payload was computed on — the client arrays and
scalar game data — so consumers can tell two responses priced the same
fleet without re-deriving it from scenario names and seeds.

Versioning policy: a ``<kind>/vN`` string never changes meaning. Additive,
optional fields may land within a version; any field removal, rename, or
semantic change bumps ``vN`` and keeps the old decoder working for one
deprecation cycle. Decoders reject unknown kinds loudly
(:class:`SchemaError`) instead of guessing.

The encoders are what the library emits: the service, the CLI and the
:mod:`repro.api` facade (a ``pricing-response/v1`` document is
:meth:`repro.api.PriceResponse.to_doc`, whose outcome is
:func:`~repro.utils.serialization.outcome_to_doc`). The decoders are the
client-side half, for consumers that read those documents back; the
library itself decodes only ``scenario-run/v1`` (its cached scenario
runs). Decoding an emitted document and encoding the result again gives
the same document. ``metrics-snapshot``, ``health`` and ``error`` have no
decoder.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.utils.serialization import (
    canonical_dumps,
    content_address,
    equilibrium_from_doc,
    equilibrium_to_doc,
    outcome_from_doc,
    outcome_to_doc,
)

#: Every envelope kind this code emits, mapped to its current version tag.
SCHEMA_VERSIONS = {
    "pricing-response": "pricing-response/v1",
    "best-response": "best-response/v1",
    "equilibrium-response": "equilibrium-response/v1",
    "scenario-run": "scenario-run/v1",
    "scenario-list": "scenario-list/v1",
    "comparison-summary": "comparison-summary/v1",
    "table-rows": "table-rows/v1",
    "metrics-snapshot": "metrics-snapshot/v1",
    "health": "health/v1",
    "error": "error/v1",
}

#: Envelope fields, in canonical order.
ENVELOPE_FIELDS = ("schema_version", "population_fingerprint", "result", "trace")


class SchemaError(ValueError):
    """A document does not match the schema contract it claims (or none)."""


def schema_version(kind: str) -> str:
    """The current ``<kind>/vN`` tag for ``kind``; unknown kinds raise."""
    try:
        return SCHEMA_VERSIONS[kind]
    except KeyError:
        raise SchemaError(
            f"unknown schema kind {kind!r}; choose from "
            f"{sorted(SCHEMA_VERSIONS)}"
        ) from None


def envelope(
    kind: str,
    result: dict,
    *,
    population_fingerprint: Optional[str] = None,
    trace: Optional[dict] = None,
) -> dict:
    """Wrap ``result`` in the versioned envelope for ``kind``."""
    if not isinstance(result, dict):
        raise SchemaError(
            f"envelope result must be a dict, got {type(result).__name__}"
        )
    return {
        "schema_version": schema_version(kind),
        "population_fingerprint": population_fingerprint,
        "result": result,
        "trace": trace,
    }


def check_envelope(doc: Any, kind: Optional[str] = None) -> dict:
    """Validate the envelope shape (and optionally the kind); return ``doc``.

    Raises :class:`SchemaError` naming the first violated requirement, so
    service clients and round-trip tests get actionable messages.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"not an envelope: expected a dict, got "
                          f"{type(doc).__name__}")
    for field in ENVELOPE_FIELDS:
        if field not in doc:
            raise SchemaError(f"envelope is missing {field!r}")
    version = doc["schema_version"]
    if not isinstance(version, str) or "/v" not in version:
        raise SchemaError(
            f"schema_version must look like '<kind>/vN', got {version!r}"
        )
    if version not in SCHEMA_VERSIONS.values():
        raise SchemaError(f"unknown schema_version {version!r}")
    if kind is not None and version != schema_version(kind):
        raise SchemaError(
            f"expected a {schema_version(kind)!r} document, got {version!r}"
        )
    fingerprint = doc["population_fingerprint"]
    if fingerprint is not None and not isinstance(fingerprint, str):
        raise SchemaError("population_fingerprint must be a hex string or "
                          "null")
    if not isinstance(doc["result"], dict):
        raise SchemaError("envelope result must be a dict")
    if doc["trace"] is not None and not isinstance(doc["trace"], dict):
        raise SchemaError("envelope trace must be a dict or null")
    return doc


def result_bytes(doc: dict) -> bytes:
    """Canonical bytes of the *deterministic* portion of an envelope.

    Everything except ``trace``: two responses to the same request must
    agree on these bytes exactly — this is the bit-identity the service
    tests (and the warm-cache contract) compare — while their traces are
    free to differ.
    """
    check_envelope(doc)
    deterministic = {
        field: doc[field] for field in ENVELOPE_FIELDS if field != "trace"
    }
    return canonical_dumps(deterministic).encode("utf-8")


# Population identity ---------------------------------------------------------


def problem_fingerprint(problem: Any) -> str:
    """Content address of a realized economy (a ``ServerProblem``).

    Digests the client arrays and the scalar game data — the same
    quantities :func:`~repro.experiments.orchestrator.setup_fingerprint`
    pins inside cache keys — so one definition covers setup-pipeline,
    scenario-synthetic, and hand-built economies alike.
    """
    population = problem.population
    return content_address(
        {
            "format": "population/v1",
            "alpha": float(problem.alpha),
            "beta": float(problem.beta),
            "num_rounds": int(problem.num_rounds),
            "budget": float(problem.budget),
            "f_star": float(problem.f_star),
            "local_gaps": (
                None
                if problem.local_gaps is None
                else [float(gap) for gap in problem.local_gaps]
            ),
            "population": {
                name: [float(v) for v in getattr(population, name)]
                for name in (
                    "weights",
                    "gradient_bounds",
                    "costs",
                    "values",
                    "q_max",
                )
            },
        }
    )


# pricing-response/v1 ---------------------------------------------------------


def pricing_response_from_doc(doc: dict, problem: Optional[Any] = None) -> Any:
    """Decode a ``pricing-response/v1`` envelope back to a
    :class:`~repro.game.pricing.PricingOutcome`.

    The client-side half of :meth:`repro.api.PriceResponse.to_doc`.
    ``problem`` is required only when the outcome carries a nested
    equilibrium (the proposed mechanism's responses).
    """
    check_envelope(doc, "pricing-response")
    return outcome_from_doc(doc["result"]["outcome"], problem)


# best-response/v1 ------------------------------------------------------------


def best_response_doc(
    prices: Sequence[float],
    q: Sequence[float],
    *,
    population_fingerprint: Optional[str] = None,
    trace: Optional[dict] = None,
) -> dict:
    """Encode a Stage-II best-response evaluation (prices in, ``q*`` out)."""
    return envelope(
        "best-response",
        {
            "prices": np.asarray(prices, dtype=float).tolist(),
            "q": np.asarray(q, dtype=float).tolist(),
        },
        population_fingerprint=population_fingerprint,
        trace=trace,
    )


def best_response_from_doc(doc: dict) -> tuple:
    """Decode ``best-response/v1`` to ``(prices, q)`` float arrays.

    The client-side half of :func:`best_response_doc`.
    """
    check_envelope(doc, "best-response")
    result = doc["result"]
    return (
        np.asarray(result["prices"], dtype=float),
        np.asarray(result["q"], dtype=float),
    )


# equilibrium-response/v1 -----------------------------------------------------


def equilibrium_response_doc(
    equilibrium: Any,
    *,
    population_fingerprint: Optional[str] = None,
    trace: Optional[dict] = None,
) -> dict:
    """Encode a Stackelberg equilibrium plus its scalar summary."""
    summary = {
        key: (None if isinstance(value, float) and not np.isfinite(value)
              else value)
        for key, value in equilibrium.summary().items()
    }
    return envelope(
        "equilibrium-response",
        {
            "equilibrium": equilibrium_to_doc(equilibrium),
            "summary": summary,
        },
        population_fingerprint=population_fingerprint,
        trace=trace,
    )


def equilibrium_response_from_doc(doc: dict, problem: Any) -> Any:
    """Decode ``equilibrium-response/v1``, reattaching ``problem``.

    The client-side half of :func:`equilibrium_response_doc`.
    """
    check_envelope(doc, "equilibrium-response")
    return equilibrium_from_doc(doc["result"]["equilibrium"], problem)


# scenario-run/v1 -------------------------------------------------------------


def scenario_cells_doc(
    cells: Sequence[Any],
    *,
    population_fingerprint: Optional[str] = None,
    trace: Optional[dict] = None,
) -> dict:
    """Encode scenario-comparison cells (the CI artifact payload).

    Each cell carries its metrics alongside the full ``outcome/v1``
    document — *without* the nested equilibrium, which needs its
    ``ServerProblem`` to decode and artifacts are deliberately
    problem-free. Decoding (:func:`scenario_cells_from_doc`) therefore
    rebuilds every cell losslessly.
    """
    encoded = []
    for cell in cells:
        outcome_doc = outcome_to_doc(cell.outcome)
        outcome_doc["equilibrium"] = None
        cell_doc = {
            "scenario": cell.scenario,
            "mechanism": cell.mechanism,
            "metrics": {
                name: float(value)
                for name, value in cell.metrics.items()
            },
            "outcome": outcome_doc,
        }
        # Additive within scenario-run/v1: the canonical local-update
        # rule, present only on cells trained under a non-default
        # algorithm — pre-algorithm artifacts stay byte-identical.
        if getattr(cell, "algorithm", None) is not None:
            cell_doc["algorithm"] = str(cell.algorithm)
        encoded.append(cell_doc)
    return envelope(
        "scenario-run",
        {"cells": encoded},
        population_fingerprint=population_fingerprint,
        trace=trace,
    )


def scenario_cells_from_doc(doc: dict) -> List[Any]:
    """Decode ``scenario-run/v1`` back to
    :class:`~repro.scenarios.runner.ScenarioCell` objects (history-free).

    The client-side half of :func:`scenario_cells_doc`; the api facade
    also revives its cached scenario runs with it.
    """
    from repro.scenarios.runner import ScenarioCell

    check_envelope(doc, "scenario-run")
    return [
        ScenarioCell(
            scenario=str(cell["scenario"]),
            mechanism=str(cell["mechanism"]),
            outcome=outcome_from_doc(cell["outcome"]),
            metrics={
                name: float(value)
                for name, value in cell["metrics"].items()
            },
            algorithm=(
                str(cell["algorithm"]) if "algorithm" in cell else None
            ),
        )
        for cell in doc["result"]["cells"]
    ]


# scenario-list/v1 ------------------------------------------------------------


def scenario_list_doc(
    specs: Sequence[Any], mechanisms: Sequence[str]
) -> dict:
    """Encode the scenario registry (the document the CI matrix consumes)."""
    return envelope(
        "scenario-list",
        {
            "scenarios": [spec.name for spec in specs],
            "mechanisms": sorted(mechanisms),
            "specs": [spec.to_doc() for spec in specs],
        },
    )


def scenario_list_from_doc(doc: dict) -> List[Any]:
    """Decode ``scenario-list/v1`` back to
    :class:`~repro.scenarios.spec.ScenarioSpec` objects.

    The client-side half of :func:`scenario_list_doc`.
    """
    from repro.scenarios.spec import ScenarioSpec

    check_envelope(doc, "scenario-list")
    return [
        ScenarioSpec.from_doc(spec_doc)
        for spec_doc in doc["result"]["specs"]
    ]


# comparison-summary/v1 -------------------------------------------------------


def comparison_summary_doc(
    summary: Dict[str, dict],
    *,
    population_fingerprint: Optional[str] = None,
) -> dict:
    """Encode a per-scheme scalar summary (the
    :func:`repro.experiments.reporting.comparison_summary` shape)."""
    return envelope(
        "comparison-summary",
        {
            "schemes": {
                name: {key: value for key, value in entry.items()}
                for name, entry in summary.items()
            }
        },
        population_fingerprint=population_fingerprint,
    )


def comparison_summary_from_doc(doc: dict) -> Dict[str, dict]:
    """Decode ``comparison-summary/v1`` back to ``{scheme: scalars}``.

    The client-side half of :func:`comparison_summary_doc`.
    """
    check_envelope(doc, "comparison-summary")
    return {
        name: dict(entry)
        for name, entry in doc["result"]["schemes"].items()
    }


# table-rows/v1 ---------------------------------------------------------------


def table_rows_doc(
    table_id: int,
    rows: Sequence[Sequence[Any]],
    *,
    population_fingerprint: Optional[str] = None,
) -> dict:
    """Encode one paper table's rows."""
    return envelope(
        "table-rows",
        {
            "table": int(table_id),
            "rows": [list(row) for row in rows],
        },
        population_fingerprint=population_fingerprint,
    )


def table_rows_from_doc(doc: dict) -> List[list]:
    """Decode ``table-rows/v1`` back to its row lists.

    The client-side half of :func:`table_rows_doc`.
    """
    check_envelope(doc, "table-rows")
    return [list(row) for row in doc["result"]["rows"]]


# metrics-snapshot/v1 and error/v1 --------------------------------------------


def metrics_snapshot_doc(snapshot: dict) -> dict:
    """Encode a service metrics snapshot (see
    :mod:`repro.observability.metrics`)."""
    return envelope("metrics-snapshot", snapshot)


def error_doc(
    status: int, message: str, *, trace: Optional[dict] = None
) -> dict:
    """Encode a service error response."""
    return envelope(
        "error",
        {"status": int(status), "message": str(message)},
        trace=trace,
    )
