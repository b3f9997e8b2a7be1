"""The versioned-envelope contract: validation and exact codec round-trips.

Every machine-readable payload travels in one envelope shape
(``schema_version`` / ``population_fingerprint`` / ``result`` / ``trace``),
and every document the library emits decodes exactly: the decoders in
:mod:`repro.schemas` invert the encoders there and, for
``pricing-response/v1``, the :func:`repro.api.price` envelope. These tests
pin both halves — the shape checks (so service clients get loud, actionable
failures) and the round-trips (so CLI artifacts, service responses, and
the CI matrix document never drift apart silently).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import api, schemas
from repro.game import MECHANISMS, ServerProblem, solve_cpl_game
from repro.scenarios import list_scenarios
from repro.scenarios.runner import ScenarioCell
from repro.utils.serialization import equilibrium_to_doc, outcome_to_doc

#: A game-only scenario: its economy materializes in milliseconds.
SCENARIO = "homogeneous-cheap"


@pytest.fixture()
def fingerprint(small_problem):
    return schemas.problem_fingerprint(small_problem)


class TestEnvelope:
    def test_every_kind_has_a_matching_version_tag(self):
        for kind, version in schemas.SCHEMA_VERSIONS.items():
            assert version == f"{kind}/v1"
            assert schemas.schema_version(kind) == version

    def test_unknown_kind_raises(self):
        with pytest.raises(schemas.SchemaError, match="unknown schema kind"):
            schemas.schema_version("telemetry")
        with pytest.raises(schemas.SchemaError):
            schemas.envelope("telemetry", {})

    def test_envelope_shape(self):
        doc = schemas.envelope("health", {"status": "ok"})
        assert tuple(doc) == schemas.ENVELOPE_FIELDS
        assert doc["schema_version"] == "health/v1"
        assert doc["population_fingerprint"] is None
        assert doc["trace"] is None
        schemas.check_envelope(doc, "health")

    def test_envelope_rejects_non_dict_result(self):
        with pytest.raises(schemas.SchemaError, match="must be a dict"):
            schemas.envelope("health", [1, 2])

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.pop("result"), "missing 'result'"),
            (lambda d: d.pop("trace"), "missing 'trace'"),
            (
                lambda d: d.update(schema_version="health"),
                "must look like",
            ),
            (
                lambda d: d.update(schema_version="telemetry/v9"),
                "unknown schema_version",
            ),
            (
                lambda d: d.update(population_fingerprint=42),
                "hex string or",
            ),
            (lambda d: d.update(result=[1]), "result must be a dict"),
            (lambda d: d.update(trace="yes"), "trace must be a dict"),
        ],
    )
    def test_check_envelope_rejects(self, mutate, message):
        doc = schemas.envelope("health", {"status": "ok"})
        mutate(doc)
        with pytest.raises(schemas.SchemaError, match=message):
            schemas.check_envelope(doc)

    def test_check_envelope_rejects_wrong_kind(self):
        doc = schemas.envelope("health", {"status": "ok"})
        with pytest.raises(schemas.SchemaError, match="expected a"):
            schemas.check_envelope(doc, "error")

    def test_check_envelope_rejects_non_dict(self):
        with pytest.raises(schemas.SchemaError, match="not an envelope"):
            schemas.check_envelope("{}")


class TestResultBytes:
    """``result_bytes`` is THE bit-identity contract: everything but the
    trace, canonically encoded."""

    def test_trace_is_excluded(self):
        base = {"status": "ok"}
        with_trace = schemas.envelope(
            "health", base, trace={"format": "trace/v1", "trace_id": "a",
                                   "stages": {}, "cache": None},
        )
        without = schemas.envelope("health", dict(base))
        assert schemas.result_bytes(with_trace) == schemas.result_bytes(
            without
        )

    def test_result_changes_the_bytes(self):
        a = schemas.envelope("health", {"status": "ok"})
        b = schemas.envelope("health", {"status": "degraded"})
        assert schemas.result_bytes(a) != schemas.result_bytes(b)

    def test_fingerprint_changes_the_bytes(self):
        a = schemas.envelope("health", {}, population_fingerprint="aa")
        b = schemas.envelope("health", {}, population_fingerprint="bb")
        assert schemas.result_bytes(a) != schemas.result_bytes(b)


class TestProblemFingerprint:
    def test_deterministic(self, small_problem):
        assert schemas.problem_fingerprint(
            small_problem
        ) == schemas.problem_fingerprint(small_problem)

    def test_sensitive_to_the_game_data(self, small_problem):
        richer = ServerProblem(
            population=small_problem.population,
            alpha=small_problem.alpha,
            num_rounds=small_problem.num_rounds,
            budget=small_problem.budget * 2,
        )
        assert schemas.problem_fingerprint(
            richer
        ) != schemas.problem_fingerprint(small_problem)


#: ``(mechanism, method)`` pairs priced through :func:`repro.api.price`:
#: every mechanism at its default method, plus the approximate solvers.
PRICED = [(name, None) for name in sorted(MECHANISMS)] + [
    ("proposed", "approx"),
    ("uniform", "approx"),
]


@pytest.fixture(scope="module")
def runtime():
    return api.ApiRuntime(scale="ci", seed=0)


class TestPricingResponseRoundTrip:
    """A ``pricing-response/v1`` document as the service emits it decodes
    back to the outcome it encodes."""

    @pytest.mark.parametrize(
        "mechanism, method", PRICED, ids=lambda value: str(value)
    )
    def test_api_document_decodes_exactly(self, runtime, mechanism, method):
        response = api.price(
            api.PriceRequest(
                scenario=SCENARIO, mechanism=mechanism, method=method
            ),
            runtime,
        )
        doc = json.loads(json.dumps(response.to_doc()))
        schemas.check_envelope(doc, "pricing-response")
        problem = runtime.economy(SCENARIO, None)[0]
        decoded = schemas.pricing_response_from_doc(doc, problem)
        assert outcome_to_doc(decoded) == response.result["outcome"]
        np.testing.assert_array_equal(decoded.prices, response.outcome.prices)
        np.testing.assert_array_equal(decoded.q, response.outcome.q)
        assert decoded.spending == response.outcome.spending


class TestBestResponseRoundTrip:
    def test_round_trip(self, fingerprint):
        prices = [1.0, 2.5, 0.0]
        q = [0.1, 0.9, 0.5]
        doc = schemas.best_response_doc(
            prices, q, population_fingerprint=fingerprint
        )
        schemas.check_envelope(doc, "best-response")
        out_prices, out_q = schemas.best_response_from_doc(doc)
        np.testing.assert_array_equal(out_prices, prices)
        np.testing.assert_array_equal(out_q, q)
        assert schemas.best_response_doc(
            out_prices, out_q, population_fingerprint=fingerprint
        ) == doc


    def test_encoding_matches_the_per_element_encoding(self, fingerprint):
        rng = np.random.default_rng(0)
        x = rng.normal(0.0, 1e3, size=10_000)
        x[:6] = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308]
        doc = schemas.best_response_doc(
            x, x[::-1], population_fingerprint=fingerprint
        )
        per_element = schemas.envelope(
            "best-response",
            {"prices": [float(v) for v in x], "q": [float(v) for v in x[::-1]]},
            population_fingerprint=fingerprint,
        )
        assert json.dumps(doc, sort_keys=True) == json.dumps(
            per_element, sort_keys=True
        )
        assert schemas.result_bytes(doc) == schemas.result_bytes(per_element)


class TestEquilibriumResponseRoundTrip:
    def test_encode_decode_encode_is_exact(self, small_problem, fingerprint):
        equilibrium = solve_cpl_game(small_problem)
        doc = schemas.equilibrium_response_doc(
            equilibrium, population_fingerprint=fingerprint
        )
        schemas.check_envelope(doc, "equilibrium-response")
        assert doc["result"]["equilibrium"] == equilibrium_to_doc(
            equilibrium
        )
        decoded = schemas.equilibrium_response_from_doc(doc, small_problem)
        assert schemas.equilibrium_response_doc(
            decoded, population_fingerprint=fingerprint
        ) == doc

    def test_summary_sanitizes_non_finite_floats(self, small_problem):
        equilibrium = solve_cpl_game(small_problem)
        doc = schemas.equilibrium_response_doc(equilibrium)
        for value in doc["result"]["summary"].values():
            if isinstance(value, float):
                assert np.isfinite(value)


class TestScenarioCellsRoundTrip:
    def test_encode_decode_encode_is_exact(self, small_problem, fingerprint):
        cells = [
            ScenarioCell(
                scenario="toy",
                mechanism=name,
                outcome=MECHANISMS[name]().apply(small_problem),
                metrics={"spending": 1.25, "mean_q": 0.5},
            )
            for name in ("proposed", "uniform")
        ]
        doc = schemas.scenario_cells_doc(
            cells, population_fingerprint=fingerprint
        )
        schemas.check_envelope(doc, "scenario-run")
        # The artifact is deliberately problem-free: nested equilibria
        # (the proposed cell carries one) are dropped on encode.
        for cell_doc in doc["result"]["cells"]:
            assert cell_doc["outcome"]["equilibrium"] is None
        decoded = schemas.scenario_cells_from_doc(doc)
        assert [(c.scenario, c.mechanism) for c in decoded] == [
            ("toy", "proposed"), ("toy", "uniform"),
        ]
        assert schemas.scenario_cells_doc(
            decoded, population_fingerprint=fingerprint
        ) == doc

    def test_decode_rejects_wrong_kind(self):
        doc = schemas.envelope("health", {"cells": []})
        with pytest.raises(schemas.SchemaError):
            schemas.scenario_cells_from_doc(doc)


class TestScenarioListRoundTrip:
    def test_encode_decode_encode_is_exact(self):
        specs = list_scenarios()
        doc = schemas.scenario_list_doc(specs, ["uniform", "proposed"])
        schemas.check_envelope(doc, "scenario-list")
        assert doc["result"]["mechanisms"] == ["proposed", "uniform"]
        assert doc["result"]["scenarios"] == [spec.name for spec in specs]
        decoded = schemas.scenario_list_from_doc(doc)
        assert schemas.scenario_list_doc(
            decoded, doc["result"]["mechanisms"]
        ) == doc


class TestComparisonSummaryRoundTrip:
    def test_encode_decode_encode_is_exact(self, fingerprint):
        summary = {
            "proposed": {"final_loss": 0.31, "spending": 29.9,
                         "budget_tight": True},
            "uniform": {"final_loss": 0.44, "spending": 30.0,
                        "budget_tight": True},
        }
        doc = schemas.comparison_summary_doc(
            summary, population_fingerprint=fingerprint
        )
        schemas.check_envelope(doc, "comparison-summary")
        decoded = schemas.comparison_summary_from_doc(doc)
        assert decoded == summary
        assert schemas.comparison_summary_doc(
            decoded, population_fingerprint=fingerprint
        ) == doc


class TestTableRowsRoundTrip:
    def test_encode_decode_encode_is_exact(self, fingerprint):
        rows = [("setup1", 0.123, 4), ("setup2", 0.456, 7)]
        doc = schemas.table_rows_doc(
            5, rows, population_fingerprint=fingerprint
        )
        schemas.check_envelope(doc, "table-rows")
        decoded = schemas.table_rows_from_doc(doc)
        assert decoded == [list(row) for row in rows]
        assert schemas.table_rows_doc(
            5, decoded, population_fingerprint=fingerprint
        ) == doc


class TestServiceDocs:
    def test_metrics_snapshot_envelope(self):
        doc = schemas.metrics_snapshot_doc(
            {"requests": {}, "cache": {"hits": 0, "misses": 0},
             "latency": {}}
        )
        schemas.check_envelope(doc, "metrics-snapshot")

    def test_error_envelope(self):
        doc = schemas.error_doc(404, "no such endpoint")
        schemas.check_envelope(doc, "error")
        assert doc["result"] == {
            "status": 404, "message": "no such endpoint",
        }


class TestOutcomeDocStability:
    """The ``outcome/v1`` sub-document is the cache-entry payload shared
    with the orchestrator's store; its encoding must be deterministic."""

    def test_outcome_to_doc_deterministic(self, small_problem):
        outcome = MECHANISMS["proposed"]().apply(small_problem)
        assert outcome_to_doc(outcome) == outcome_to_doc(outcome)
