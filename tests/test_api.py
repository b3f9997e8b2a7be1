"""The repro.api facade: validation, bit-identity, and the warm cache.

The facade's contract has three legs, and each gets pinned here:

* **Typed validation** — malformed requests raise :class:`~repro.api.
  ApiError` at construction (400) or resolution (404) time, never deep in
  the solvers.
* **Bit-identity with the direct call path** — ``api.price`` /
  ``api.solve_equilibrium`` produce byte-for-byte the documents a direct
  ``scheme.apply(problem)`` / ``solve_cpl_game(problem)`` encodes.
* **The shared cache tier** — warm repeats skip the ``solve`` stage (a
  key-presence check on the trace), and a ``--cache-dir`` store warmed by
  the batch CLI serves the facade (and vice versa) because prepared-setup
  economies use the orchestrator's job keys verbatim.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro import api, schemas
from repro.game import (
    MECHANISMS,
    STAGE1_SOLVERS,
    best_response_vector,
    solve_cpl_game,
)
from repro.utils.serialization import equilibrium_to_doc, outcome_to_doc

#: A game-only scenario: the economy materializes synthetically in
#: milliseconds, so facade tests stay fast.
SCENARIO = "homogeneous-cheap"


@pytest.fixture(scope="module")
def runtime():
    """One warm runtime for the read-only facade tests."""
    return api.ApiRuntime(scale="ci", seed=0)


class TestRequestValidation:
    def test_exactly_one_economy_ref_required(self):
        with pytest.raises(api.ApiError, match="exactly one"):
            api.PriceRequest()
        with pytest.raises(api.ApiError, match="exactly one"):
            api.PriceRequest(scenario=SCENARIO, setup="setup1")
        with pytest.raises(api.ApiError, match="exactly one"):
            api.EquilibriumRequest()
        with pytest.raises(api.ApiError, match="exactly one"):
            api.BestResponseRequest(prices=(1.0,))

    def test_unknown_setup_maps_to_404(self):
        with pytest.raises(api.ApiError, match="unknown setup") as info:
            api.PriceRequest(setup="setup9")
        assert info.value.status == 404

    # A request body may carry any JSON value, hashable or not.
    @pytest.mark.parametrize("method", ["newton", ["kkt"]])
    def test_unknown_equilibrium_method_is_400(self, method):
        with pytest.raises(api.ApiError, match="unknown method") as info:
            api.EquilibriumRequest(setup="setup1", method=method)
        assert info.value.status == 400
        for name in STAGE1_SOLVERS:
            assert repr(name) in str(info.value)

    def test_scenario_run_request_validation(self):
        with pytest.raises(api.ApiError, match="non-empty"):
            api.ScenarioRunRequest()
        with pytest.raises(api.ApiError, match="repeats"):
            api.ScenarioRunRequest(scenario=SCENARIO, repeats=0)

    # JSON-typed fields: a string, null or bool where a number, list or
    # bool belongs is a 400 naming the field, never a silent coercion.
    @pytest.mark.parametrize(
        "fields, field",
        [
            ({"fast_suite": "false"}, "fast_suite"),
            ({"fast_suite": None}, "fast_suite"),
            ({"repeats": True}, "repeats"),
            ({"repeats": 2.0}, "repeats"),
            ({"mechanisms": "proposed"}, "mechanisms"),
            ({"mechanisms": ["uniform", 1]}, "mechanisms"),
        ],
    )
    def test_scenario_run_request_field_types(self, fields, field):
        with pytest.raises(api.ApiError, match=f"'{field}'") as info:
            api.ScenarioRunRequest(scenario=SCENARIO, **fields)
        assert info.value.status == 400

    def test_best_response_prices_coerced_to_floats(self):
        request = api.BestResponseRequest(
            prices=[1, 2, np.float32(0.5), np.int64(3)], scenario=SCENARIO
        )
        assert request.prices == (1.0, 2.0, 0.5, 3.0)
        assert all(type(p) is float for p in request.prices)
        array = api.BestResponseRequest(
            prices=np.array([1.5, 2.5]), scenario=SCENARIO
        )
        assert array.prices == (1.5, 2.5)

    @pytest.mark.parametrize("prices", [None, "high", [1.0, "2"], [[1.0]]])
    def test_best_response_prices_must_be_numbers(self, prices):
        with pytest.raises(api.ApiError, match="'prices'") as info:
            api.BestResponseRequest(prices=prices, scenario=SCENARIO)
        assert info.value.status == 400

    # JSON admits NaN and Infinity, and integers of any size.
    @pytest.mark.parametrize(
        "prices",
        [
            [math.nan, 1.0],
            [1.0, math.inf],
            [-math.inf],
            [10**400, 1],
            np.array([1.0, np.nan]),
        ],
    )
    def test_best_response_prices_must_be_finite(self, prices):
        with pytest.raises(api.ApiError, match="must be finite") as info:
            api.BestResponseRequest(prices=prices, scenario=SCENARIO)
        assert info.value.status == 400

    @pytest.mark.parametrize(
        "request_type", [api.PriceRequest, api.EquilibriumRequest]
    )
    @pytest.mark.parametrize(
        "ref", [{"scenario": [SCENARIO]}, {"setup": {"name": "setup1"}}]
    )
    def test_economy_ref_must_be_a_string(self, request_type, ref):
        (field,) = ref
        with pytest.raises(api.ApiError, match=f"'{field}'") as info:
            request_type(**ref)
        assert info.value.status == 400

    def test_unknown_scenario_maps_to_404(self, runtime):
        with pytest.raises(api.ApiError) as info:
            api.price(api.PriceRequest(scenario="atlantis"), runtime)
        assert info.value.status == 404

    def test_unknown_mechanism_maps_to_404(self, runtime):
        with pytest.raises(api.ApiError, match="unknown mechanism") as info:
            api.price(
                api.PriceRequest(scenario=SCENARIO, mechanism="vcg"),
                runtime,
            )
        assert info.value.status == 404

    def test_mechanism_method_mismatch_is_400(self, runtime):
        with pytest.raises(api.ApiError) as info:
            api.price(
                api.PriceRequest(
                    scenario=SCENARIO, mechanism="proposed",
                    method="bogus",
                ),
                runtime,
            )
        assert info.value.status == 400
        for name in STAGE1_SOLVERS:
            assert repr(name) in str(info.value)


class TestBitIdentityWithDirectCalls:
    def test_price_matches_direct_scheme_apply(self, runtime):
        response = api.price(
            api.PriceRequest(scenario=SCENARIO, mechanism="uniform"),
            runtime,
        )
        problem, _, fingerprint = runtime.economy(SCENARIO, None)
        direct = MECHANISMS["uniform"]().apply(problem)
        assert response.result["outcome"] == outcome_to_doc(direct)
        assert response.population_fingerprint == fingerprint
        assert fingerprint == schemas.problem_fingerprint(problem)
        schemas.check_envelope(response.to_doc(), "pricing-response")

    def test_equilibrium_matches_solve_cpl_game(self, runtime):
        response = api.solve_equilibrium(
            api.EquilibriumRequest(scenario=SCENARIO), runtime
        )
        problem = runtime.economy(SCENARIO, None)[0]
        direct = solve_cpl_game(problem)
        assert response.result["equilibrium"] == equilibrium_to_doc(direct)
        schemas.check_envelope(
            response.to_doc(), "equilibrium-response"
        )

    def test_best_response_matches_vectorized_kernel(self, runtime):
        problem = runtime.economy(SCENARIO, None)[0]
        prices = np.linspace(
            0.5, 2.0, problem.population.num_clients
        )
        response = api.best_response(
            api.BestResponseRequest(
                prices=tuple(prices), scenario=SCENARIO
            ),
            runtime,
        )
        direct = best_response_vector(
            prices, problem.population, problem.contributions
        )
        np.testing.assert_array_equal(response.q, direct)
        # Uncached by design: only solve + encode appear in the trace.
        assert set(response.trace.stages) == {"solve", "encode"}

    def test_best_response_encoding_matches_per_element(self, runtime):
        problem = runtime.economy(SCENARIO, None)[0]
        prices = np.linspace(0.5, 2.0, problem.population.num_clients)
        prices[:3] = [-0.0, 5e-324, -5e-324]
        response = api.best_response(
            api.BestResponseRequest(prices=tuple(prices), scenario=SCENARIO),
            runtime,
        )
        per_element = {
            "prices": [float(p) for p in prices],
            "q": [float(v) for v in response.q],
        }
        assert json.dumps(response.result) == json.dumps(per_element)

    def test_best_response_rejects_wrong_shape(self, runtime):
        with pytest.raises(api.ApiError, match="one entry per client"):
            api.best_response(
                api.BestResponseRequest(
                    prices=(1.0, 2.0), scenario=SCENARIO
                ),
                runtime,
            )


class TestWarmCache:
    def test_warm_repeat_skips_the_solve_stage(self):
        runtime = api.ApiRuntime(scale="ci", seed=0)
        request = api.PriceRequest(scenario=SCENARIO, mechanism="proposed")
        cold = api.price(request, runtime)
        warm = api.price(request, runtime)
        assert cold.cached is False and warm.cached is True
        assert cold.trace.cache == "miss" and warm.trace.cache == "hit"
        assert "solve" in cold.trace.stages
        assert "solve" not in warm.trace.stages
        assert schemas.result_bytes(warm.to_doc()) == schemas.result_bytes(
            cold.to_doc()
        )

    def test_store_tier_survives_a_fresh_runtime(self, tmp_path):
        request = api.EquilibriumRequest(scenario=SCENARIO)
        first = api.solve_equilibrium(
            request, api.ApiRuntime(scale="ci", seed=0, cache_dir=tmp_path)
        )
        assert first.cached is False
        # A brand-new runtime has no in-memory memo; the hit proves the
        # content-addressed store round-trip.
        second = api.solve_equilibrium(
            request, api.ApiRuntime(scale="ci", seed=0, cache_dir=tmp_path)
        )
        assert second.cached is True
        assert "solve" not in second.trace.stages
        assert schemas.result_bytes(
            second.to_doc()
        ) == schemas.result_bytes(first.to_doc())

    def test_cli_warmed_store_serves_the_facade(self, tmp_path):
        """The cross-surface contract: ``equilibrium --cache-dir D`` then
        an API call on the same store is a pure cache hit (and back)."""
        from repro.experiments.cli import main as cli_main

        assert cli_main([
            "--scale", "ci", "--cache-dir", str(tmp_path),
            "equilibrium", "--setup", "setup1",
        ]) == 0
        response = api.solve_equilibrium(
            api.EquilibriumRequest(setup="setup1"),
            api.ApiRuntime(scale="ci", seed=0, cache_dir=tmp_path),
        )
        assert response.cached is True
        assert "solve" not in response.trace.stages

    def test_undecodable_store_entry_is_a_miss(self, tmp_path, caplog):
        runtime = api.ApiRuntime(scale="ci", seed=0, cache_dir=tmp_path)
        request = api.PriceRequest(scenario=SCENARIO, mechanism="uniform")
        cold = api.price(request, runtime)
        problem, prepared, fingerprint = runtime.economy(SCENARIO, None)
        from repro.experiments.orchestrator import _scheme_spec

        spec = _scheme_spec(MECHANISMS["uniform"](), None)
        key, key_doc = runtime.solve_key(
            prepared, fingerprint, spec, f"scenario/{SCENARIO}"
        )
        # The memo holds decoded results, so only the store can hold an
        # undecodable entry. A fresh runtime has no memo: the store alone
        # must count it as a logged corrupt miss, never as a hit.
        runtime.store.put(key, key_doc, spec.kind, {"garbage": True})
        fresh = api.ApiRuntime(scale="ci", seed=0, cache_dir=tmp_path)
        with caplog.at_level("WARNING"):
            again = api.price(request, fresh)
        assert again.cached is False
        assert again.result == cold.result
        stats = fresh.store.stats()
        assert (
            stats["session_hits"],
            stats["session_misses"],
            stats["session_corrupt"],
        ) == (0, 1, 1)
        assert any(
            "discarding corrupt entry" in record.getMessage()
            for record in caplog.records
        )


    def test_store_hit_is_memoized(self, tmp_path):
        """A fresh runtime over a warm store reads each key from disk
        once; later requests are served from memory."""
        request = api.PriceRequest(scenario=SCENARIO, mechanism="uniform")
        cold = api.price(
            request, api.ApiRuntime(scale="ci", seed=0, cache_dir=tmp_path)
        )
        fresh = api.ApiRuntime(scale="ci", seed=0, cache_dir=tmp_path)
        responses = [api.price(request, fresh) for _ in range(3)]
        assert all(response.cached for response in responses)
        assert (fresh.store.hits, fresh.store.misses) == (1, 0)
        assert all(
            response.result == cold.result for response in responses
        )

    def test_store_write_failure_is_logged_not_fatal(self, tmp_path, caplog):
        """A failed store write costs the entry and a warning, never the
        request: the same policy as the orchestrator's store-error."""
        from helpers import fault_scope

        from repro import faults

        runtime = api.ApiRuntime(scale="ci", seed=0, cache_dir=tmp_path)
        request = api.PriceRequest(scenario=SCENARIO, mechanism="uniform")
        with caplog.at_level("WARNING"):
            with fault_scope(faults.FaultPlan(store_write_failures=10)):
                response = api.price(request, runtime)
        assert response.cached is False
        assert runtime.store.stats()["entries"] == 0
        assert any(
            "could not persist" in record.getMessage()
            for record in caplog.records
        )
        # The result is still memoized for this runtime.
        assert api.price(request, runtime).cached is True


class TestRunScenario:
    def test_cells_and_round_trip(self, runtime):
        response = api.run_scenario(
            api.ScenarioRunRequest(
                scenario=SCENARIO, mechanisms=("uniform", "random")
            ),
            runtime,
        )
        assert [c.mechanism for c in response.cells] == [
            "uniform", "random",
        ]
        doc = response.to_doc()
        schemas.check_envelope(doc, "scenario-run")
        decoded = schemas.scenario_cells_from_doc(doc)
        assert [(c.scenario, c.mechanism) for c in decoded] == [
            (SCENARIO, "uniform"), (SCENARIO, "random"),
        ]

    def test_warm_repeat_is_cached(self, runtime):
        request = api.ScenarioRunRequest(
            scenario=SCENARIO, mechanisms=("uniform", "random")
        )
        cold = api.run_scenario(request, runtime)
        warm = api.run_scenario(request, runtime)
        assert warm.cached is True
        assert "solve" not in warm.trace.stages
        assert schemas.result_bytes(warm.to_doc()) == schemas.result_bytes(
            cold.to_doc()
        )

    def test_runtime_training_knobs_fork_the_run_key(self, tmp_path):
        """A store warmed under one orchestrator's algorithm or execution
        spec never serves a run under another (regression: the whole-run
        key once ignored both, so a FedProx table was served to FedAvg)."""
        from repro.experiments.orchestrator import (
            ExperimentOrchestrator,
            ResultStore,
        )
        from repro.fl import ExecutionSpec

        store = ResultStore(tmp_path)
        request = api.ScenarioRunRequest(
            scenario="paper-default", mechanisms=("proposed",)
        )

        def run(**knobs):
            orchestrator = ExperimentOrchestrator(store=store, **knobs)
            return api.run_scenario(
                request, api.ApiRuntime(scale="ci", orchestrator=orchestrator)
            )

        fedprox = run(algorithm="fedprox:mu=0.5")
        fedavg = run()
        float32 = run(execution=ExecutionSpec(precision="float32"))
        assert not fedavg.cached and not float32.cached
        assert run().cached
        uncached = api.run_scenario(request, api.ApiRuntime(scale="ci"))
        results = [
            schemas.result_bytes(response.to_doc())
            for response in (fedprox, fedavg, float32, uncached)
        ]
        assert results[1] == results[3]
        assert len(set(results[:3])) == 3

    def test_unknown_mechanisms_map_to_404(self, runtime):
        with pytest.raises(api.ApiError, match="unknown mechanism") as info:
            api.run_scenario(
                api.ScenarioRunRequest(
                    scenario=SCENARIO, mechanisms=("uniform", "vcg")
                ),
                runtime,
            )
        assert info.value.status == 404

    def test_unknown_scenario_maps_to_404(self, runtime):
        with pytest.raises(api.ApiError) as info:
            api.run_scenario(
                api.ScenarioRunRequest(scenario="atlantis"), runtime
            )
        assert info.value.status == 404


class TestRuntimePlumbing:
    def test_default_runtime_is_a_singleton(self):
        assert api.default_runtime() is api.default_runtime()

    def test_orchestrator_store_is_adopted(self, tmp_path):
        from repro.experiments.orchestrator import (
            ExperimentOrchestrator,
            ResultStore,
        )

        store = ResultStore(tmp_path)
        orchestrator = ExperimentOrchestrator(store=store)
        runtime = api.ApiRuntime(
            scale="ci", seed=0, orchestrator=orchestrator
        )
        assert runtime.store is store

    def test_economy_requires_exactly_one_ref(self, runtime):
        with pytest.raises(api.ApiError, match="exactly one"):
            runtime.economy(None, None)
        with pytest.raises(api.ApiError, match="exactly one"):
            runtime.economy(SCENARIO, "setup1")

    def test_economies_stay_warm(self, runtime):
        first = runtime.economy(SCENARIO, None)
        second = runtime.economy(SCENARIO, None)
        assert first[0] is second[0]
        assert first[2] == second[2]
