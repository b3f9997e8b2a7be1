"""The pricing service: routing, envelopes, determinism over the wire.

Three layers of coverage:

* :class:`~repro.service.ServiceApp` in-process — the full routing /
  validation / observability stack with no sockets, so the 4xx matrix and
  the metrics bookkeeping are cheap to pin.
* A real :class:`~repro.service.PricingServer` on an ephemeral port —
  concurrent clients must get responses byte-identical (modulo trace) to
  the in-process :mod:`repro.api` facade, and a ``--cache-dir`` store
  warmed by the batch CLI must serve the server's requests without a
  single solve.
* ``python -m repro.experiments serve`` as a subprocess — the repo-wide
  quiet-shutdown contract (SIGINT: exit 0, no traceback) extends to the
  server verb.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import api, schemas
from repro.observability import STAGES, check_metrics_snapshot, check_trace
from repro.service import ROUTES, PricingServer, ServiceApp, make_server

SCENARIO = "homogeneous-cheap"


@pytest.fixture(scope="module")
def app():
    """One warm in-process service app (ci scale)."""
    return ServiceApp(api.ApiRuntime(scale="ci", seed=0))


def post(app, path, body):
    return app.handle("POST", path, json.dumps(body).encode())


class TestRouting:
    def test_health(self, app):
        status, doc = app.handle("GET", "/v1/health")
        assert status == 200
        schemas.check_envelope(doc, "health")
        assert doc["result"]["status"] == "ok"
        assert doc["result"]["scale"] == "ci"

    def test_scenarios_lists_the_registry(self, app):
        status, doc = app.handle("GET", "/v1/scenarios")
        assert status == 200
        schemas.check_envelope(doc, "scenario-list")
        assert SCENARIO in doc["result"]["scenarios"]
        specs = schemas.scenario_list_from_doc(doc)
        assert {spec.name for spec in specs} == set(
            doc["result"]["scenarios"]
        )

    def test_trailing_slash_and_query_string_are_tolerated(self, app):
        status, _ = app.handle("GET", "/v1/health/")
        assert status == 200
        status, _ = app.handle("GET", "/v1/health?probe=1")
        assert status == 200

    def test_every_route_label_is_documented(self, app):
        assert len(set(ROUTES)) == len(ROUTES) == 7

    def test_price_response_contract(self, app):
        status, doc = post(
            app, "/v1/price",
            {"scenario": SCENARIO, "mechanism": "uniform"},
        )
        assert status == 200
        schemas.check_envelope(doc, "pricing-response")
        check_trace(doc["trace"])
        assert doc["population_fingerprint"]
        # Service-side requests always time a parse stage.
        assert "parse" in doc["trace"]["stages"]

    def test_scenario_run_parameterized_route(self, app):
        status, doc = post(
            app, f"/v1/scenarios/{SCENARIO}/run",
            {"mechanisms": ["uniform"]},
        )
        assert status == 200
        schemas.check_envelope(doc, "scenario-run")
        cells = schemas.scenario_cells_from_doc(doc)
        assert [(c.scenario, c.mechanism) for c in cells] == [
            (SCENARIO, "uniform"),
        ]


class TestErrorPaths:
    @pytest.mark.parametrize(
        "method, path, body, expected",
        [
            ("GET", "/v1/nope", None, 404),
            ("POST", "/v1/price", {"scenario": "atlantis"}, 404),
            ("POST", "/v1/price", {"mecanism": "uniform"}, 400),
            ("POST", "/v1/price", {}, 400),
            ("POST", "/v1/price",
             {"scenario": SCENARIO, "mechanism": "vcg"}, 404),
            ("POST", "/v1/equilibrium",
             {"setup": "setup1", "method": "newton"}, 400),
            ("POST", "/v1/best-response",
             {"scenario": SCENARIO, "prices": "high"}, 400),
            ("POST", "/v1/best-response",
             {"scenario": SCENARIO, "prices": [1.0]}, 400),
            ("POST", "/v1/scenarios/atlantis/run", {}, 404),
            ("POST", f"/v1/scenarios/{SCENARIO}/run",
             {"repeats": "three"}, 400),
            ("POST", f"/v1/scenarios/{SCENARIO}/run",
             {"mechanisms": [1, 2]}, 400),
            ("POST", "/v1/health", None, 405),
            ("GET", "/v1/price", None, 405),
            ("PUT", "/v1/price", None, 405),
            ("DELETE", "/v1/anything", None, 405),
        ],
    )
    def test_failures_are_4xx_error_envelopes(
        self, app, method, path, body, expected
    ):
        payload = b"" if body is None else json.dumps(body).encode()
        status, doc = app.handle(method, path, payload)
        assert status == expected, doc
        schemas.check_envelope(doc, "error")
        assert doc["result"]["status"] == expected
        assert doc["result"]["message"]

    def test_invalid_json_body_is_400(self, app):
        status, doc = app.handle("POST", "/v1/price", b"{not json")
        assert status == 400
        schemas.check_envelope(doc, "error")

    def test_non_object_body_is_400(self, app):
        status, doc = app.handle("POST", "/v1/price", b"[1, 2]")
        assert status == 400

    def test_unexpected_exception_is_a_500_envelope(self):
        service = ServiceApp(api.ApiRuntime(scale="ci", seed=0))
        service.runtime = None  # the handler will hit an AttributeError
        status, doc = service.handle("GET", "/v1/health")
        assert status == 500
        schemas.check_envelope(doc, "error")

    def test_failures_still_count_in_metrics(self):
        service = ServiceApp(api.ApiRuntime(scale="ci", seed=0))
        service.handle("POST", "/v1/price", b"{not json")
        snapshot = service.metrics.snapshot()
        assert snapshot["requests"]["POST /v1/price"]["400"] == 1


class TestMetricsEndpoint:
    def test_snapshot_conforms_and_counts(self):
        service = ServiceApp(api.ApiRuntime(scale="ci", seed=0))
        post(service, "/v1/price",
             {"scenario": SCENARIO, "mechanism": "uniform"})
        post(service, "/v1/price",
             {"scenario": SCENARIO, "mechanism": "uniform"})
        status, doc = service.handle("GET", "/v1/metrics")
        assert status == 200
        schemas.check_envelope(doc, "metrics-snapshot")
        snapshot = check_metrics_snapshot(doc["result"])
        assert snapshot["requests"]["POST /v1/price"]["200"] == 2
        assert snapshot["cache"] == {"hits": 1, "misses": 1}
        stages = snapshot["latency"]["POST /v1/price"]
        assert "solve" in stages and stages["solve"]["count"] == 1
        assert stages["cache_lookup"]["count"] == 2


def _serve_in_thread(service):
    server = make_server("127.0.0.1", 0, service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, server.server_address[1]


def _http(port, method, path, body=None):
    import urllib.error
    import urllib.request

    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestOverTheWire:
    def test_concurrent_requests_match_the_in_process_facade(self):
        """Eight concurrent clients, one warm server: every wire response
        is byte-identical (modulo trace) to a fresh in-process call."""
        server, port = _serve_in_thread(
            ServiceApp(api.ApiRuntime(scale="ci", seed=0))
        )
        try:
            body = {"scenario": SCENARIO, "mechanism": "proposed"}
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(
                    lambda _: _http(port, "POST", "/v1/price", body),
                    range(8),
                ))
            assert all(status == 200 for status, _ in results)
            reference = api.price(
                api.PriceRequest(scenario=SCENARIO, mechanism="proposed"),
                api.ApiRuntime(scale="ci", seed=0),
            ).to_doc()
            wire_bytes = {
                schemas.result_bytes(doc) for _, doc in results
            }
            assert wire_bytes == {schemas.result_bytes(reference)}
        finally:
            server.shutdown()
            server.server_close()

    def test_error_statuses_cross_the_wire(self):
        server, port = _serve_in_thread(
            ServiceApp(api.ApiRuntime(scale="ci", seed=0))
        )
        try:
            status, doc = _http(
                port, "POST", "/v1/price", {"scenario": "atlantis"}
            )
            assert status == 404
            schemas.check_envelope(doc, "error")
        finally:
            server.shutdown()
            server.server_close()

    def test_cli_warmed_store_serves_the_server(self, tmp_path):
        """ResultStore sharing, CLI -> server: after ``equilibrium
        --cache-dir D``, a server on the same store answers the paper-setup
        equilibrium without ever entering the solve stage."""
        from repro.experiments.cli import main as cli_main

        assert cli_main([
            "--scale", "ci", "--cache-dir", str(tmp_path),
            "equilibrium", "--setup", "setup1",
        ]) == 0
        server, port = _serve_in_thread(ServiceApp(
            api.ApiRuntime(scale="ci", seed=0, cache_dir=tmp_path)
        ))
        try:
            status, doc = _http(
                port, "POST", "/v1/equilibrium", {"setup": "setup1"}
            )
            assert status == 200
            assert doc["trace"]["cache"] == "hit"
            assert "solve" not in doc["trace"]["stages"]
        finally:
            server.shutdown()
            server.server_close()

    def test_server_warmed_store_serves_the_facade(self, tmp_path):
        """And the reverse: a store the server filled is a pure hit for a
        later in-process caller (the CLI's ``--cache-dir`` path)."""
        server, port = _serve_in_thread(ServiceApp(
            api.ApiRuntime(scale="ci", seed=0, cache_dir=tmp_path)
        ))
        try:
            status, _ = _http(
                port, "POST", "/v1/price",
                {"scenario": SCENARIO, "mechanism": "uniform"},
            )
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()
        response = api.price(
            api.PriceRequest(scenario=SCENARIO, mechanism="uniform"),
            api.ApiRuntime(scale="ci", seed=0, cache_dir=tmp_path),
        )
        assert response.cached is True
        assert "solve" not in response.trace.stages

    def test_keep_alive_clients_replaying_a_mixed_batch(self):
        """Keep-alive clients replay a mixed batch against one server:
        every request succeeds, the metrics snapshot conforms and counts
        each one, and a warm pricing request skips the solve stage."""
        import http.client

        batch = (
            ("POST", "/v1/price",
             {"scenario": SCENARIO, "mechanism": "proposed"}),
            ("POST", "/v1/price",
             {"scenario": SCENARIO, "mechanism": "uniform"}),
            ("POST", "/v1/equilibrium", {"scenario": SCENARIO}),
            ("GET", "/v1/scenarios", None),
            ("GET", "/v1/health", None),
        )
        clients, rounds = 2, 3
        server, port = _serve_in_thread(
            ServiceApp(api.ApiRuntime(scale="ci", seed=0))
        )

        def replay(repeats):
            connection = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=60
            )
            docs = []
            try:
                for _ in range(repeats):
                    for method, path, body in batch:
                        payload = (
                            None if body is None
                            else json.dumps(body).encode()
                        )
                        connection.request(method, path, body=payload)
                        response = connection.getresponse()
                        assert response.status == 200, (method, path)
                        docs.append(json.loads(response.read()))
            finally:
                connection.close()
            return docs

        try:
            replay(1)
            warm = replay(1)[0]
            assert warm["trace"]["cache"] == "hit"
            assert "solve" not in warm["trace"]["stages"]
            with ThreadPoolExecutor(max_workers=clients) as pool:
                replayed = list(pool.map(replay, [rounds] * clients))
            assert [len(docs) for docs in replayed] == (
                [rounds * len(batch)] * clients
            )
            status, doc = _http(port, "GET", "/v1/metrics")
        finally:
            server.shutdown()
            server.server_close()
        assert status == 200
        snapshot = check_metrics_snapshot(doc["result"])
        served = sum(
            count
            for endpoint, by_status in snapshot["requests"].items()
            if endpoint != "GET /v1/metrics"
            for count in by_status.values()
        )
        assert served == (2 + clients * rounds) * len(batch)
        assert snapshot["cache"]["hits"] >= 1
        for endpoint, stages in snapshot["latency"].items():
            assert set(stages) <= set(STAGES), endpoint

    def test_make_server_defaults(self):
        server = make_server(port=0)
        try:
            assert isinstance(server, PricingServer)
            assert isinstance(server.app, ServiceApp)
        finally:
            server.server_close()


class TestServeVerb:
    """``python -m repro.experiments serve`` — boot and quiet shutdown."""

    def test_sigint_shuts_down_quietly(self):
        env = dict(os.environ, REPRO_SCALE="ci")
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments",
             "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            ready = child.stdout.readline().decode()
            assert "repro service listening on http://" in ready
            child.send_signal(signal.SIGINT)
            code = child.wait(timeout=60)
            stderr = child.stderr.read().decode()
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)
            child.stdout.close()
            child.stderr.close()
        assert code == 0, stderr
        assert "Traceback" not in stderr
