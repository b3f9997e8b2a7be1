#!/usr/bin/env python3
"""CI smoke test for the pricing service: boot, mixed batch, shutdown.

Boots ``python -m repro.experiments serve`` as a real subprocess on an
ephemeral port, drives every endpoint from a stdlib client, and asserts:

* every response is a schema-valid versioned envelope
  (``repro.schemas.check_envelope``) whose trace satisfies the
  observability contract,
* solver responses carry the population fingerprint,
* a warm repeat of a pricing request is a cache hit that skips the
  ``solve`` stage and is byte-identical (modulo trace) to the cold one,
* malformed requests come back as 4xx ``error/v1`` envelopes,
* SIGINT shuts the server down cleanly (exit 0, no traceback).

Run it locally with ``PYTHONPATH=src REPRO_SCALE=ci python
tools/serve_smoke.py``; exits non-zero on the first violation.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import schemas  # noqa: E402
from repro.observability import check_metrics_snapshot, check_trace  # noqa: E402


def call(port, method, path, body=None):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def main() -> int:
    env = dict(os.environ)
    env.setdefault("REPRO_SCALE", "ci")
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        ready = server.stdout.readline().decode()
        match = re.search(r"http://[^:]+:(\d+)", ready)
        assert match, f"no ready line from the server: {ready!r}"
        port = int(match.group(1))

        # Cold pass: every endpoint answers a schema-valid envelope.
        checks = [
            ("GET", "/v1/health", None, "health"),
            ("GET", "/v1/scenarios", None, "scenario-list"),
            ("POST", "/v1/price",
             {"scenario": "paper-default", "mechanism": "uniform"},
             "pricing-response"),
            ("POST", "/v1/equilibrium", {"setup": "setup1"},
             "equilibrium-response"),
            ("POST", "/v1/scenarios/paper-default/run",
             {"mechanisms": ["proposed", "random"]}, "scenario-run"),
        ]
        docs = {}
        for method, path, body, kind in checks:
            status, doc = call(port, method, path, body)
            assert status == 200, f"{method} {path} -> {status}: {doc}"
            schemas.check_envelope(doc, kind)
            if doc.get("trace") is not None:
                check_trace(doc["trace"])
            docs[path] = doc
        for path in ("/v1/price", "/v1/equilibrium"):
            assert docs[path]["population_fingerprint"], (
                f"{path} response carries no population fingerprint"
            )

        # Best-response echoes the equilibrium prices back to q*.
        prices = docs["/v1/equilibrium"]["result"]["equilibrium"]["prices"]
        status, doc = call(
            port, "POST", "/v1/best-response",
            {"setup": "setup1", "prices": prices},
        )
        assert status == 200, f"best-response -> {status}: {doc}"
        schemas.check_envelope(doc, "best-response")

        # Warm repeat: cache hit, no solve stage, identical result bytes.
        status, warm = call(
            port, "POST", "/v1/price",
            {"scenario": "paper-default", "mechanism": "uniform"},
        )
        assert status == 200
        assert warm["trace"]["cache"] == "hit", warm["trace"]
        assert "solve" not in warm["trace"]["stages"], warm["trace"]
        assert schemas.result_bytes(warm) == schemas.result_bytes(
            docs["/v1/price"]
        ), "warm response diverged from the cold one"

        # Malformed requests: 4xx error envelopes, server stays up.
        for method, path, body, expected in [
            ("POST", "/v1/price", {"scenario": "nope"}, 404),
            ("POST", "/v1/price", {"mecanism": "uniform"}, 400),
            ("POST", "/v1/equilibrium",
             {"setup": "setup1", "method": "bogus"}, 400),
            ("POST", "/v1/scenarios/paper-default/run",
             {"fast_suite": "false"}, 400),
            ("POST", "/v1/best-response",
             {"scenario": "paper-default", "prices": [float("nan")]}, 400),
            ("POST", "/v1/price", {"scenario": ["paper-default"]}, 400),
            ("POST", "/v1/health", None, 405),
            ("GET", "/v1/scenarios/paper-default/run", None, 405),
            ("GET", "/v1/nope", None, 404),
        ]:
            status, doc = call(port, method, path, body)
            assert status == expected, (
                f"{method} {path} -> {status}, wanted {expected}"
            )
            schemas.check_envelope(doc, "error")

        # The metrics endpoint reports the contract-conforming snapshot.
        status, doc = call(port, "GET", "/v1/metrics")
        assert status == 200
        schemas.check_envelope(doc, "metrics-snapshot")
        check_metrics_snapshot(doc["result"])
        assert doc["result"]["cache"]["hits"] >= 1, doc["result"]["cache"]

        # SIGINT: the quiet-shutdown contract extends to serve.
        server.send_signal(signal.SIGINT)
        code = server.wait(timeout=60)
        stderr = server.stderr.read().decode()
        assert code == 0, f"serve exited {code} on SIGINT; stderr: {stderr}"
        assert "Traceback" not in stderr, stderr
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)
    print("serve smoke: all checks passed")
    return 0


if __name__ == "__main__":
    start = time.time()
    code = main()
    print(f"({time.time() - start:.1f}s)")
    sys.exit(code)
