"""The socket shim: a stdlib ``ThreadingHTTPServer`` over
:class:`~repro.service.app.ServiceApp`.

Everything interesting (routing, validation, observability) lives in the
app layer; this module only moves bytes. ``HTTP/1.1`` with explicit
``Content-Length`` keeps client connections alive across requests, which
is what makes the warm-cache latency visible instead of being drowned in
per-request TCP setup.

Known transport floor, deliberately left in place: a response goes out
in two sends, the status line and headers first and then the body. With
Nagle's algorithm on, the body waits for the client to acknowledge the
headers, and the client delays that ACK, so every keep-alive request
pays about 44 ms however little work it is. Setting
``disable_nagle_algorithm = True`` on the handler removes the wait, but
it does not pay yet. ``perf/run.py --workload serve-mixed`` (2
closed-loop clients, 2-vCPU host, six alternating pairs) measured:

* cached ``/v1/price`` p50 fell from 45.7 to 2.1 ms, and throughput rose
  from 36.6 to 62.2 requests/s;
* the uncached 10k-client ``/v1/best-response`` p50 rose from 69.3 to
  128.4 ms, and the p90 of all requests from 72 to 128 ms.

Without the stall, the two clients' best responses overlap, and each
holds the GIL for about 60 ms of server CPU: about 9 ms to parse and
validate 10k prices, 19 ms to solve, 2 ms to build the result lists and
28 ms to encode the 20k-float JSON envelope. The transport change waits
until the uncached best response is cheaper.
"""

from __future__ import annotations

import json
import logging
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

import repro
from repro.service.app import ServiceApp

_LOGGER = logging.getLogger("repro.service.http")


class _Handler(BaseHTTPRequestHandler):
    server_version = f"repro-service/{repro.__version__}"
    protocol_version = "HTTP/1.1"

    def _dispatch(self) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length > 0 else b""
        status, doc = self.server.app.handle(self.command, self.path, body)
        data = json.dumps(doc, sort_keys=True).encode("utf-8") + b"\n"
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-response; nothing to answer.
            self.close_connection = True

    do_GET = _dispatch
    do_POST = _dispatch
    do_PUT = _dispatch
    do_DELETE = _dispatch

    def log_message(self, format: str, *args) -> None:
        # The app layer emits one structured line per request; the
        # default stderr access log would duplicate it.
        _LOGGER.debug("%s - %s", self.address_string(), format % args)


class PricingServer(ThreadingHTTPServer):
    """A threaded HTTP server bound to one :class:`ServiceApp`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], app: ServiceApp):
        super().__init__(address, _Handler)
        self.app = app


def make_server(
    host: str = "127.0.0.1",
    port: int = 8734,
    app: Optional[ServiceApp] = None,
) -> PricingServer:
    """Build (but do not start) a pricing server.

    ``port=0`` binds an ephemeral port — read the realized one back from
    ``server.server_address[1]`` (the tests do this; the ``serve`` verb
    prints it on its ready line, which the benchmark's ``serve-mixed``
    workload in ``perf/`` reads).
    """
    return PricingServer((host, port), app or ServiceApp())
