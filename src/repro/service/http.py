"""The HTTP transport: stdlib ``http.server``, no new dependencies.

One :class:`ContainmentHTTPServer` wraps a
:class:`~repro.service.service.ContainmentService` in a
``ThreadingHTTPServer``: every client connection gets a handler thread, the
handler threads block on coalescer futures, and the coalescer merges their
concurrent requests into micro-batches — the threading server *is* the
concurrency that makes coalescing work.

Endpoints:

* ``GET /healthz`` — liveness (status, version, backend, uptime);
* ``GET /stats`` — the full counter block (service, coalescer, engine
  caches, worker pool, persistent store);
* ``POST /contain`` — one request payload (see
  :mod:`repro.service.service`), one verdict;
* ``POST /batch`` — ``{"requests": [...]}``, answered in request order
  (the whole body is queued before the first wait, so a client-side batch
  coalesces with itself and with other clients);
* ``POST /schema-update`` — ``{"old": <schema DSL>, "new": <schema DSL>}``,
  supersedes a schema without a restart: the old schema's cache entries
  are invalidated (the new one keys fresh entries) and the
  :class:`~repro.engine.InvalidationReport` comes back as JSON, with
  ``trivial`` and ``new_fingerprint``.

Malformed payloads are 400s with a JSON ``{"error": ...}`` body; an engine
failure is a 500 carrying the exception text.  Keep-alive (HTTP/1.1 with
explicit ``Content-Length``) is on so closed-loop benchmark clients do not
pay a TCP handshake per request.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Tuple

from .service import REQUEST_TIMEOUT_SECONDS, ContainmentService, ServiceError

__all__ = ["ContainmentHTTPServer", "make_server"]

#: Cap on one request body (a schema DSL text plus two queries is a few KiB;
#: megabytes means a confused or hostile client, not a bigger schema).
MAX_BODY_BYTES = 4 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "ContainmentHTTPServer"

    # -- plumbing ---------------------------------------------------------
    def _send_json(self, status: int, payload: Any) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            # an unread/unreadable body poisoned the connection; the server
            # will drop it — say so instead of leaving the client to find out
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Any:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            # e.g. a proxy folding duplicate headers into "67, 67" — the
            # body length is unknowable, so the connection cannot be reused
            self.close_connection = True
            raise ServiceError("invalid Content-Length header") from None
        if length <= 0 or length > MAX_BODY_BYTES:
            # the body is not going to be read, which would desync a
            # keep-alive connection (the next request line would be parsed
            # out of the unread body bytes) — drop the connection instead
            self.close_connection = True
            if length <= 0:
                raise ServiceError("request body must be a JSON document")
            raise ServiceError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        try:
            return json.loads(self.rfile.read(length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(f"invalid JSON body: {error}") from error

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    # -- endpoints --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        service = self.server.service
        if self.path in ("/healthz", "/health"):
            self._send_json(200, service.healthz())
        elif self.path == "/stats":
            self._send_json(200, service.stats_report())
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        service = self.server.service
        try:
            payload = self._read_json()
            if self.path in ("/contain", "/check"):
                response: Any = service.handle(payload, timeout=REQUEST_TIMEOUT_SECONDS)
            elif self.path == "/batch":
                if not isinstance(payload, dict) or not isinstance(
                    payload.get("requests"), list
                ):
                    raise ServiceError("/batch expects {\"requests\": [...]}")
                response = {
                    "results": service.handle_many(
                        payload["requests"], timeout=REQUEST_TIMEOUT_SECONDS
                    )
                }
            elif self.path == "/schema-update":
                response = service.schema_update(payload)
            else:
                self._send_json(404, {"error": f"unknown path {self.path!r}"})
                return
        except ServiceError as error:
            self._send_json(400, {"error": str(error)})
        except Exception as error:  # noqa: BLE001 - one request, one reply
            self._send_json(500, {"error": f"{type(error).__name__}: {error}"})
        else:
            self._send_json(200, response)


class ContainmentHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one containment service.

    ``daemon_threads`` is on so a hung client connection can never block
    interpreter exit; ``close()``/context-manager exit shuts the listener
    down and then closes the service (coalescer → engine → store ordering
    inside).
    """

    daemon_threads = True

    def __init__(
        self,
        service: ContainmentService,
        address: Tuple[str, int] = ("127.0.0.1", 0),
        *,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.verbose = verbose
        self._serving = False
        super().__init__(address, _Handler)

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._serving = True
        try:
            super().serve_forever(poll_interval)
        finally:
            self._serving = False

    @property
    def port(self) -> int:
        """The bound port (the OS's pick when constructed with port 0)."""
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    def close(self) -> None:
        """Stop accepting, release the socket, close the service.

        ``shutdown()`` waits on an event that only ``serve_forever`` sets,
        so it is skipped when the loop never started (an embedder that
        failed before starting the serve thread) — calling it then would
        deadlock forever.
        """
        if self._serving:
            self.shutdown()
        self.server_close()
        self.service.close()

    def __exit__(self, *exc_info) -> None:
        # socketserver's __exit__ only calls server_close(), which would
        # yank the listening socket out from under a still-running
        # serve_forever thread; route through close() for the full
        # shutdown-then-close-then-service ordering
        self.close()


def make_server(
    service: ContainmentService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    verbose: bool = False,
) -> ContainmentHTTPServer:
    """Bind (port ``0`` → ephemeral) and return the server, not yet serving.

    Call ``serve_forever()`` to run; ``server.port`` is the bound port and
    is printed by ``python -m repro serve`` so smoke tests can connect.
    """
    return ContainmentHTTPServer(service, (host, port), verbose=verbose)
