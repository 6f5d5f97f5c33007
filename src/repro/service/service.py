"""The long-running containment service: one warm engine, many clients.

A :class:`ContainmentService` owns the artefacts every single-shot caller
used to pay for per invocation — a warm
:class:`~repro.engine.ContainmentEngine` (with its three memory caches), the
optional process :class:`~repro.engine.parallel.WorkerPool`, the optional
disk-persistent :class:`~repro.store.ResultStore`, and two parse caches for
schema/query source text — and serves JSON requests through the
:class:`~repro.service.coalescer.RequestCoalescer`, so concurrent traffic
from independent clients micro-batches into ``check_many`` calls where all
of that warmth applies.

Request payloads are plain dicts (the HTTP body / one NDJSON stdio line)::

    {"schema": "schema S { ... }",       # schema DSL text, or instead:
     "workload": "medical",              # a built-in workload's source schema
     "left": "p(x) := (r)(x, y)",
     "right": "q(x) := A(x)",
     "id": "anything"}                   # optional, echoed in the response

Responses carry the verdict, the canonical ``result_fingerprint`` (so
clients — and the CI smoke check — can assert bit-identity against serial
runs), and timing.  Malformed payloads raise :class:`ServiceError`, which
the transports render as a 400/error line without touching the engine.

Lifecycle ordering on :meth:`close` (see docs/ARCHITECTURE.md, "The serving
layer"): **coalescer → engine (pool → store)** — first stop accepting and
drain in-flight batches (their merge-backs still write through the engine),
then tear the engine down, which stops the pool before closing the store so
the pool's final write-backs land.  The service is a context manager, and a
closed service rejects new requests with a clear error.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from .. import __version__
from ..engine import ContainmentEngine, InvalidationReport, result_fingerprint
from ..engine.cache import LRUCache
from ..rpq.parser import parse_c2rpq
from ..schema.parser import parse_schema
from ..workloads.batches import BUILTIN_WORKLOADS, workload_schemas
from .coalescer import RequestCoalescer

__all__ = ["REQUEST_TIMEOUT_SECONDS", "ContainmentService", "ServiceError"]

#: How long one client request may wait on its coalesced verdict before the
#: transport gives up (shared by the HTTP handlers and the stdio writer, so
#: a wedged engine turns into an error response, never a hung transport).
REQUEST_TIMEOUT_SECONDS = 300.0


class ServiceError(ValueError):
    """A malformed request (missing field, parse failure, unknown workload).

    Transports map it to a client error — HTTP 400, an ``"error"`` NDJSON
    line — without counting engine work or touching the coalescer.
    """


class ContainmentService:
    """Serves containment requests from one warm engine via the coalescer.

    ``parallel`` selects the backend flushed batches run on: ``"serial"``
    (the default) or ``"process"``, whose pool is spawned eagerly so the
    first request does not pay for it.  ``persist`` puts the disk store
    behind the engine; ``coalesce_window``/``max_batch`` shape the
    micro-batching.  Pass an existing ``engine`` to embed the service next to
    other users of the same caches (the caller keeps ownership and the
    service's ``close()`` leaves it open).
    """

    def __init__(
        self,
        *,
        config: Optional[Any] = None,
        parallel: Any = "serial",
        workers: Optional[int] = None,
        persist: Optional[Any] = None,
        coalesce_window: float = 0.005,
        max_batch: int = 64,
        engine: Optional[ContainmentEngine] = None,
        parse_cache_size: int = 256,
    ) -> None:
        # validate everything that can fail *before* building the engine —
        # and close an engine this constructor created if a later step (pool
        # spawn, coalescer setup) fails, so a half-built service never leaks
        # worker processes or an open store handle
        backend = ContainmentEngine._normalise_backend(parallel)
        self._owns_engine = engine is None
        self.engine = engine if engine is not None else ContainmentEngine(
            config, max_workers=workers, persist=persist
        )
        try:
            if backend == "process":
                # pay the spawn cost now, not on the first client's request
                self.engine.process_pool(workers).start()
            self.coalescer = RequestCoalescer(
                self.engine,
                window=coalesce_window,
                max_batch=max_batch,
                parallel=backend,
            )
        except BaseException:
            if self._owns_engine:
                self.engine.close()
            raise
        self.backend = backend
        self.started_at = time.time()
        self._lock = threading.Lock()
        self._closed = False
        self._requests = 0
        self._failures = 0
        # the ledger behind POST /schema-update: how many updates ran, and
        # the last reply (rendered in /stats)
        self._schema_updates = 0
        self._last_evolve: Optional[Dict[str, Any]] = None
        # parse caches: service traffic repeats schema/query *text* verbatim
        # (every client ships its schema with every request), and parsing a
        # schema is pure — same text, same object — so one parsed instance
        # can serve every future request that carries the same source
        self._schemas = LRUCache("parsed-schemas", parse_cache_size)
        self._queries = LRUCache("parsed-queries", 4 * parse_cache_size)

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    def _parse_schema_text(self, text: Any, field: str):
        """Parse schema DSL text through the parse cache (shared by the
        ``schema`` request field and ``/schema-update``'s old/new pair)."""
        if not isinstance(text, str):
            raise ServiceError(f"{field!r} must be schema DSL text")
        with self._lock:
            schema = self._schemas.get(text)
        if schema is None:
            try:
                schema = parse_schema(text)
            except Exception as error:  # noqa: BLE001 - reported to the client
                raise ServiceError(f"{field} schema parse error: {error}") from error
            with self._lock:
                self._schemas.put(text, schema)
        return schema

    def _parse_schema(self, payload: Dict[str, Any]):
        if "schema" in payload:
            return self._parse_schema_text(payload["schema"], "schema")
        if "workload" in payload:
            name = payload["workload"]
            if name not in BUILTIN_WORKLOADS:
                raise ServiceError(
                    f"unknown workload {name!r} (expected one of {', '.join(BUILTIN_WORKLOADS)})"
                )
            length = payload.get("length", 8)
            if type(length) is not int or not 1 <= length <= 64:
                # validated here like every other payload field, so a
                # malformed value is a 400, not a 500 from deep inside the
                # generator (or an unhashable cache key)
                raise ServiceError("'length' must be an integer between 1 and 64")
            key = (name, length)
            with self._lock:
                schema = self._schemas.get(key)
            if schema is None:
                schema = workload_schemas(name, length=length)["source"]
                with self._lock:
                    self._schemas.put(key, schema)
            return schema
        raise ServiceError("request needs a 'schema' (DSL text) or a 'workload' name")

    def _parse_query(self, payload: Dict[str, Any], field: str):
        try:
            text = payload[field]
        except KeyError:
            raise ServiceError(f"request is missing the {field!r} query") from None
        if not isinstance(text, str):
            raise ServiceError(f"{field!r} must be query source text")
        with self._lock:
            query = self._queries.get(text)
        if query is None:
            try:
                query = parse_c2rpq(text)
            except Exception as error:  # noqa: BLE001 - reported to the client
                raise ServiceError(f"{field} query parse error: {error}") from error
            with self._lock:
                self._queries.put(text, query)
        return query

    def _parse_payload(self, payload: Dict[str, Any]) -> Tuple[Any, Any, Any]:
        if self._closed:
            raise RuntimeError("the containment service has been closed")
        if not isinstance(payload, dict):
            raise ServiceError("request must be a JSON object")
        schema = self._parse_schema(payload)
        left = self._parse_query(payload, "left")
        right = self._parse_query(payload, "right")
        return left, right, schema

    def _submit_parsed(self, left: Any, right: Any, schema: Any):
        with self._lock:
            self._requests += 1
        try:
            return self.coalescer.submit(left, right, schema)
        except BaseException:
            with self._lock:
                self._failures += 1
            raise

    def submit(self, payload: Dict[str, Any]):
        """Parse one request payload and queue it; returns the future.

        Raises :class:`ServiceError` on malformed payloads *before* anything
        reaches the coalescer, so bad requests never occupy a batch slot.
        """
        left, right, schema = self._parse_payload(payload)
        return self._submit_parsed(left, right, schema)

    def render(self, result, request_id: Any = None) -> Dict[str, Any]:
        """One verdict as a JSON-ready response dict."""
        response = {
            "contained": result.contained,
            "regime": result.regime,
            "schema": result.schema_name,
            "left": result.left_name,
            "right": result.right_name,
            "fingerprint": result_fingerprint(result),
            "elapsed_seconds": result.elapsed_seconds,
        }
        if request_id is not None:
            response["id"] = request_id
        return response

    def handle(self, payload: Dict[str, Any], timeout: Optional[float] = None) -> Dict[str, Any]:
        """The blocking request→response form used by both transports."""
        future = self.submit(payload)
        result = future.result(timeout)
        return self.render(result, payload.get("id"))

    def handle_many(
        self, payloads: List[Dict[str, Any]], timeout: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        """Submit a client-side batch as one coalescer wave, wait for all.

        All payloads are *parsed* before anything is queued — one malformed
        request fails the whole batch up front, without first handing the
        engine work whose answers nobody will read — and all are queued
        before the first wait, so a ``/batch`` request coalesces with itself
        even under a zero window.
        """
        parsed = [(payload, self._parse_payload(payload)) for payload in payloads]
        futures = [
            (payload, self._submit_parsed(left, right, schema))
            for payload, (left, right, schema) in parsed
        ]
        return [
            self.render(future.result(timeout), payload.get("id"))
            for payload, future in futures
        ]

    # ------------------------------------------------------------------ #
    # live schema updates
    # ------------------------------------------------------------------ #
    def schema_update(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /schema-update``: supersede a schema on the live engine.

        The payload names the superseded and the replacement schema as DSL
        text (``{"old": "schema S {...}", "new": "schema S {...}"}``).
        Every engine cache key holds the schema's content fingerprint, so
        requests against the new schema use fresh keys and are bit-identical
        to a cold-started service; all that is left to do is reclaim the old
        schema's entries (:meth:`~repro.engine.ContainmentEngine.invalidate_schema`).
        A fingerprint-equal pair (a rename) is ``trivial`` and drops nothing.
        Returns ``{"evolved": true, "trivial": ..., "new_fingerprint": ...}``
        merged with the :class:`~repro.engine.InvalidationReport` as a JSON
        dict; the last reply also shows up under ``evolve`` in
        :meth:`stats_report`.
        """
        if self._closed:
            raise RuntimeError("the containment service has been closed")
        if not isinstance(payload, dict):
            raise ServiceError("request must be a JSON object")
        missing = [field for field in ("old", "new") if field not in payload]
        if missing:
            raise ServiceError(
                "schema-update needs 'old' and 'new' schema DSL text "
                f"(missing: {', '.join(missing)})"
            )
        old = self._parse_schema_text(payload["old"], "old")
        new = self._parse_schema_text(payload["new"], "new")
        old_fingerprint = old.canonical_fingerprint()
        new_fingerprint = new.canonical_fingerprint()
        trivial = old_fingerprint == new_fingerprint
        if trivial:
            report = InvalidationReport(old_fingerprint)
        else:
            report = self.engine.invalidate_schema(old)
        rendered: Dict[str, Any] = {
            "evolved": True,
            "trivial": trivial,
            "new_fingerprint": new_fingerprint,
            **report.as_dict(),
        }
        with self._lock:
            self._schema_updates += 1
            self._last_evolve = rendered
        response = dict(rendered)
        if payload.get("id") is not None:
            response["id"] = payload["id"]
        return response

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def healthz(self) -> Dict[str, Any]:
        """The liveness report: cheap, lock-light, always JSON-serialisable."""
        return {
            "status": "closed" if self._closed else "ok",
            "version": __version__,
            "backend": self.backend,
            "uptime_seconds": time.time() - self.started_at,
            "requests": self._requests,
        }

    def stats_report(self) -> Dict[str, Any]:
        """The ``/stats`` block: service, coalescer, engine and store counters."""
        report: Dict[str, Any] = {
            "service": {
                **self.healthz(),
                "failures": self._failures,
                "schema_updates": self._schema_updates,
                "coalesce_window_seconds": self.coalescer.window,
                "max_batch": self.coalescer.max_batch,
                "parse_caches": {
                    cache.stats.name: cache.stats.as_dict()
                    for cache in (self._schemas, self._queries)
                },
            },
            "coalescer": self.coalescer.stats.as_dict(),
            "engine": self.engine.stats.as_dict(),
        }
        with self._lock:
            last_evolve = self._last_evolve
        if last_evolve is not None:
            # the last /schema-update reply, InvalidationReport fields included
            report["evolve"] = last_evolve
        if self.backend == "process":
            process_stats = self.engine.process_stats()
            if process_stats is not None:
                report["workers"] = process_stats.as_dict()
            transport = self.engine.transport_report()
            if transport is not None:
                report["transport"] = transport
        if self.engine.store is not None:
            report["store"] = self.engine.store.describe()
        return report

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Graceful shutdown in dependency order: coalescer → engine.

        The coalescer drains first (in-flight batches finish and their
        write-backs flow through the still-open engine and store); then the
        engine closes, itself ordered pool-before-store.  A borrowed engine
        is left open for its owner.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self.coalescer.close()
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "ContainmentService":
        if self._closed:
            raise RuntimeError("the containment service has been closed")
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
