"""Process-parallel containment batches for the containment engine.

:class:`~repro.engine.ContainmentEngine.check_many` cannot beat the GIL on
the CPU-bound chase within one interpreter, so this module supplies the
*process* backend: a persistent :class:`WorkerPool` whose workers each own a
warm :class:`~repro.engine.ContainmentEngine` in a separate interpreter.  The
pool decides containment requests and nothing else; the analyses run their
containment tests on the caller's engine.

Three design points (docs/ARCHITECTURE.md, "The process-parallel backend"):

* **One routing rule.**  Every request carries the routing key ``(schema
  fp, right-query token, request digest)``.  :func:`plan_routing` spreads a
  batch by schema when it holds at least as many schemas as workers (so a
  worker's schema-TBox and completion caches stay hot), else by right
  query (the completion-cache key), else by request digest.  It is a pure,
  deterministic function of the batch.

* **The process boundary is cheap: references out, digests back.**
  Workers are started via the ``spawn`` method so they never inherit locks
  or caches from the parent; each receives its whole shard as one message
  (pickled in the calling thread, so an unpicklable payload raises at once)
  and replies with one message.  Requests ship through the reference
  protocol of :mod:`repro.engine.transport`: a schema or query the worker
  already holds crosses as a canonical-fingerprint *token* instead of a
  pickled object.  The parent's per-worker ledger mirrors the worker's
  bounded catalog operation for operation, so a reference always resolves.
  Workers compile their own automata from the shipped regexes.  On the way
  back, a result's ``completion.tbox`` — the completed Horn TBox, easily
  hundreds of kilobytes and only ever consumed via
  ``canonical_fingerprint()``/``size()`` — is replaced by a
  :class:`TBoxDigest` carrying exactly those two answers (computed
  worker-side from the real bits); the full TBox stays in the worker's
  completion cache.  Workers open no store: the parent answers what its
  memory and store tiers hold before it ships a batch, and writes back the
  verdicts the workers return.  Worker-side exceptions travel back as
  :class:`WorkerError` with the remote traceback attached.

* **Verdicts are bit-identical to the serial path.**  Workers run the exact
  same ``ContainmentEngine.contains`` code; :func:`result_fingerprint`
  digests every verdict-relevant field (including witness/counterexample
  payloads and the completed TBox fingerprint, excluding only wall-clock
  timings) and the tests and ``benchmarks/bench_parallel_scaling.py`` assert
  serial/process fingerprint identity on every workload.

Aggregate cache statistics are merged back with :func:`merge_stats`, so
``WorkerPool.stats()`` reports pool-wide hit/miss/eviction counters in the
same :class:`EngineStats` shape as a single engine.
"""

from __future__ import annotations

import atexit
import dataclasses
import hashlib
import multiprocessing
import os
import pickle
import queue as queue_module
import threading
import traceback
import weakref
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..containment.solver import ContainmentConfig, ContainmentResult
from .cache import CacheStats
from .engine import ContainmentEngine, EngineStats
from .transport import (
    TokenCatalog,
    TransportStats,
    decode_payload,
    encode_payload,
    query_token,
    schema_token,
)

__all__ = [
    "TBoxDigest",
    "WorkerError",
    "WorkerPool",
    "default_worker_count",
    "graph_token",
    "merge_stats",
    "plan_routing",
    "result_fingerprint",
]


def default_worker_count() -> int:
    """The pool size used when none is given: one worker per CPU, capped."""
    return max(1, min(16, os.cpu_count() or 1))


def _stable_hash(text: str) -> int:
    """A deterministic (process-independent) 64-bit hash of *text*."""
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


# --------------------------------------------------------------------------- #
# routing
# --------------------------------------------------------------------------- #
def plan_routing(keys: Sequence[Tuple[str, str, str]], workers: int) -> List[int]:
    """Assign each request to a worker; deterministic in the batch contents.

    *keys* holds one ``(schema fingerprint, right-query token, request
    digest)`` triple per request.  The batch is spread by the first of those
    components that has at least as many distinct values as there are
    workers: by schema, else by right query (the completion cache's key),
    else by request digest.
    """
    if workers < 1:
        raise ValueError("plan_routing needs at least one worker")
    position = next(
        (position for position in (0, 1) if len({key[position] for key in keys}) >= workers), 2
    )
    return [_stable_hash(key[position]) % workers for key in keys]


# --------------------------------------------------------------------------- #
# fingerprints of results (the determinism-verification material)
# --------------------------------------------------------------------------- #
def graph_token(graph) -> str:
    """A deterministic serialisation of a witness/counterexample graph.

    Node identifiers are rendered with ``repr`` (they may be tuples or
    strings) and both node and edge lists are sorted, so isomorphic copies of
    the same graph object — e.g. a pickled round-trip — produce the same
    token.
    """
    if graph is None:
        return "∅"
    nodes = sorted(f"{node!r}:{','.join(sorted(graph.labels(node)))}" for node in graph.nodes())
    edges = sorted(
        f"{source!r}-{label}->{target!r}" for source, label, target in graph.edges()
    )
    return "|".join(["nodes", *nodes, "edges", *edges])


def result_fingerprint(result: ContainmentResult) -> str:
    """SHA-256 digest of every verdict-relevant field of *result*.

    Wall-clock timing (``elapsed_seconds``) is excluded; everything else —
    including the witness pattern, the finite counterexample payload and the
    completed TBox fingerprint — is part of the digest, so the serial and
    process backends must agree bit-for-bit to fingerprint equal.
    """
    counterexample = result.finite_counterexample
    completion = result.completion
    parts = [
        repr(result.contained),
        result.regime,
        result.schema_name,
        result.left_name,
        result.right_name,
        str(result.tbox_size),
        str(result.patterns_checked),
        result.reason,
        graph_token(result.witness_pattern),
        graph_token(counterexample.graph) if counterexample is not None else "∅",
        repr(counterexample.answer) if counterexample is not None else "∅",
        completion.tbox.canonical_fingerprint() if completion is not None else "∅",
    ]
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# transport lightening
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TBoxDigest:
    """The transport stand-in for a completed TBox in process-backend results
    (and in the store's ``results`` tier).

    Shipping the full completion (hundreds of kilobytes of Horn statements,
    shared by every result of the same ``(schema, right)`` pair) dominates
    batch latency, and callers only ever ask a result's completed TBox two
    questions; the digest answers both from values computed worker-side on
    the real object, so fingerprint comparisons against serial runs remain
    exact.  The TBox memoises its fingerprint, so the digests of all the
    results sharing one completion cost a single canonicalisation.
    """

    fingerprint: str
    statement_count: int

    def canonical_fingerprint(self) -> str:
        return self.fingerprint

    def size(self) -> int:
        return self.statement_count

    def __getattr__(self, name: str):
        # results computed by worker processes (and their cached replays on
        # the parent engine) carry this digest; anything beyond the two
        # supported queries should fail with directions, not a puzzle
        raise AttributeError(
            f"TBoxDigest has no attribute {name!r}: it stands in for a completed "
            "TBox shipped back from a worker process and only supports "
            "canonical_fingerprint() and size(); rebuild the full TBox with a "
            "ContainmentSolver (or a serial engine call) if you need the statements"
        )


def _lighten_containment(result: ContainmentResult) -> ContainmentResult:
    """Replace the completed TBox with its digest.

    The engine's completion cache hands the same completed TBox to every
    result of a ``(schema, right)`` pair; ``TBox.canonical_fingerprint()``
    is memoised on that object, so it is canonicalised once however many
    results, chunks and write-backs carry it.
    """
    completion = result.completion
    if completion is None or isinstance(completion.tbox, TBoxDigest):
        return result
    digest = TBoxDigest(completion.tbox.canonical_fingerprint(), completion.tbox.size())
    return dataclasses.replace(result, completion=dataclasses.replace(completion, tbox=digest))


# --------------------------------------------------------------------------- #
# statistics merging
# --------------------------------------------------------------------------- #
def _merge_cache_stats(name: str, snapshots: Sequence[CacheStats]) -> CacheStats:
    merged = CacheStats(name)
    for snapshot in snapshots:
        merged.hits += snapshot.hits
        merged.misses += snapshot.misses
        merged.evictions += snapshot.evictions
    return merged


def merge_stats(snapshots: Sequence[EngineStats]) -> EngineStats:
    """Sum per-worker :class:`EngineStats` into one pool-wide aggregate."""
    return EngineStats(
        results=_merge_cache_stats("results", [s.results for s in snapshots]),
        completions=_merge_cache_stats("completions", [s.completions for s in snapshots]),
        schema_tboxes=_merge_cache_stats("schema-tboxes", [s.schema_tboxes for s in snapshots]),
        automata=_merge_cache_stats("automata", [s.automata for s in snapshots]),
        contains_calls=sum(s.contains_calls for s in snapshots),
        batches=sum(s.batches for s in snapshots),
    )


# --------------------------------------------------------------------------- #
# the worker process
# --------------------------------------------------------------------------- #
class WorkerError(RuntimeError):
    """A task raised inside a worker process; carries the remote traceback."""

    def __init__(self, message: str, remote_traceback: str = "") -> None:
        super().__init__(message)
        self.remote_traceback = remote_traceback


def _worker_main(worker_id: int, config, inbox, outbox) -> None:
    """The worker loop: one warm engine, containment requests in, verdicts out.

    The engine holds memory tiers only; the parent owns the store.  A
    reference the catalog cannot resolve would mean the mirror broke; it
    kills the worker, and the parent's dead-worker detection replaces the
    pool.
    """
    engine = ContainmentEngine(config)
    catalog = TokenCatalog()
    while True:
        message = inbox.get()
        if message is None:
            break
        if message[0] == "stats":
            outbox.put(("stats", worker_id, engine.stats))
            continue
        reply: List[Tuple] = []
        for index, payload in pickle.loads(message[1]):
            left, right, schema, request_config = decode_payload(payload, catalog)
            try:
                result = engine.contains(left, right, schema, request_config)
                reply.append((index, "ok", _lighten_containment(result)))
            except Exception as error:  # noqa: BLE001 - relayed to the parent
                reply.append(
                    (index, "error", f"{type(error).__name__}: {error}", traceback.format_exc())
                )
        outbox.put(("results", worker_id, reply))


_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()


@atexit.register
def _close_live_pools() -> None:  # pragma: no cover - interpreter shutdown
    for pool in list(_LIVE_POOLS):
        pool.close()


class WorkerPool:
    """A persistent pool of worker processes, each with a warm engine.

    Workers are started lazily on the first batch (or eagerly via
    :meth:`start`) with the ``spawn`` method, so each runs a fresh interpreter
    with nothing inherited from the parent but the pickled *config*.  The
    pool survives across batches — that is the whole point:
    per-worker caches accumulate heat exactly like a long-lived serial
    engine's.  Use as a context manager or call :meth:`close` to tear down;
    live pools are also closed at interpreter exit.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        config: Optional[ContainmentConfig] = None,
    ) -> None:
        self.workers = workers or default_worker_count()
        self.config = config
        self._context = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._processes: List[Any] = []
        self._inboxes: List[Any] = []
        self._outbox: Optional[Any] = None
        self._closed = False
        # the reference protocol (repro.engine.transport): one ledger per
        # worker mirroring that worker's token catalog, and the counters
        self._ledgers: List[TokenCatalog] = [TokenCatalog() for _ in range(self.workers)]
        self.transport_stats = TransportStats()
        _LIVE_POOLS.add(self)
        # a pool dropped without close() (e.g. its engine was discarded) must
        # not leak its worker processes; the finalizer reaps them at GC time.
        # close() empties the shared lists, which makes the reap a no-op.
        self._finalizer = weakref.finalize(self, WorkerPool._reap, self._processes, self._inboxes)

    @staticmethod
    def _reap(processes: List[Any], inboxes: List[Any]) -> None:
        """GC-time teardown: runs without the pool lock (the pool is gone)."""
        for inbox in inboxes:
            try:
                inbox.put(None)
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                pass
        for process in processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def started(self) -> bool:
        return bool(self._processes)

    @property
    def closed(self) -> bool:
        return self._closed

    def start(self) -> "WorkerPool":
        """Spawn the worker processes (no-op when already running)."""
        with self._lock:
            self._ensure_started()
        return self

    def _ensure_started(self) -> None:
        if self._closed:
            raise RuntimeError("the worker pool has been closed")
        if self._processes:
            return
        self._outbox = self._context.Queue()
        for worker_id in range(self.workers):
            inbox = self._context.Queue()
            process = self._context.Process(
                target=_worker_main,
                args=(worker_id, self.config, inbox, self._outbox),
                daemon=True,
                name=f"repro-engine-worker-{worker_id}",
            )
            process.start()
            self._inboxes.append(inbox)
            self._processes.append(process)

    def close(self) -> None:
        """Stop the workers and release the queues (idempotent)."""
        with self._lock:
            self._teardown_locked()

    def _teardown_locked(self) -> None:
        """Stop workers and release queues; caller holds the pool lock.

        Also the failure path: after a worker died mid-batch the outbox may
        still hold (or later receive) replies from surviving workers, which
        a subsequent batch would misattribute to its own indices — so the
        whole pool is torn down rather than left half-alive.  The engine
        transparently builds a fresh pool on the next process batch.
        """
        if self._closed:
            return
        self._closed = True
        for inbox in self._inboxes:
            try:
                inbox.put(None)
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                pass
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
        self._release_locked()

    def _release_locked(self) -> None:
        """The shared teardown tail of every path — close, interrupt abort,
        dead-worker teardown: free the queues, forget the workers."""
        for inbox in self._inboxes:
            inbox.close()
        if self._outbox is not None:
            self._outbox.close()
        self._processes.clear()
        self._inboxes.clear()
        self._outbox = None

    def _abort_locked(self) -> None:
        """Immediate teardown for an interrupted batch; caller holds the lock.

        The graceful path (:meth:`_teardown_locked`) asks each worker to
        finish via a sentinel and then joins with a 5 s timeout *per process,
        serially* — after a Ctrl-C mid-batch that can hold the terminal for
        ``5 × workers`` seconds while spawn children keep burning CPU.  Here
        every worker is terminated first (in parallel — SIGTERM is
        asynchronous), then joined briefly, then killed if it still lingers;
        a mid-chase worker's state is unrecoverable anyway, and the engine
        builds a fresh pool on the next batch.
        """
        if self._closed:
            return
        self._closed = True
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - SIGTERM ignored
                process.kill()
                process.join(timeout=1.0)
        self._release_locked()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # batch execution
    # ------------------------------------------------------------------ #
    def run_batch(
        self,
        payloads: Sequence[Tuple],
        routing_keys: Sequence[Tuple[str, str, str]],
        transport_tokens: Sequence[Tuple[str, str, str]],
    ) -> List[ContainmentResult]:
        """Route ``(left, right, schema, config)`` *payloads* to workers;
        the results keep request order.

        Each participating worker receives its whole shard as **one** message
        and replies with one message.  Payloads are encoded through the
        reference protocol against the worker's ledger, with one ``(left,
        right, schema)`` token triple per payload in *transport_tokens*:
        slots the worker already holds ship as bare tokens, the rest ship
        once as values.  Chunks are pickled here, before any is sent: a
        payload that cannot be pickled (or an interrupt while encoding)
        closes the pool, whose ledgers already count the batch as sent, and
        the error propagates.

        One batch at a time: submissions are serialised under the pool lock
        so interleaved batches cannot steal each other's replies.  A
        worker-side exception does not abort the rest of that worker's
        shard; after all replies arrive the first failure (in request order)
        is raised as :class:`WorkerError`.  An *interrupt*
        (KeyboardInterrupt/SIGINT, SystemExit) mid-batch shuts the pool down
        promptly — workers are terminated in parallel rather than left to the
        ``atexit`` hook's serial 5-second joins — and the interrupt
        propagates.
        """
        if not len(payloads) == len(routing_keys) == len(transport_tokens):
            raise ValueError("run_batch: payloads, routing keys and transport tokens must align")
        if not payloads:
            return []
        with self._lock:
            self._ensure_started()
            assignment = plan_routing(routing_keys, self.workers)
            chunks: Dict[int, List[Tuple[int, Tuple]]] = {}
            try:
                for index, (payload, worker) in enumerate(zip(payloads, assignment)):
                    payload = encode_payload(
                        payload, transport_tokens[index], self._ledgers[worker],
                        self.transport_stats,
                    )
                    chunks.setdefault(worker, []).append((index, payload))
                # pickled here rather than in the queue's feeder thread, which
                # would drop an unpicklable chunk and leave its worker idle
                blobs = {
                    worker: pickle.dumps(chunk, pickle.HIGHEST_PROTOCOL)
                    for worker, chunk in chunks.items()
                }
            except BaseException:
                # the ledgers already count these chunks as sent: a pool kept
                # alive would reference tokens its workers never received
                self._teardown_locked()
                raise
            results: List[Any] = [None] * len(payloads)
            errors: List[Tuple[int, int, str, str]] = []
            try:
                # the abort window opens before the first put: once any chunk
                # is in flight, an un-aborted pool would hold replies a later
                # batch could misattribute to its own indices
                for worker, blob in blobs.items():
                    self._inboxes[worker].put(("tasks", blob))
                self._gather(len(blobs), results, errors)
            except (KeyboardInterrupt, SystemExit):
                # the workers are mid-chase and their replies are now
                # unclaimable; leaving them alive would burn CPU until the
                # atexit joins (5 s each, serially) finally reaped them
                self._abort_locked()
                raise
            if errors:
                errors.sort()
                index, worker_id, description, remote_traceback = errors[0]
                suffix = f" (+{len(errors) - 1} more)" if len(errors) > 1 else ""
                raise WorkerError(
                    f"worker {worker_id} failed on request {index}: {description}{suffix}",
                    remote_traceback,
                )
            return results

    def _gather(
        self, replies: int, results: List[Any], errors: List[Tuple[int, int, str, str]]
    ) -> None:
        """Collect *replies* worker messages into results and errors."""
        for _ in range(replies):
            message = self._receive()
            if message[0] != "results":  # pragma: no cover - defensive
                raise WorkerError(f"unexpected reply while running a batch: {message[0]!r}")
            _, worker_id, reply = message
            for entry in reply:
                if entry[1] == "ok":
                    results[entry[0]] = entry[2]
                else:
                    errors.append((entry[0], worker_id, entry[2], entry[3]))

    def _receive(self) -> Tuple:
        """One reply from the outbox, watching for dead workers.

        A worker that dies without replying (killed, import failure in the
        spawned interpreter, a reference its catalog cannot resolve) would
        otherwise block the parent forever; polling its liveness turns that
        into a :class:`WorkerError` naming the exit code.  Because replies from the
        *surviving* workers of the aborted batch may still be in flight, the
        pool is torn down before raising — a half-alive pool would hand
        those stale replies to the next batch as its own results.
        """
        while True:
            try:
                return self._outbox.get(timeout=1.0)
            except queue_module.Empty:
                dead = [
                    (process.name, process.exitcode)
                    for process in self._processes
                    if not process.is_alive()
                ]
                if dead:
                    self._teardown_locked()  # the caller already holds the lock
                    raise WorkerError(
                        "worker process(es) died without replying: "
                        + ", ".join(f"{name} (exit code {code})" for name, code in dead)
                        + "; the pool has been closed — the engine will start a "
                        "fresh one on the next process batch"
                    )

    def check_many(
        self,
        requests: Sequence[Tuple[Any, Any, Any, Optional[ContainmentConfig]]],
    ) -> List[ContainmentResult]:
        """Decide ``(left, right, schema, config)`` requests whose queries
        the caller has normalised (:meth:`ContainmentEngine.check_many` does).

        The routing key is ``(schema fp, right token, full request digest)``
        (see :func:`plan_routing`).  The same canonical tokens double as the
        reference-protocol tokens, so repeated schemas and queries cross the
        process boundary as compact references rather than pickled objects
        (see :meth:`run_batch`).
        """
        keys = []
        tokens = []
        for left, right, schema, config in requests:
            schema_fp = schema.canonical_fingerprint()
            right_canonical = right.canonical_token()
            left_canonical = left.canonical_token()
            request_digest = "\x1f".join(
                (schema_fp, right_canonical, left_canonical, repr(config))
            )
            keys.append((schema_fp, right_canonical, request_digest))
            tokens.append(
                (
                    query_token(left.name, left_canonical),
                    query_token(right.name, right_canonical),
                    schema_token(schema.name, schema_fp),
                )
            )
        return self.run_batch(requests, keys, tokens)

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def worker_stats(self) -> List[EngineStats]:
        """Per-worker engine statistics (in worker order)."""
        with self._lock:
            self._ensure_started()
            for inbox in self._inboxes:
                inbox.put(("stats",))
            snapshots: List[Optional[EngineStats]] = [None] * self.workers
            for _ in range(self.workers):
                message = self._receive()
                if message[0] != "stats":  # pragma: no cover - defensive
                    raise WorkerError(f"unexpected reply while collecting stats: {message[0]!r}")
                _, worker_id, stats = message
                snapshots[worker_id] = stats
            return [snapshot for snapshot in snapshots if snapshot is not None]

    def stats(self) -> EngineStats:
        """Pool-wide aggregate of every worker's cache counters."""
        return merge_stats(self.worker_stats())
