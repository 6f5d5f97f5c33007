"""The cached containment engine and its batch API.

Every static-analysis entry point of the paper — type checking, equivalence
and schema elicitation — reduces to *many* containment tests modulo the same
schema (Theorem 4.2's polynomial Turing reduction).  A bare
:class:`~repro.containment.solver.ContainmentSolver` rebuilds the schema
encoding ``T̂_S``, the rolled-up ``T_¬Q`` and the cycle-reversal completion
from scratch on every call; the :class:`ContainmentEngine` owns those
artefacts in per-schema caches keyed by canonical fingerprints
(:meth:`Schema.canonical_fingerprint`, :meth:`UC2RPQ.canonical_token`) and
substitutes them through the solver's pipeline hooks, so repeated calls
against a warm schema skip straight to the chase.
(:meth:`TBox.canonical_fingerprint` is the corresponding verification tool:
cached and fresh runs must produce bit-identical completed TBoxes, which the
engine tests and benchmarks assert by fingerprint.)

Three caches, from coarse to fine (see docs/ARCHITECTURE.md for the exact key
composition and invalidation rules):

* **results** — full :class:`ContainmentResult` verdicts per
  ``(schema, left, right, config)``;
* **completions** — the completed ``T̂_S ∪ T_¬Q`` choice lists *plus* their
  chase engines (whose tree-extendability memos stay warm) per
  ``(schema, extended schema, right query, completion config)``; concurrent
  cold callers of one key wait for the first one's list instead of each
  completing their own;
* **schema-tboxes** — the Horn encoding ``T̂_S`` per
  ``(schema, extended schema)``.

Every key leads with the base schema's canonical fingerprint, so
:meth:`ContainmentEngine.invalidate_schema` finds a schema's entries in all
three caches by that one component.

Compiled atom automata (:class:`repro.core.CompiledAutomaton`) are not an
engine cache: they are functions of the regex alone, so they live once per
regex in the process-wide :func:`repro.core.compile_regex` memo, shared by
every engine and schema, and the engine's ``automata`` statistics are that
memo's counters (``repro.core.clear_compile_memo()`` is the cold-path reset).

Because all keys are content fingerprints, mutating a schema or query after a
call can never make the caches return stale answers — a mutated object simply
fingerprints to a new key.  :meth:`ContainmentEngine.check_many` evaluates
batches (serially, or on the worker processes of the ``"process"`` backend)
and :data:`default_engine` provides the process-wide instance behind the
stateless :func:`repro.containment.contains` wrapper.

``ContainmentEngine(persist=path)`` adds a **second, disk-persistent tier**
below the results cache (:class:`repro.store.ResultStore`).  Both backends
share one read path (memory, then disk) and one write path (memory, then
disk): a serial call solves what the read path misses, a process batch
ships only its misses to the worker pool.  Only the engine opens the store;
workers hold no store at all.  The store is keyed by the same canonical
fingerprints and version-stamped, so verdicts are bit-identical with the
store hot, cold, disabled or deleted; each row names its schema's
fingerprint (see docs/ARCHITECTURE.md, "The two-tier cache hierarchy").

A schema edit needs no migration either: the edited schema fingerprints to
fresh keys, so :meth:`ContainmentEngine.invalidate_schema` on the old one
only reclaims its entries, from memory and from the store, and reports the
per-tier counts as a structured :class:`InvalidationReport` (see
docs/ARCHITECTURE.md, "Schema updates").
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..containment.counterexample import Counterexample
from ..containment.solver import (
    ContainmentConfig,
    ContainmentResult,
    ContainmentSolver,
    _as_union,
)
from ..core.compile import compile_memo_stats
from ..rpq.queries import UC2RPQ
from ..schema.schema import Schema
from ..store import ResultStore, StoreStats
from .cache import CacheStats, LRUCache

__all__ = [
    "BACKENDS",
    "ContainmentEngine",
    "EngineStats",
    "InvalidationReport",
    "default_engine",
    "reset_default_engine",
]

#: The ``check_many`` execution backends (``"serial"`` is the default).
BACKENDS = ("serial", "process")


@dataclass
class EngineStats:
    """A snapshot of the engine's cache counters and call totals.

    ``automata`` is the process-wide :func:`repro.core.compile_regex`
    memo's counters, not this engine's: every compilation in the process
    counts, whichever engine (if any) asked for it, and
    :func:`repro.core.clear_compile_memo` resets them.  ``store`` is the
    persistent tier's counters, present only on engines constructed with
    ``persist=``.
    """

    results: CacheStats
    completions: CacheStats
    schema_tboxes: CacheStats
    automata: CacheStats
    contains_calls: int = 0
    batches: int = 0
    store: Optional[StoreStats] = None

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for logging and benchmark reports."""
        report = {
            "contains_calls": self.contains_calls,
            "batches": self.batches,
            "caches": {
                stats.name: stats.as_dict()
                for stats in (self.results, self.completions, self.schema_tboxes, self.automata)
            },
        }
        if self.store is not None:
            report["store"] = self.store.as_dict()
        return report

    def summary(self) -> str:
        """A short human-readable report."""
        lines = [f"engine: {self.contains_calls} containment calls, {self.batches} batches"]
        lines.extend(
            f"  {stats}"
            for stats in (self.results, self.completions, self.schema_tboxes, self.automata)
        )
        if self.store is not None:
            lines.append(f"  {self.store}")
        return "\n".join(lines)


@dataclass(frozen=True)
class InvalidationReport:
    """Per-tier counts dropped by :meth:`ContainmentEngine.invalidate_schema`.

    ``results``, ``completions`` and ``schema_tboxes`` count the in-memory
    entries dropped; ``store_rows`` counts the persistent-store rows filed
    under the schema's fingerprint that were deleted (0 without a writable
    store).
    """

    schema_fingerprint: str
    results: int = 0
    completions: int = 0
    schema_tboxes: int = 0
    store_rows: int = 0

    @property
    def total(self) -> int:
        """Entries dropped from the in-memory tiers (store rows excluded)."""
        return self.results + self.completions + self.schema_tboxes

    def tier_counts(self) -> Dict[str, int]:
        return {
            "results": self.results,
            "completions": self.completions,
            "schema-tboxes": self.schema_tboxes,
        }

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for ``/stats`` and the cache CLI."""
        return {
            "schema_fingerprint": self.schema_fingerprint,
            "invalidated": self.tier_counts(),
            "store_rows": self.store_rows,
            "total": self.total,
        }

    def summary(self) -> str:
        """A short human-readable report."""
        tiers = ", ".join(f"{name}={count}" for name, count in self.tier_counts().items())
        return (
            f"invalidated schema {self.schema_fingerprint[:12]}…: "
            f"{tiers}, store_rows={self.store_rows}"
        )


def _digest(*parts: str) -> str:
    payload = "\x1f".join(parts).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _result_key(
    schema: Schema, left: UC2RPQ, right: UC2RPQ, config: ContainmentConfig
) -> Tuple[str, str, ContainmentConfig]:
    """The results-cache key for one (already ``_as_union``-normalised) call.

    Computed by the engine's read path for both backends (and by the
    service's coalescer to deduplicate), so results computed in worker
    processes land under exactly the key a later serial call will look up.
    """
    return (
        schema.canonical_fingerprint(),
        _digest(left.canonical_token(), left.name, right.canonical_token(), right.name),
        config,
    )


def _store_token(key: Tuple[str, str, ContainmentConfig]) -> str:
    """Flatten a results-cache key into the store's string key space.

    ``ContainmentConfig`` is a frozen dataclass of plain values (and nested
    frozen dataclasses), so its ``repr`` is a deterministic canonical token —
    two configs hash to the same store row exactly when they would hit the
    same in-memory cache entry.
    """
    schema_fingerprint, pair_digest, config = key
    return _digest(schema_fingerprint, pair_digest, repr(config))


def _independent_copy(result: ContainmentResult, **changes: Any) -> ContainmentResult:
    """*result* with its own copies of the witness graphs, plus *changes*.

    A caller mutating its counterexample (e.g. relabelling nodes for
    display) cannot corrupt a cached verdict or another caller's copy; the
    ``completion`` bookkeeping object stays shared and must be treated as
    read-only, and ``result_fingerprint`` is unchanged.
    """
    witness = result.witness_pattern.copy() if result.witness_pattern is not None else None
    counterexample = result.finite_counterexample
    if counterexample is not None:
        counterexample = Counterexample(counterexample.graph.copy(), counterexample.answer)
    return dataclasses.replace(
        result, witness_pattern=witness, finite_counterexample=counterexample, **changes
    )


def _replay(cached: ContainmentResult, schema: Schema, elapsed: float) -> ContainmentResult:
    """Re-issue a cached verdict as an independent result for *schema*.

    ``schema_name`` is refreshed because the cache key is name-insensitive
    for schemas (renamed-but-equal schemas hit the same entry) while query
    names are part of the key already.
    """
    return _independent_copy(cached, schema_name=schema.name, elapsed_seconds=elapsed)


class _CachingSolver(ContainmentSolver):
    """A drop-in :class:`ContainmentSolver` whose pipeline stages consult the
    engine's caches.

    It inherits the full decision procedure unchanged and only overrides the
    hook methods, so cached and uncached runs execute the same algorithm on
    the same intermediate artefacts — verdicts are identical by construction.
    """

    def __init__(
        self, engine: "ContainmentEngine", schema: Schema, config: Optional[ContainmentConfig]
    ) -> None:
        super().__init__(schema, config or engine.default_config)
        self.engine = engine

    # -- cached full results ------------------------------------------------
    def contains(self, left, right) -> ContainmentResult:
        started = time.perf_counter()
        left = _as_union(left, "P")
        right = _as_union(right, "Q")
        engine = self.engine
        key, token, cached = engine._lookup(self.schema, left, right, self.config)
        if cached is not None:
            self.contains_calls += 1  # a miss is counted once, by ContainmentSolver.contains
            return _replay(cached, self.schema, time.perf_counter() - started)
        result = super().contains(left, right)
        engine._remember([(key, token, result)])
        return _independent_copy(result)

    # -- cached pipeline stages ---------------------------------------------
    # their keys lead with the base schema's fingerprint, so invalidation
    # finds them without knowing which extended schemas (the booleanized
    # schema plus per-variable marker labels) were derived from it
    def _schema_tbox(self, extended_schema: Schema):
        engine = self.engine
        key = (self.schema.canonical_fingerprint(), extended_schema.canonical_fingerprint())
        with engine._lock:
            cached = engine._schema_tboxes.get(key)
        if cached is None:
            cached = super()._schema_tbox(extended_schema)
            with engine._lock:
                engine._schema_tboxes.put(key, cached)
        return cached

    def _prepared_choices(self, reduction, right_name: str):
        engine = self.engine
        key = (
            self.schema.canonical_fingerprint(),
            reduction.schema.canonical_fingerprint(),
            _digest(reduction.right.canonical_token(), right_name),
            self.config.completion,
            self.config.apply_completion,
        )
        # one caller computes a missing list; the others wait for it, and
        # look again if that computation raised (it files nothing)
        while True:
            with engine._lock:
                cached = engine._completions.get(key)
                if cached is not None:
                    return cached
                flight = engine._completing.get(key)
                if flight is None:
                    flight = engine._completing[key] = _InFlight()
                    break
            flight.done.wait()
            if flight.choices is not None:
                return flight.choices
        try:
            choices = super()._prepared_choices(reduction, right_name)
            with engine._lock:
                engine._completions.put(key, choices)
            flight.choices = choices
        finally:
            with engine._lock:
                del engine._completing[key]
            flight.done.set()
        return choices


class _InFlight:
    """A completion list that one caller computes while others wait for it;
    ``choices`` stays ``None`` when the computation raised."""

    __slots__ = ("done", "choices")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.choices = None


class ContainmentEngine:
    """Decides UC2RPQ containment modulo schemas with per-schema caching.

    The engine is schema-agnostic: pass the schema per call (or bind one with
    :meth:`solver`), and artefacts are cached under content fingerprints, so
    one engine can serve any number of schemas concurrently.  All cache
    access is serialised by an internal lock, so callers on several threads
    (the service's coalescer flusher and its HTTP handlers) may share one
    engine.
    """

    def __init__(
        self,
        config: Optional[ContainmentConfig] = None,
        *,
        result_cache_size: int = 4096,
        completion_cache_size: int = 512,
        schema_tbox_cache_size: int = 128,
        max_workers: Optional[int] = None,
        persist: Optional[Any] = None,
    ) -> None:
        self.default_config = config or ContainmentConfig()
        self.max_workers = max_workers
        self._lock = threading.RLock()
        self._results = LRUCache("results", result_cache_size)
        self._completions = LRUCache("completions", completion_cache_size)
        # completions keys being computed, each with the entry its waiters block on
        self._completing: Dict[Hashable, _InFlight] = {}
        self._schema_tboxes = LRUCache("schema-tboxes", schema_tbox_cache_size)
        self._contains_calls = 0
        self._batches = 0
        self._closed = False
        self._process_pool: Optional[Any] = None
        # the second cache tier: memory → disk → solver (never blocks answers
        # — an unopenable store is a disabled one, see repro.store)
        self._store: Optional[ResultStore] = (
            ResultStore(persist) if persist is not None else None
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_open(self) -> None:
        """Fail fast (and clearly) on a closed engine.

        Without this check a closed engine would limp along on its disabled
        store — or surface as ``sqlite3.ProgrammingError`` from deep inside a
        write-back — instead of naming the actual mistake.
        """
        if self._closed:
            raise RuntimeError(
                "this ContainmentEngine has been closed; create a new engine "
                "(close() tears down the worker pool and the persistent store)"
            )

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` has run (statistics stay readable)."""
        return self._closed

    def __enter__(self) -> "ContainmentEngine":
        self._ensure_open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # the verdict tiers: one read path and one write path for both backends
    # ------------------------------------------------------------------ #
    def _lookup(
        self, schema: Schema, left: UC2RPQ, right: UC2RPQ, config: ContainmentConfig
    ) -> Tuple[Tuple, Optional[str], Optional[ContainmentResult]]:
        """The read path: memory, then the store (a disk hit warms memory).

        Returns the results-cache key, the store token (``None`` without a
        store; computed once, for the lookup and the write-back) and the
        cached verdict or ``None``.  Counts one containment call; the caller
        replays a hit.
        """
        key = _result_key(schema, left, right, config)
        token = _store_token(key) if self._store is not None else None
        with self._lock:
            self._contains_calls += 1
            cached = self._results.get(key)
        if cached is None and token is not None:
            # the store has its own lock; never taken under ours
            cached = self._store.get(token)
            if cached is not None:
                with self._lock:
                    self._results.put(key, cached)
        return key, token, cached

    def _remember(self, entries: List[Tuple[Tuple, Optional[str], ContainmentResult]]) -> None:
        """The write path: ``(key, token, result)`` entries into memory, then
        into the store in one transaction (already-persisted rows skipped)."""
        with self._lock:
            for key, _, result in entries:
                self._results.put(key, result)
        if self._store is not None:
            self._store.put_many([(key[0], token, result) for key, token, result in entries])

    # ------------------------------------------------------------------ #
    # solver facade
    # ------------------------------------------------------------------ #
    def solver(
        self, schema: Schema, config: Optional[ContainmentConfig] = None
    ) -> ContainmentSolver:
        """A schema-bound solver that shares this engine's caches.

        The returned object is a :class:`ContainmentSolver` subclass, so it
        drops into every API that accepts a solver (``trim``,
        ``check_label_coverage``, ``StatementChecker``, …).
        """
        self._ensure_open()
        return _CachingSolver(self, schema, config)

    def contains(
        self,
        left,
        right,
        schema: Schema,
        config: Optional[ContainmentConfig] = None,
    ) -> ContainmentResult:
        """Decide ``left ⊆_schema right`` through the caches."""
        return self.solver(schema, config).contains(left, right)

    # ------------------------------------------------------------------ #
    # batch API
    # ------------------------------------------------------------------ #
    def check_many(
        self,
        requests: Iterable[Sequence],
        schema: Optional[Schema] = None,
        config: Optional[ContainmentConfig] = None,
        parallel: str = "serial",
        max_workers: Optional[int] = None,
    ) -> List[ContainmentResult]:
        """Decide a batch of containment tests; results keep request order.

        Each request is a ``(left, right)`` / ``(left, right, schema)`` /
        ``(left, right, schema, config)`` tuple;
        ``schema`` and ``config`` arguments fill in whatever a request leaves
        unset.  ``parallel`` selects the execution backend:

        * ``"serial"`` (the default) — this thread, in request order;
        * ``"process"`` — the engine's persistent
          :class:`~repro.engine.parallel.WorkerPool` of worker processes,
          sharded by schema fingerprint (see docs/ARCHITECTURE.md).  Every
          request is first looked up in this engine's memory and store
          tiers, and hits replay here; only the misses go to the workers,
          which open no store, so a fully warm batch starts no pool.
          Worker verdicts are written back to both tiers, so later calls
          on either backend replay them warm; worker-side cache counters
          are reported by :meth:`process_stats`, not :attr:`stats`.  One
          transport difference: in these results (and their cached
          replays) ``completion.tbox`` is a
          :class:`~repro.engine.parallel.TBoxDigest` — it answers
          ``canonical_fingerprint()``/``size()`` exactly like the real
          completed TBox but does not carry the statements themselves.
          An empty batch starts no pool.  The pool decides containment
          requests only: the analyses run their containment tests on the
          engine they are given.

        Any other value (see :data:`BACKENDS`) raises :class:`ValueError`.
        Both backends return bit-identical results (asserted by fingerprint
        in the tests and ``benchmarks/bench_parallel_scaling.py``).
        """
        self._ensure_open()
        backend = self._normalise_backend(parallel)
        normalized: List[Tuple[Any, Any, Schema, Optional[ContainmentConfig]]] = []
        for request in requests:
            parts = tuple(request)
            if not 2 <= len(parts) <= 4:
                raise TypeError(
                    f"check_many expects (left, right[, schema[, config]]) tuples, got {request!r}"
                )
            left, right = parts[0], parts[1]
            request_schema = parts[2] if len(parts) >= 3 else None
            request_config = parts[3] if len(parts) == 4 else None
            resolved_schema = request_schema or schema
            if resolved_schema is None:
                raise TypeError("check_many: no schema given for a request and no batch default")
            normalized.append((left, right, resolved_schema, request_config or config))

        with self._lock:
            self._batches += 1

        if backend == "process" and normalized:
            return self._check_many_in_processes(normalized, max_workers)
        # serial, or an empty process batch: nothing to fan out
        return [self.contains(*task) for task in normalized]

    @staticmethod
    def _normalise_backend(parallel: str) -> str:
        if parallel in BACKENDS:
            return parallel
        raise ValueError(f"unknown backend {parallel!r} (expected 'serial' or 'process')")

    def _check_many_in_processes(
        self,
        normalized: List[Tuple[Any, Any, Schema, Optional[ContainmentConfig]]],
        max_workers: Optional[int],
    ) -> List[ContainmentResult]:
        """Answer what the tiers hold, fan the misses out over the worker
        pool and merge them back.

        Every request goes through the read path first; hits replay here
        exactly as on the serial path, so a fully warm batch starts no pool.
        Worker verdicts go through the write path under the same keys the
        serial path uses, so a process batch warms memory and store exactly
        like a serial one.
        """
        results: List[Optional[ContainmentResult]] = [None] * len(normalized)
        misses = []
        for index, (left, right, task_schema, task_config) in enumerate(normalized):
            started = time.perf_counter()
            left, right = _as_union(left, "P"), _as_union(right, "Q")
            key, token, cached = self._lookup(
                task_schema, left, right, task_config or self.default_config
            )
            if cached is not None:
                results[index] = _replay(cached, task_schema, time.perf_counter() - started)
            else:
                misses.append((index, key, token, (left, right, task_schema, task_config)))
        if misses:
            solved = self.process_pool(max_workers).check_many([task for *_, task in misses])
            self._remember(
                [(key, token, result) for (_, key, token, _), result in zip(misses, solved)]
            )
            for (index, *_), result in zip(misses, solved):
                results[index] = _independent_copy(result)
        return results

    def process_pool(self, max_workers: Optional[int] = None):
        """The engine's persistent worker pool, created on first use.

        The pool inherits the engine's default config; its size is fixed at
        creation (``max_workers``, then the engine's ``max_workers``, then
        one per CPU).  Once it lives, ``max_workers`` must be ``None`` or
        its size: any other count raises :class:`ValueError` (call
        :meth:`shutdown` first to resize).  Call :meth:`shutdown` to stop
        the workers; the pool is also closed at interpreter exit.  A pool
        that closed itself after a worker death is replaced by a fresh one
        here.
        """
        from .parallel import WorkerPool, default_worker_count

        self._ensure_open()
        with self._lock:
            pool = self._process_pool
            if pool is None or pool.closed:
                workers = max_workers or self.max_workers or default_worker_count()
                pool = self._process_pool = WorkerPool(workers, self.default_config)
            elif max_workers and max_workers != pool.workers:
                raise ValueError(
                    f"max_workers={max_workers} asks for another size than the live "
                    f"pool's {pool.workers} workers; shutdown() the pool first"
                )
            return pool

    def process_stats(self) -> Optional[EngineStats]:
        """Aggregated worker-side cache counters, ``None`` before first use."""
        with self._lock:
            pool = self._process_pool
        if pool is None or not pool.started:
            return None
        return pool.stats()

    def transport_report(self) -> Optional[Dict[str, Any]]:
        """The pool's transport counters, ``None`` before the pool exists."""
        with self._lock:
            pool = self._process_pool
        if pool is None:
            return None
        return pool.transport_stats.as_dict()

    def shutdown(self) -> None:
        """Stop the worker pool, if one was created (caches are kept).

        The persistent store stays open — a long-lived engine keeps serving
        disk hits after its pool is gone; :meth:`close` tears down both.
        """
        with self._lock:
            pool, self._process_pool = self._process_pool, None
        if pool is not None:
            pool.close()

    def close(self) -> None:
        """Full teardown, in dependency order: pool first, then the store.

        The pool goes first because its final merge-backs write through this
        engine; the store closes last so nothing tries to persist into a dead
        handle.  Idempotent — a second ``close()`` is a no-op — and terminal:
        further ``contains``/``check_many``/``solver`` calls raise a clear
        :class:`RuntimeError` instead of degrading silently (or surfacing as
        ``sqlite3.ProgrammingError``).  Statistics stay readable for
        post-mortem reports.
        """
        if self._closed:
            return
        self.shutdown()
        self._closed = True
        if self._store is not None:
            self._store.close()

    # ------------------------------------------------------------------ #
    # statistics and cache management
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> Optional[ResultStore]:
        """The persistent store, ``None`` unless constructed with ``persist=``."""
        return self._store

    @property
    def stats(self) -> EngineStats:
        """An independent snapshot of all counters (safe to keep around)."""
        hits, misses, evictions = compile_memo_stats()
        with self._lock:
            return EngineStats(
                results=self._results.stats.snapshot(),
                completions=self._completions.stats.snapshot(),
                schema_tboxes=self._schema_tboxes.stats.snapshot(),
                automata=CacheStats("automata", hits, misses, evictions),
                contains_calls=self._contains_calls,
                batches=self._batches,
                store=self._store.stats.snapshot() if self._store is not None else None,
            )

    def cache_sizes(self) -> Dict[str, int]:
        """Current entry counts per cache."""
        with self._lock:
            return {
                "results": len(self._results),
                "completions": len(self._completions),
                "schema-tboxes": len(self._schema_tboxes),
            }

    def clear(self) -> None:
        """Drop every artefact cached *by this engine* (statistics are kept).

        Compiled automata live in the process-wide memo below the engine
        (``repro.core.compile_regex``); a truly cold automaton path — e.g.
        for benchmarking — also needs :func:`repro.core.clear_compile_memo`.
        """
        with self._lock:
            for cache in (self._results, self._completions, self._schema_tboxes):
                cache.clear()

    def invalidate_schema(self, schema: Schema) -> InvalidationReport:
        """Drop every cached artefact under *schema*'s fingerprint, all tiers.

        Content-keyed caches can never serve stale answers (a mutated schema
        fingerprints to a new key), so this is a reclamation call: every
        memory entry whose key leads with the schema's fingerprint, and
        every persistent-store row filed under it — also rows written by
        other engines or earlier runs.  It is also the whole of a schema
        update: the edited schema fingerprints to fresh keys, so dropping
        the old one's entries is all that is left to do, and compiled
        automata (keyed by regex alone) stay warm.

        Returns an :class:`InvalidationReport` with the per-tier counts
        (``report.results`` is the dropped-result count).
        """
        fingerprint = schema.canonical_fingerprint()

        def owned(key) -> bool:
            return key[0] == fingerprint

        with self._lock:
            results = self._results.prune(owned)
            completions = self._completions.prune(owned)
            schema_tboxes = self._schema_tboxes.prune(owned)
        store_rows = self._store.delete_schema(fingerprint) if self._store is not None else 0
        return InvalidationReport(
            fingerprint,
            results=results,
            completions=completions,
            schema_tboxes=schema_tboxes,
            store_rows=store_rows,
        )


# --------------------------------------------------------------------------- #
# the process-wide default engine
# --------------------------------------------------------------------------- #
_default_engine: Optional[ContainmentEngine] = None
_default_engine_lock = threading.Lock()


def default_engine() -> ContainmentEngine:
    """The shared engine behind the stateless :func:`repro.containment.contains`
    wrapper and the analysis entry points; created on first use."""
    global _default_engine
    with _default_engine_lock:
        if _default_engine is None:
            _default_engine = ContainmentEngine()
        return _default_engine


def reset_default_engine() -> None:
    """Discard the shared engine (tests use this to isolate statistics)."""
    global _default_engine
    with _default_engine_lock:
        _default_engine = None
