"""The cached containment engine and its batch API.

Every static-analysis entry point of the paper — type checking, equivalence
and schema elicitation — reduces to *many* containment tests modulo the same
schema (Theorem 4.2's polynomial Turing reduction).  A bare
:class:`~repro.containment.solver.ContainmentSolver` rebuilds the schema
encoding ``T̂_S``, the rolled-up ``T_¬Q``, the cycle-reversal completion and
the compiled atom automata from scratch on every call; the :class:`ContainmentEngine`
owns those artefacts in per-schema caches keyed by canonical fingerprints
(:meth:`Schema.canonical_fingerprint`, :meth:`UC2RPQ.canonical_token`, the
regex tokens) and substitutes them through the solver's pipeline hooks, so
repeated calls against a warm schema skip straight to the chase.
(:meth:`TBox.canonical_fingerprint` is the corresponding verification tool:
cached and fresh runs must produce bit-identical completed TBoxes, which the
engine tests and benchmarks assert by fingerprint.)

Four caches, from coarse to fine (see docs/ARCHITECTURE.md for the exact key
composition and invalidation rules):

* **results** — full :class:`ContainmentResult` verdicts per
  ``(schema, left, right, config)``;
* **completions** — the completed ``T̂_S ∪ T_¬Q`` choice lists *plus* their
  chase engines (whose tree-extendability memos stay warm) per
  ``(extended schema, right query, completion config)``;
* **schema-tboxes** — the Horn encoding ``T̂_S`` per extended schema;
* **automata** — :class:`repro.core.CompiledAutomaton` bundles (NFA,
  cycle/emptiness flags, memoized pumped word lists) keyed by
  ``(schema fingerprint, regex)``.  This cache *fronts* the process-wide
  :func:`repro.core.compile_regex` memo (which shares bundles across engines
  and rebuilds them in worker processes): its hit/miss stats measure
  engine-level reuse, while the memory bound for compiled bundles is the
  memo's — ``repro.core.clear_compile_memo()`` is the cold-path reset.

Because all keys are content fingerprints, mutating a schema or query after a
call can never make the caches return stale answers — a mutated object simply
fingerprints to a new key.  :meth:`ContainmentEngine.check_many` evaluates
batches (serially, or on the worker processes of the ``"process"`` backend)
and :data:`default_engine` provides the process-wide instance behind the
stateless :func:`repro.containment.contains` wrapper.

``ContainmentEngine(persist=path)`` adds a **second, disk-persistent tier**
below the memory caches (:class:`repro.store.ResultStore`): result and
schema-TBox lookups go memory → disk → solver, misses write back to both
tiers, and worker processes of the ``"process"`` backend open the same file
read-only so they warm-start instead of recomputing.  The store is keyed by
the same canonical fingerprints and version-stamped, so verdicts are
bit-identical with the store hot, cold, disabled or deleted (see
docs/ARCHITECTURE.md, "The two-tier cache hierarchy").

Schema edits are first-class: :meth:`ContainmentEngine.evolve` diffs two
schemas (:class:`~repro.engine.delta.SchemaDelta`), migrates the
schema-content-independent artefacts — compiled automata and
schema-blind verdicts — into the new fingerprint namespace across both
cache tiers, and conservatively invalidates the rest; :meth:`ContainmentEngine.invalidate_schema` reports its per-tier
counts as a structured :class:`~repro.engine.delta.InvalidationReport`
(see docs/ARCHITECTURE.md, "Schema evolution").
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..containment.counterexample import Counterexample
from ..containment.solver import (
    ContainmentConfig,
    ContainmentResult,
    ContainmentSolver,
    _as_union,
)
from ..core.compile import install_compiled, rebase_compiled
from ..rpq.queries import UC2RPQ
from ..schema.schema import Schema
from ..store import ResultStore, StoreStats
from .adaptive import AdaptiveSelector
from .cache import CacheStats, LRUCache
from .delta import REPORT_TIERS, EvolveReport, InvalidationReport, SchemaDelta

__all__ = [
    "ContainmentEngine",
    "ContainmentRequest",
    "EngineStats",
    "default_engine",
    "reset_default_engine",
]

# extended-schema fingerprints (the booleanized schema with per-variable
# marker labels) indexed back to their base schema — see _CachingSolver's
# hooks; bounded FIFO so a service cycling through many schemas cannot
# grow it without limit
_SCHEMA_INDEX_LIMIT = 4096


@dataclass(frozen=True)
class ContainmentRequest:
    """One unit of work for :meth:`ContainmentEngine.check_many`.

    ``schema`` and ``config`` may be left ``None`` when the batch call
    supplies defaults for the whole batch.
    """

    left: Any
    right: Any
    schema: Optional[Schema] = None
    config: Optional[ContainmentConfig] = None


@dataclass
class EngineStats:
    """A snapshot of the engine's cache counters and call totals.

    ``store`` is the persistent tier's counters, present only on engines
    constructed with ``persist=`` (and in worker snapshots of warm-started
    pools).
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


def _digest(*parts: str) -> str:
    payload = "\x1f".join(parts).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _result_key(
    schema: Schema, left: UC2RPQ, right: UC2RPQ, config: ContainmentConfig
) -> Tuple[str, str, ContainmentConfig]:
    """The results-cache key for one (already ``_as_union``-normalised) call.

    Shared by :class:`_CachingSolver` and the process backend's merge-back
    path, so results computed in worker processes land under exactly the key
    a later serial call will look up.
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
        key = _result_key(self.schema, left, right, self.config)
        engine = self.engine
        with engine._lock:
            engine._contains_calls += 1
            cached = engine._results.get(key)
        if cached is None and engine._store is not None:
            # second tier: the disk store (its own lock; never under ours)
            cached = engine._store.get("results", _store_token(key))
            if cached is not None:
                with engine._lock:
                    engine._results.put(key, cached)
        if cached is not None:
            return self._replay(cached, time.perf_counter() - started)
        result = super().contains(left, right)
        with engine._lock:
            engine._results.put(key, result)
        if engine._store is not None:
            engine._store.put("results", _store_token(key), result)
        if engine._solved_rows is not None:
            engine._solved_rows.append((_store_token(key), result))
        return result

    def _replay(self, cached: ContainmentResult, elapsed: float) -> ContainmentResult:
        """Re-issue a cached verdict as an independent result.

        The witness graphs are copied so a caller mutating its counterexample
        (e.g. relabelling nodes for display) cannot corrupt later hits; the
        ``completion`` bookkeeping object stays shared and must be treated as
        read-only.  ``schema_name`` is refreshed because the cache key is
        name-insensitive for schemas (renamed-but-equal schemas hit the same
        entry) while query names are part of the key already.
        """
        witness = cached.witness_pattern.copy() if cached.witness_pattern is not None else None
        counterexample = cached.finite_counterexample
        if counterexample is not None:
            counterexample = Counterexample(counterexample.graph.copy(), counterexample.answer)
        return dataclasses.replace(
            cached,
            schema_name=self.schema.name,
            witness_pattern=witness,
            finite_counterexample=counterexample,
            elapsed_seconds=elapsed,
        )

    # -- cached pipeline stages ---------------------------------------------
    def _schema_tbox(self, extended_schema: Schema):
        engine = self.engine
        key = extended_schema.canonical_fingerprint()
        engine._record_extended(key, self.schema.canonical_fingerprint())
        with engine._lock:
            cached = engine._schema_tboxes.get(key)
        if cached is not None:
            return cached
        if engine._store is not None:
            cached = engine._store.get("schema-tboxes", key)
            if cached is not None:
                with engine._lock:
                    engine._schema_tboxes.put(key, cached)
                return cached
        cached = super()._schema_tbox(extended_schema)
        with engine._lock:
            engine._schema_tboxes.put(key, cached)
        if engine._store is not None:
            engine._store.put("schema-tboxes", key, cached)
        return cached

    def _prepared_choices(self, reduction, right_name: str):
        engine = self.engine
        engine._record_extended(
            reduction.schema.canonical_fingerprint(), self.schema.canonical_fingerprint()
        )
        key = (
            reduction.schema.canonical_fingerprint(),
            _digest(reduction.right.canonical_token(), right_name),
            self.config.completion,
            self.config.apply_completion,
        )
        with engine._lock:
            cached = engine._completions.get(key)
        if cached is None:
            cached = super()._prepared_choices(reduction, right_name)
            with engine._lock:
                engine._completions.put(key, cached)
        return cached

    def _compile_automaton(self, regex):
        engine = self.engine
        # key by (schema fingerprint, regex) like the core memo, so the
        # cache partitions per schema exactly as the memo does
        if self._memo_context is None:
            self._memo_context = self.schema.canonical_fingerprint()
        key = (self._memo_context, regex)
        with engine._lock:
            cached = engine._automata.get(key)
        if cached is None:
            cached = super()._compile_automaton(regex)
            with engine._lock:
                engine._automata.put(key, cached)
        return cached


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
        automaton_cache_size: int = 4096,
        max_workers: Optional[int] = None,
        persist: Optional[Any] = None,
        persist_mode: str = "rw",
    ) -> None:
        self.default_config = config or ContainmentConfig()
        self.max_workers = max_workers
        self._lock = threading.RLock()
        self._results = LRUCache("results", result_cache_size)
        self._completions = LRUCache("completions", completion_cache_size)
        self._schema_tboxes = LRUCache("schema-tboxes", schema_tbox_cache_size)
        self._automata = LRUCache("automata", automaton_cache_size)
        self._contains_calls = 0
        self._batches = 0
        # extended-schema fingerprint → base-schema fingerprint: lets
        # invalidate_schema/evolve find the completion and schema-tbox
        # entries that belong to a base schema (their keys carry the
        # *extended* fingerprint, which also depends on the query's free
        # variable names)
        self._schema_index: Dict[str, str] = {}
        self._closed = False
        self._process_pool: Optional[Any] = None
        # per-schema cost profiles behind parallel="auto" (repro.engine.adaptive)
        self._selector = AdaptiveSelector()
        # the second cache tier: memory → disk → solver (never blocks answers
        # — an unopenable store is a disabled one, see repro.store)
        self._store: Optional[ResultStore] = (
            ResultStore(persist, mode=persist_mode) if persist is not None else None
        )
        # a pool worker records the verdicts it solves here, for its parent
        # to persist (repro.engine.parallel); None when not recording
        self._solved_rows: Optional[List[Tuple[str, ContainmentResult]]] = None

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

    def satisfiable(
        self, query, schema: Schema, config: Optional[ContainmentConfig] = None
    ) -> ContainmentResult:
        """Satisfiability of *query* modulo *schema* (``q ⊄_S ∅``)."""
        return self.solver(schema, config).satisfiable(query)

    def equivalent(
        self, left, right, schema: Schema, config: Optional[ContainmentConfig] = None
    ) -> bool:
        """``True`` when both containments hold (both sides acyclic)."""
        return self.solver(schema, config).equivalent(left, right)

    # ------------------------------------------------------------------ #
    # batch API
    # ------------------------------------------------------------------ #
    def check_many(
        self,
        requests: Iterable[Union[ContainmentRequest, Sequence]],
        schema: Optional[Schema] = None,
        config: Optional[ContainmentConfig] = None,
        parallel: str = "serial",
        max_workers: Optional[int] = None,
    ) -> List[ContainmentResult]:
        """Decide a batch of containment tests; results keep request order.

        Each request is a :class:`ContainmentRequest` or a ``(left, right)`` /
        ``(left, right, schema)`` / ``(left, right, schema, config)`` tuple;
        ``schema`` and ``config`` arguments fill in whatever a request leaves
        unset.  ``parallel`` selects the execution backend:

        * ``"serial"`` (the default) — this thread, in request order;
        * ``"process"`` — the engine's persistent
          :class:`~repro.engine.parallel.WorkerPool` of worker processes,
          sharded by schema fingerprint (see docs/ARCHITECTURE.md).  Worker
          verdicts are merged back into this engine's result cache, so a
          later serial call replays them warm; worker-side cache counters
          are reported by :meth:`process_stats`, not :attr:`stats`.  One
          transport difference: in these results (and their cached
          replays) ``completion.tbox`` is a
          :class:`~repro.engine.parallel.TBoxDigest` — it answers
          ``canonical_fingerprint()``/``size()`` exactly like the real
          completed TBox but does not carry the statements themselves.
        * ``"auto"`` — measure, then choose: the first batch over a schema
          pays a calibration probe (its first item solved serially, timed,
          plus one timed pickle of the request) and the
          :class:`~repro.engine.adaptive.AdaptiveSelector` picks serial or
          process per batch from the recorded per-schema cost profile, the
          batch size, the core count and the pool state.

        Any other value raises :class:`ValueError`.  All backends return
        bit-identical results (asserted by fingerprint in the tests and
        ``benchmarks/bench_parallel_scaling.py``).
        """
        self._ensure_open()
        backend = self._normalise_backend(parallel)
        normalized: List[Tuple[Any, Any, Schema, Optional[ContainmentConfig]]] = []
        for request in requests:
            if isinstance(request, ContainmentRequest):
                left, right = request.left, request.right
                request_schema, request_config = request.schema, request.config
            else:
                parts = tuple(request)
                if not 2 <= len(parts) <= 4:
                    raise TypeError(
                        "check_many expects (left, right[, schema[, config]]) "
                        f"tuples or ContainmentRequest, got {request!r}"
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

        if backend == "auto" and normalized:
            return self._check_many_adaptive(normalized, max_workers)
        if backend == "process" and normalized:
            return self._check_many_in_processes(normalized, max_workers)
        # serial, or an empty auto/process batch: nothing to fan out
        return [self.contains(*task) for task in normalized]

    @staticmethod
    def _normalise_backend(parallel: str) -> str:
        if parallel in ("serial", "process", "auto"):
            return parallel
        raise ValueError(
            f"check_many: unknown backend {parallel!r} "
            "(expected 'serial', 'process' or 'auto')"
        )

    def _check_many_adaptive(
        self,
        normalized: List[Tuple[Any, Any, Schema, Optional[ContainmentConfig]]],
        max_workers: Optional[int],
    ) -> List[ContainmentResult]:
        """``parallel="auto"``: measure (or recall) costs, then pick a backend.

        When the batch's schemas have no recorded profile, the first item is
        solved serially as a *calibration probe* — its timed solve plus one
        timed ``pickle.dumps`` of the request seed the profile, and its
        result is part of the answer, so the probe costs nothing extra.  The
        remainder runs on whatever :class:`~repro.engine.adaptive.AdaptiveSelector`
        picks from the profile, the batch size and the pool state.  Serial
        runs feed their per-item timings back into the profile, so the
        selector keeps tracking a drifting workload.
        """
        selector = self._selector
        fingerprints = [task[2].canonical_fingerprint() for task in normalized]
        profile = selector.profile_for(fingerprints)
        probed: List[ContainmentResult] = []
        remainder = normalized
        remainder_fps = fingerprints
        if profile is None:
            left, right, task_schema, task_config = normalized[0]
            started = time.perf_counter()
            probed.append(self.contains(left, right, task_schema, task_config))
            solve_seconds = time.perf_counter() - started
            transport_seconds = selector.measure_transport(normalized[0])
            selector.observe(fingerprints[0], solve_seconds, transport_seconds)
            profile = selector.profile_for([fingerprints[0]])
            remainder = normalized[1:]
            remainder_fps = fingerprints[1:]
        if not remainder:
            return probed

        with self._lock:
            pool = self._process_pool
            pool_ready = pool is not None and pool.started and not pool.closed
        backend = selector.choose(
            len(remainder),
            profile,
            workers=max_workers or self.max_workers,
            pool_ready=pool_ready,
        )
        if backend == "process":
            return probed + self._check_many_in_processes(remainder, max_workers)
        results = [self.contains(*task) for task in remainder]
        # free refresh of the solve estimate (transport stays as measured)
        for fingerprint, result in zip(remainder_fps, results):
            selector.observe(fingerprint, result.elapsed_seconds)
        return probed + results

    def _check_many_in_processes(
        self,
        normalized: List[Tuple[Any, Any, Schema, Optional[ContainmentConfig]]],
        max_workers: Optional[int],
    ) -> List[ContainmentResult]:
        """Fan the batch out over the persistent worker pool and merge back.

        Results are inserted into this engine's result cache under the same
        keys the serial path uses, so a process batch warms the parent
        exactly like a serial one (witnesses are still served as independent
        copies via the usual replay path).
        """
        pool = self.process_pool(max_workers)
        tasks = [
            (_as_union(left, "P"), _as_union(right, "Q"), task_schema, task_config)
            for left, right, task_schema, task_config in normalized
        ]
        results = pool.check_many(tasks)
        keys = [
            _result_key(task_schema, left, right, task_config or self.default_config)
            for (left, right, task_schema, task_config) in tasks
        ]
        with self._lock:
            for key, result in zip(keys, results):
                self._results.put(key, result)
        if self._store is not None:
            # worker verdicts persist under the same keys the serial path
            # uses, so a later run (or a warm-started worker) replays them;
            # one transaction, and already-persisted verdicts are skipped
            self._store.put_many(
                "results", [(_store_token(key), result) for key, result in zip(keys, results)]
            )
        return results

    def process_pool(self, max_workers: Optional[int] = None):
        """The engine's persistent worker pool, created on first use.

        The pool inherits the engine's default config; its size is fixed at
        creation (``max_workers``, then the engine's ``max_workers``, then
        one per CPU).  Call :meth:`shutdown` to stop the workers; the pool
        is also closed at interpreter exit.  A pool that closed itself
        after a worker death is replaced by a fresh one here.
        """
        from .parallel import WorkerPool, default_worker_count

        self._ensure_open()
        with self._lock:
            if self._process_pool is not None and self._process_pool.closed:
                self._process_pool = None
            if self._process_pool is None:
                workers = max_workers or self.max_workers or default_worker_count()
                # a persisting engine hands its store path to the pool so the
                # spawned workers warm-start from disk (read-only: the parent
                # stays the only writer)
                persist = (
                    self._store.path
                    if self._store is not None and not self._store.disabled
                    else None
                )
                self._process_pool = WorkerPool(workers, self.default_config, persist=persist)
            return self._process_pool

    def process_stats(self) -> Optional[EngineStats]:
        """Aggregated worker-side cache counters, ``None`` before first use."""
        with self._lock:
            pool = self._process_pool
        if pool is None or not pool.started:
            return None
        return pool.stats()

    @property
    def selector(self) -> AdaptiveSelector:
        """The cost model behind ``parallel="auto"`` (injectable in tests)."""
        return self._selector

    def adaptive_report(self) -> Dict[str, Any]:
        """The selector's decision counters and last decision, JSON-ready."""
        return self._selector.report()

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
        with self._lock:
            return EngineStats(
                results=self._results.stats.snapshot(),
                completions=self._completions.stats.snapshot(),
                schema_tboxes=self._schema_tboxes.stats.snapshot(),
                automata=self._automata.stats.snapshot(),
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
                "automata": len(self._automata),
            }

    def clear(self) -> None:
        """Drop every artefact cached *by this engine* (statistics are kept).

        Compiled automata are additionally memoized process-wide below the
        engine (``repro.core.compile_regex``); a truly cold automaton path —
        e.g. for benchmarking — also needs
        :func:`repro.core.clear_compile_memo`.
        """
        with self._lock:
            for cache in (self._results, self._completions, self._schema_tboxes, self._automata):
                cache.clear()
            self._schema_index.clear()

    def _record_extended(self, extended_fingerprint: str, base_fingerprint: str) -> None:
        """Remember which base schema an extended fingerprint derives from."""
        with self._lock:
            index = self._schema_index
            index[extended_fingerprint] = base_fingerprint
            while len(index) > _SCHEMA_INDEX_LIMIT:
                index.pop(next(iter(index)))

    def _extended_fingerprints(self, fingerprint: str) -> set:
        """Every known extended fingerprint of the base *fingerprint* (incl. itself).

        Must be called under :attr:`_lock`.  Arity-0 queries extend a schema
        to itself, so the base fingerprint always belongs to the set.
        """
        extended = {ext for ext, base in self._schema_index.items() if base == fingerprint}
        extended.add(fingerprint)
        return extended

    def invalidate_schema(self, schema: Schema) -> InvalidationReport:
        """Drop every cached artefact under *schema*'s fingerprint, all tiers.

        Content-keyed caches can never serve stale answers (a mutated schema
        fingerprints to a new key), so this is a reclamation call: results
        and automata under the base fingerprint, completions and schema
        TBoxes under its known extended fingerprints, plus a best-effort
        delete of the corresponding persistent-store rows (rows the engine
        no longer knows about stay behind as dead weight — content
        addressing means they can never be replayed incorrectly).

        Returns an :class:`~repro.engine.delta.InvalidationReport` with the
        per-tier counts (``report.results`` is the dropped-result count).
        """
        return self._invalidate_fingerprint(schema.canonical_fingerprint())

    def _invalidate_fingerprint(self, fingerprint: str) -> InvalidationReport:
        with self._lock:
            extended = self._extended_fingerprints(fingerprint)
            result_keys = [key for key, _ in self._results.items() if key[0] == fingerprint]
            results = self._results.prune(lambda key: key[0] == fingerprint)
            automata = self._automata.prune(lambda key: key[0] == fingerprint)
            completions = self._completions.prune(lambda key: key[0] in extended)
            schema_tboxes = self._schema_tboxes.prune(lambda key: key in extended)
            for ext in extended:
                self._schema_index.pop(ext, None)
        store_rows = 0
        if self._store is not None:
            store_rows += self._store.delete(
                "results", [_store_token(key) for key in result_keys]
            )
            store_rows += self._store.delete("schema-tboxes", sorted(extended))
        return InvalidationReport(
            fingerprint,
            results=results,
            completions=completions,
            schema_tboxes=schema_tboxes,
            automata=automata,
            store_rows=store_rows,
        )

    # ------------------------------------------------------------------ #
    # schema evolution
    # ------------------------------------------------------------------ #
    def evolve(self, old_schema: Schema, new_schema: Schema) -> EvolveReport:
        """Migrate cached artefacts from *old_schema* to *new_schema*.

        The delta-aware counterpart of :meth:`invalidate_schema` for the
        "one constraint changed, re-check everything" scenario: artefacts
        whose content is independent of the schema's axioms — compiled
        automaton bundles (NFAs, flags, pumped word enumerations) and
        verdicts that never consulted the schema (the empty-left short
        circuit) — are re-keyed into *new_schema*'s fingerprint namespace
        and written through to the persistent store.  Everything else under
        the old namespace is dropped (conservative rule: the Horn encoding
        ``T̂_S`` spans the schema's full domain, so any semantic edit
        invalidates every completed TBox and with it every non-trivial
        verdict — when in doubt, invalidate), which is exactly what keeps
        post-evolve verdicts and ``result_fingerprint``s bit-identical to a
        cold start.

        A fingerprint-identical edit (rename, explicitly declaring a ZERO
        constraint) is trivial: nothing moves, everything is kept.  The old
        schema's entries are gone afterwards either way — evolve declares
        *old_schema* superseded; keep using plain per-call caching if both
        versions stay live.
        """
        self._ensure_open()
        started = time.perf_counter()
        delta = SchemaDelta.between(old_schema, new_schema)
        old_fingerprint = delta.old_fingerprint
        new_fingerprint = delta.new_fingerprint
        if delta.is_empty:
            with self._lock:
                extended = self._extended_fingerprints(old_fingerprint)
                kept = {
                    "results": sum(
                        1 for key, _ in self._results.items() if key[0] == old_fingerprint
                    ),
                    "completions": sum(
                        1 for key, _ in self._completions.items() if key[0] in extended
                    ),
                    "schema-tboxes": sum(
                        1 for key, _ in self._schema_tboxes.items() if key in extended
                    ),
                    "automata": sum(
                        1 for key, _ in self._automata.items() if key[0] == old_fingerprint
                    ),
                }
            return EvolveReport(
                delta=delta,
                trivial=True,
                kept=kept,
                elapsed_seconds=time.perf_counter() - started,
            )

        with self._lock:
            old_bundles = [
                (key[1], bundle)
                for key, bundle in self._automata.items()
                if key[0] == old_fingerprint
            ]
            old_results = [
                (key, result) for key, result in self._results.items()
                if key[0] == old_fingerprint
            ]

        # automata: schema axioms never enter them, so they migrate verbatim
        migrated = {tier: 0 for tier in REPORT_TIERS}
        for regex, bundle in old_bundles:
            clone = install_compiled(rebase_compiled(bundle, new_fingerprint))
            with self._lock:
                self._automata.put((new_fingerprint, regex), clone)
            migrated["automata"] += 1

        # verdicts that never consulted the schema: the empty-left short
        # circuit (no TBox, no patterns, no witness — replay refreshes the
        # schema name, so the re-keyed result is bit-identical)
        migrated_results = []
        for (_, pair_digest, config), result in old_results:
            if (
                result.completion is None
                and result.witness_pattern is None
                and result.finite_counterexample is None
                and result.tbox_size == 0
                and result.patterns_checked == 0
            ):
                migrated_results.append(((new_fingerprint, pair_digest, config), result))
        with self._lock:
            for key, result in migrated_results:
                self._results.put(key, result)
        migrated["results"] = len(migrated_results)

        store_written = 0
        if self._store is not None:
            store_written = self._store.put_many(
                "results",
                [(_store_token(key), result) for key, result in migrated_results],
            )

        # everything else under the old namespace is superseded
        invalidation = self._invalidate_fingerprint(old_fingerprint)
        invalidated = {
            "results": max(invalidation.results - migrated["results"], 0),
            "completions": invalidation.completions,
            "schema-tboxes": invalidation.schema_tboxes,
            "automata": max(invalidation.automata - migrated["automata"], 0),
        }

        return EvolveReport(
            delta=delta,
            trivial=False,
            kept=dict(migrated),
            invalidated=invalidated,
            migrated=migrated,
            invalidation=invalidation,
            store_written=store_written,
            store_deleted=invalidation.store_rows,
            elapsed_seconds=time.perf_counter() - started,
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
