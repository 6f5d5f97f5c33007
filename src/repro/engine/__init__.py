"""Cached containment engine: batch containment with per-schema caches.

The subsystem behind every hot static-analysis path (see
docs/ARCHITECTURE.md, "The cached containment engine"):

* :class:`ContainmentEngine` — owns the fingerprint-keyed caches (verdicts,
  completions + chase engines, schema TBox encodings) and the
  ``check_many`` batch API over :data:`BACKENDS` (serial, process); constructed
  with ``persist=path`` it adds the disk-persistent second tier of verdicts
  (:class:`repro.store.ResultStore`), which only the engine opens: a
  process batch ships just the requests memory and store miss;
* :class:`EngineStats` / :class:`CacheStats` — hit/miss/eviction accounting;
* :class:`LRUCache` — the bounded cache primitive;
* :class:`WorkerPool` / :class:`WorkerError` — the process-parallel backend:
  persistent worker processes, each with its own warm engine, sharded by
  schema fingerprint (``repro.engine.parallel``), fed through the
  fingerprint-reference transport of ``repro.engine.transport``, whose
  per-worker ledgers mirror the workers' token catalogs exactly;
* :class:`TransportStats` — the reference protocol's counters, kept by the
  parent (``engine.transport_report()``);
* :func:`merge_stats` / :func:`result_fingerprint` — pool-wide statistics
  aggregation and the verdict digest used to assert backend determinism;
* :class:`InvalidationReport` — the per-tier counts
  ``engine.invalidate_schema`` drops, which is also how a schema update is
  served (the edited schema simply keys fresh entries);
* :func:`default_engine` — the process-wide engine used by the stateless
  ``repro.containment.contains`` wrapper and the analysis entry points;
* :func:`reset_default_engine` — drop the shared engine (test isolation).
"""

from .cache import CacheStats, LRUCache
from .engine import (
    BACKENDS,
    ContainmentEngine,
    EngineStats,
    InvalidationReport,
    default_engine,
    reset_default_engine,
)
from .parallel import WorkerError, WorkerPool, merge_stats, result_fingerprint
from .transport import TransportStats

__all__ = [
    "BACKENDS",
    "CacheStats",
    "LRUCache",
    "ContainmentEngine",
    "EngineStats",
    "InvalidationReport",
    "TransportStats",
    "WorkerError",
    "WorkerPool",
    "merge_stats",
    "result_fingerprint",
    "default_engine",
    "reset_default_engine",
]
