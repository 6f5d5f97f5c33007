"""Cached containment engine: batch containment with per-schema caches.

The subsystem behind every hot static-analysis path (see
docs/ARCHITECTURE.md, "The cached containment engine"):

* :class:`ContainmentEngine` — owns the fingerprint-keyed caches (verdicts,
  completions + chase engines, schema TBox encodings, compiled automata) and the
  ``check_many`` batch API with serial/process/auto backends; constructed
  with ``persist=path`` it adds the disk-persistent second tier
  (:class:`repro.store.ResultStore`) that worker processes warm-start from;
* :class:`ContainmentRequest` — one ``(left, right, schema, config)`` unit of
  work for a batch;
* :class:`EngineStats` / :class:`CacheStats` — hit/miss/eviction accounting;
* :class:`LRUCache` — the bounded cache primitive;
* :class:`WorkerPool` / :class:`WorkerError` — the process-parallel backend:
  persistent worker processes, each with its own warm engine, sharded by
  schema fingerprint (``repro.engine.parallel``), fed through the
  fingerprint-reference transport of ``repro.engine.transport``, whose
  per-worker ledgers mirror the workers' token catalogs exactly;
* :class:`AdaptiveSelector` / :class:`CostProfile` — the measured cost model
  behind ``parallel="auto"`` (``repro.engine.adaptive``);
* :class:`TransportStats` — the reference protocol's counters, kept by the
  parent (``engine.transport_report()``);
* :func:`merge_stats` / :func:`result_fingerprint` — pool-wide statistics
  aggregation and the verdict digest used to assert backend determinism;
* :class:`SchemaDelta` / :class:`EvolveReport` / :class:`InvalidationReport`
  — the schema-evolution layer (``repro.engine.delta``): axiom-level schema
  diffs and the structured reports behind ``engine.evolve`` and
  ``engine.invalidate_schema``;
* :func:`default_engine` — the process-wide engine used by the stateless
  ``repro.containment.contains`` wrapper and the analysis entry points;
* :func:`reset_default_engine` — drop the shared engine (test isolation).
"""

from .adaptive import AdaptiveSelector, CostProfile
from .cache import CacheStats, LRUCache
from .delta import EvolveReport, InvalidationReport, SchemaDelta
from .engine import (
    ContainmentEngine,
    ContainmentRequest,
    EngineStats,
    default_engine,
    reset_default_engine,
)
from .parallel import WorkerError, WorkerPool, merge_stats, result_fingerprint
from .transport import TransportStats

__all__ = [
    "AdaptiveSelector",
    "CacheStats",
    "CostProfile",
    "LRUCache",
    "ContainmentEngine",
    "ContainmentRequest",
    "EngineStats",
    "EvolveReport",
    "InvalidationReport",
    "SchemaDelta",
    "TransportStats",
    "WorkerError",
    "WorkerPool",
    "merge_stats",
    "result_fingerprint",
    "default_engine",
    "reset_default_engine",
]
