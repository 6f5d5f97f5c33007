"""Batch entry points for the static analyses (the Theorem 4.2 procedures
at fleet scale).

A served deployment does not type check one migration at a time — it
validates whole catalogues of transformations against schema registries.
:func:`type_check_many` and :func:`check_equivalence_many` run such batches
on the backends of :meth:`repro.engine.ContainmentEngine.check_many`:

* ``"serial"`` (the default) — one shared engine, jobs in order;
* ``"process"`` — each *job* ships whole to a
  :class:`~repro.engine.parallel.WorkerPool` worker (routed by source-schema
  fingerprint, so a registry of schemas shards cleanly), runs against that
  worker's warm engine, and the full result object — coverage reports,
  statement entailments, per-difference containment results — is pickled
  back.  The containment verdicts a worker solved come back with it, and a
  persisting engine writes them to its store.

These are the engine's :data:`~repro.engine.BACKENDS`; any other value
raises :class:`ValueError`.  Both backends produce identical analysis
outcomes; the process backend is the one that scales with cores because each
job's many containment calls run in a separate interpreter.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple, Union

from ..containment.solver import ContainmentConfig
from ..engine import ContainmentEngine, default_engine
from ..engine.parallel import WorkerPool
from ..schema.schema import Schema
from .equivalence import EquivalenceResult, check_equivalence
from .typecheck import TypeCheckResult, type_check

__all__ = ["check_equivalence_many", "type_check_many"]

def _run_jobs(
    kind: str,
    payloads: Sequence[Tuple],
    routing_schemas: Sequence[Schema],
    serial_runner,
    parallel: str,
    engine: Optional[ContainmentEngine],
    max_workers: Optional[int],
    persist: Optional[Any] = None,
) -> List[Any]:
    ContainmentEngine._normalise_backend(parallel)
    owned: Optional[ContainmentEngine] = None
    if engine is None and persist is not None:
        # a one-shot persisting engine for this batch; callers running many
        # batches should construct ContainmentEngine(persist=...) themselves
        # and pass it, so its pool and memory caches survive between calls
        owned = engine = ContainmentEngine(persist=persist)
    resolved_engine = engine or default_engine()
    try:
        if parallel == "process" and payloads:
            pool: WorkerPool = resolved_engine.process_pool(max_workers)
            # the tertiary routing token must be deterministic run-to-run (the
            # plan_routing contract), so it is built from the schema fingerprint
            # and the job's batch position — never from object reprs, whose
            # memory addresses would scatter identical work across workers
            keys = []
            for position, schema in enumerate(routing_schemas):
                schema_fp = schema.canonical_fingerprint()
                keys.append((schema_fp, "", f"{schema_fp}\x1f{position}"))
            results, rows = pool.run_batch(kind, list(payloads), keys)
            if resolved_engine.store is not None:
                resolved_engine.store.put_many(rows)
            return results
        return [serial_runner(resolved_engine, payload) for payload in payloads]
    finally:
        if owned is not None:
            owned.close()


def type_check_many(
    jobs: Sequence[Union[Tuple, Any]],
    *,
    config: Optional[ContainmentConfig] = None,
    parallel: str = "serial",
    engine: Optional[ContainmentEngine] = None,
    max_workers: Optional[int] = None,
    persist: Optional[Any] = None,
) -> List[TypeCheckResult]:
    """Type check a batch of ``(transformation, source, target[, config])``
    jobs; results keep job order.

    ``parallel`` is ``"serial"`` or ``"process"`` (see the module
    docstring); ``engine`` defaults to the process-wide engine, whose
    persistent worker pool serves the ``"process"`` backend.  ``persist``
    (a store path, only without ``engine``) runs the batch on a one-shot
    engine backed by the disk store, so the containment verdicts inside the
    analyses survive the process.
    """
    payloads = []
    schemas = []
    for job in jobs:
        transformation, source, target, job_config = _normalise_job(job, config)
        payloads.append((transformation, source, target, job_config))
        schemas.append(source)
    return _run_jobs(
        "typecheck",
        payloads,
        schemas,
        lambda eng, p: type_check(p[0], p[1], p[2], config=p[3], engine=eng),
        parallel,
        engine,
        max_workers,
        persist,
    )


def check_equivalence_many(
    jobs: Sequence[Union[Tuple, Any]],
    *,
    config: Optional[ContainmentConfig] = None,
    parallel: str = "serial",
    engine: Optional[ContainmentEngine] = None,
    max_workers: Optional[int] = None,
    persist: Optional[Any] = None,
) -> List[EquivalenceResult]:
    """Decide equivalence for a batch of ``(left, right, schema[, config])``
    jobs; results keep job order.  Backends and ``persist`` as in
    :func:`type_check_many`."""
    payloads = []
    schemas = []
    for job in jobs:
        left, right, schema, job_config = _normalise_job(job, config)
        payloads.append((left, right, schema, job_config))
        schemas.append(schema)
    return _run_jobs(
        "equivalence",
        payloads,
        schemas,
        lambda eng, p: check_equivalence(p[0], p[1], p[2], config=p[3], engine=eng),
        parallel,
        engine,
        max_workers,
        persist,
    )


def _normalise_job(
    job: Union[Tuple, Any], default_config: Optional[ContainmentConfig]
) -> Tuple[Any, Any, Any, Optional[ContainmentConfig]]:
    parts = tuple(job)
    if len(parts) == 3:
        first, second, third = parts
        job_config: Optional[ContainmentConfig] = None
    elif len(parts) == 4:
        first, second, third, job_config = parts
    else:
        raise TypeError(
            "expected (transformation, source, target[, config]) or "
            f"(left, right, schema[, config]) jobs, got {job!r}"
        )
    if not isinstance(third, Schema):
        raise TypeError(f"the third element of a job must be a Schema, got {type(third).__name__}")
    return first, second, third, job_config or default_config
