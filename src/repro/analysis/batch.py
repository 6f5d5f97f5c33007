"""Batch entry points for the static analyses (the Theorem 4.2 procedures
at fleet scale).

A served deployment does not type check one migration at a time — it
validates whole catalogues of transformations against schema registries.
:func:`type_check_many` and :func:`check_equivalence_many` run such batches
serially, in job order, on one shared engine, so every job replays the
containment verdicts, completions and schema encodings its predecessors
cached.  Containment batches can be spread over worker processes
(:meth:`repro.engine.ContainmentEngine.check_many` with
``parallel="process"``); whole analyses are not.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple, Union

from ..containment.solver import ContainmentConfig
from ..engine import ContainmentEngine, default_engine
from ..schema.schema import Schema
from .equivalence import EquivalenceResult, check_equivalence
from .typecheck import TypeCheckResult, type_check

__all__ = ["check_equivalence_many", "type_check_many"]


def _run_jobs(
    analysis,
    jobs: Sequence[Union[Tuple, Any]],
    config: Optional[ContainmentConfig],
    engine: Optional[ContainmentEngine],
    persist: Optional[Any],
) -> List[Any]:
    """Run *analysis* (``type_check`` or ``check_equivalence``) on every job."""
    payloads = [_normalise_job(job, config) for job in jobs]
    owned: Optional[ContainmentEngine] = None
    if engine is None and persist is not None:
        # a one-shot persisting engine for this batch; callers running many
        # batches should construct ContainmentEngine(persist=...) themselves
        # and pass it, so its memory caches survive between calls
        owned = engine = ContainmentEngine(persist=persist)
    resolved_engine = engine or default_engine()
    try:
        return [
            analysis(first, second, schema, config=job_config, engine=resolved_engine)
            for first, second, schema, job_config in payloads
        ]
    finally:
        if owned is not None:
            owned.close()


def type_check_many(
    jobs: Sequence[Union[Tuple, Any]],
    *,
    config: Optional[ContainmentConfig] = None,
    engine: Optional[ContainmentEngine] = None,
    persist: Optional[Any] = None,
) -> List[TypeCheckResult]:
    """Type check a batch of ``(transformation, source, target[, config])``
    jobs; results keep job order.

    ``engine`` defaults to the process-wide engine.  ``persist`` (a store
    path, only without ``engine``) runs the batch on a one-shot engine
    backed by the disk store, so the containment verdicts inside the
    analyses survive the process.
    """
    return _run_jobs(type_check, jobs, config, engine, persist)


def check_equivalence_many(
    jobs: Sequence[Union[Tuple, Any]],
    *,
    config: Optional[ContainmentConfig] = None,
    engine: Optional[ContainmentEngine] = None,
    persist: Optional[Any] = None,
) -> List[EquivalenceResult]:
    """Decide equivalence for a batch of ``(left, right, schema[, config])``
    jobs; results keep job order.  ``engine`` and ``persist`` as in
    :func:`type_check_many`."""
    return _run_jobs(check_equivalence, jobs, config, engine, persist)


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
