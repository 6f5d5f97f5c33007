"""The process-parallel backend: routing, determinism across backends,
pickling boundaries, stats merging and failure propagation.

The central invariant mirrors `tests/test_engine.py`'s: whatever backend
evaluates a batch — serial or the schema-sharded worker pool —
the `ContainmentResult`s must be bit-identical, which
:func:`repro.engine.result_fingerprint` makes checkable as string equality
(every verdict-relevant field including witness graphs, finite
counterexamples and the completed-TBox fingerprint; wall-clock excluded).
"""

import threading

import pytest

from repro.analysis import check_equivalence_many, type_check_many
from repro.containment import ContainmentConfig
from repro.engine import (
    ContainmentEngine,
    EngineStats,
    WorkerError,
    merge_stats,
    result_fingerprint,
)
from repro.engine.cache import CacheStats
from repro.engine.parallel import graph_token, plan_routing
from repro.rpq import parse_c2rpq
from repro.workloads import medical
from repro.workloads.batches import containment_batch, synthetic_batch

@pytest.fixture(scope="module")
def shared_process_engine():
    """One 2-worker engine per module: worker spawn is paid once."""
    engine = ContainmentEngine(max_workers=2)
    engine.process_pool().start()
    yield engine
    engine.shutdown()


def fingerprints(results):
    return [result_fingerprint(result) for result in results]


@pytest.fixture(scope="module")
def medical_serial():
    """The medical batch and its cold serial fingerprints."""
    schema, pairs = containment_batch("medical")
    return schema, pairs, fingerprints(ContainmentEngine().check_many(pairs, schema=schema))


# --------------------------------------------------------------------------- #
# routing
# --------------------------------------------------------------------------- #
def key(schema, secondary="", tertiary=""):
    return (schema, secondary or schema, tertiary or f"{schema}|{secondary}")


def test_plan_routing_is_deterministic_and_single_worker_trivial():
    keys = [key("s1", "a"), key("s2", "b"), key("s1", "c")]
    assert plan_routing(keys, 4) == plan_routing(list(keys), 4)
    assert plan_routing(keys, 1) == [0, 0, 0]
    assert plan_routing([], 4) == []
    with pytest.raises(ValueError):
        plan_routing(keys, 0)


def test_plan_routing_shards_by_schema_when_schemas_abound():
    keys = [key(f"s{i % 5}", f"r{i}") for i in range(20)]
    assignment = plan_routing(keys, 3)
    by_schema = {}
    for (schema, _, _), worker in zip(keys, assignment):
        by_schema.setdefault(schema, set()).add(worker)
    # every schema's requests land on exactly one worker
    assert all(len(workers) == 1 for workers in by_schema.values())


def test_plan_routing_spreads_single_schema_across_all_workers():
    keys = [key("only", f"right{i}") for i in range(64)]
    assignment = plan_routing(keys, 4)
    assert set(assignment) == {0, 1, 2, 3}
    # same right query -> same worker (completion-cache affinity)
    by_right = {}
    for (_, right, _), worker in zip(keys, assignment):
        by_right.setdefault(right, set()).add(worker)
    assert all(len(workers) == 1 for workers in by_right.values())


def test_plan_routing_falls_back_to_request_digest_when_rights_do_not_spread():
    keys = [("only", "same-right", f"request{i}") for i in range(64)]
    assignment = plan_routing(keys, 4)
    assert set(assignment) == {0, 1, 2, 3}


def test_plan_routing_gives_bigger_schemas_wider_ranges():
    keys = [("big", f"r{i}", f"t{i}") for i in range(30)]
    keys += [("small", f"r{i}", f"t{i}") for i in range(2)]
    assignment = plan_routing(keys, 8)
    big_workers = {worker for (schema, _, _), worker in zip(keys, assignment) if schema == "big"}
    small_workers = {worker for (schema, _, _), worker in zip(keys, assignment) if schema == "small"}
    assert not big_workers & small_workers  # contiguous, disjoint ranges
    assert len(big_workers) > len(small_workers)
    assert len(big_workers) + len(small_workers) <= 8


# --------------------------------------------------------------------------- #
# fingerprints and stats merging
# --------------------------------------------------------------------------- #
def test_graph_token_is_stable_and_none_safe():
    schema, pairs = containment_batch("medical")
    engine = ContainmentEngine()
    result = engine.check_many(pairs, schema=schema)[0]
    assert graph_token(None) == "∅"
    if result.witness_pattern is not None:
        assert graph_token(result.witness_pattern) == graph_token(result.witness_pattern.copy())


def test_result_fingerprint_excludes_wall_clock_but_not_verdicts():
    schema, pairs = containment_batch("medical")
    first = ContainmentEngine().check_many(pairs, schema=schema)
    second = ContainmentEngine().check_many(pairs, schema=schema)
    assert fingerprints(first) == fingerprints(second)  # elapsed differs, prints don't
    assert len(set(fingerprints(first))) > 1  # different requests fingerprint apart


def test_merge_stats_sums_counters():
    one = EngineStats(
        results=CacheStats("results", hits=1, misses=2, evictions=0),
        completions=CacheStats("completions", hits=3, misses=1),
        schema_tboxes=CacheStats("schema-tboxes", misses=1),
        automata=CacheStats("automata", hits=5),
        contains_calls=3,
        batches=1,
    )
    two = EngineStats(
        results=CacheStats("results", hits=4, misses=1, evictions=2),
        completions=CacheStats("completions"),
        schema_tboxes=CacheStats("schema-tboxes", hits=2),
        automata=CacheStats("automata", misses=7),
        contains_calls=5,
        batches=2,
    )
    merged = merge_stats([one, two])
    assert (merged.results.hits, merged.results.misses, merged.results.evictions) == (5, 3, 2)
    assert merged.completions.hits == 3 and merged.schema_tboxes.hits == 2
    assert merged.automata.lookups == 12
    assert merged.contains_calls == 8 and merged.batches == 3


# --------------------------------------------------------------------------- #
# backend determinism (the satellite acceptance check)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", ["medical", "fhir", "synthetic"])
def test_backends_are_fingerprint_identical(workload, shared_process_engine):
    schema, pairs = containment_batch(workload, length=4)
    serial = ContainmentEngine().check_many(pairs, schema=schema)
    processed = shared_process_engine.check_many(pairs, schema=schema, parallel="process")
    assert fingerprints(processed) == fingerprints(serial)


def test_process_results_include_witness_patterns_after_pickling(shared_process_engine):
    schema, pairs = synthetic_batch(3)
    serial = ContainmentEngine().check_many(pairs, schema=schema)
    processed = shared_process_engine.check_many(pairs, schema=schema, parallel="process")
    non_contained = [
        (fresh, piped) for fresh, piped in zip(serial, processed) if not fresh.contained
    ]
    assert non_contained, "the synthetic batch must include non-contained instances"
    for fresh, piped in non_contained:
        assert piped.witness_pattern is not None
        assert graph_token(piped.witness_pattern) == graph_token(fresh.witness_pattern)


def test_finite_counterexamples_survive_the_process_boundary(shared_process_engine):
    """Counterexample payloads (graphs + answer tuples) pickle intact."""
    schema = medical.source_schema()
    config = ContainmentConfig(search_finite_counterexample=True)
    pairs = [
        (parse_c2rpq("p(x) := Antigen(x)"), parse_c2rpq("q(x) := Vaccine(x)")),
        (parse_c2rpq("p2(x) := (crossReacting)(x, y)"), parse_c2rpq("q2(x) := Vaccine(x)")),
    ]
    serial = ContainmentEngine().check_many(pairs, schema=schema, config=config)
    processed = shared_process_engine.check_many(
        pairs, schema=schema, config=config, parallel="process"
    )
    assert fingerprints(processed) == fingerprints(serial)
    for fresh, piped in zip(serial, processed):
        assert not piped.contained
        assert piped.finite_counterexample is not None
        assert piped.finite_counterexample.answer == fresh.finite_counterexample.answer
        assert graph_token(piped.finite_counterexample.graph) == graph_token(
            fresh.finite_counterexample.graph
        )


def test_process_batch_warms_the_parent_result_cache(shared_process_engine):
    schema, pairs = containment_batch("social")
    shared_process_engine.check_many(pairs, schema=schema, parallel="process")
    hits_before = shared_process_engine.stats.results.hits
    replayed = shared_process_engine.check_many(pairs, schema=schema)
    assert shared_process_engine.stats.results.hits >= hits_before + len(pairs)
    serial = ContainmentEngine().check_many(pairs, schema=schema)
    assert fingerprints(replayed) == fingerprints(serial)


def test_pool_stats_aggregate_worker_counters(shared_process_engine):
    stats = shared_process_engine.process_stats()
    assert stats is not None
    assert stats.contains_calls > 0
    assert stats.results.lookups >= stats.contains_calls
    as_dict = stats.as_dict()
    assert set(as_dict["caches"]) == {"results", "completions", "schema-tboxes", "automata"}


# --------------------------------------------------------------------------- #
# failure propagation and lifecycle
# --------------------------------------------------------------------------- #
def test_worker_exceptions_surface_as_worker_error(shared_process_engine):
    cyclic_right = parse_c2rpq("q(x) := (r*)(x, x)")  # not acyclic: rejected by the solver
    schema, pairs = containment_batch("medical")
    with pytest.raises(WorkerError) as excinfo:
        shared_process_engine.check_many(
            [(pairs[0][0], cyclic_right)], schema=schema, parallel="process"
        )
    assert "AcyclicityError" in str(excinfo.value)
    assert "AcyclicityError" in excinfo.value.remote_traceback
    # the pool survives a failed task and keeps serving
    results = shared_process_engine.check_many(pairs[:2], schema=schema, parallel="process")
    assert len(results) == 2


def test_unknown_backend_is_rejected():
    schema, pairs = containment_batch("medical")
    with pytest.raises(ValueError):
        ContainmentEngine().check_many(pairs, schema=schema, parallel="fork")
    # the analysis batches take serial or process only: "auto" prices single
    # containment tests, so it must fail loudly instead of running serially
    jobs = [(medical.migration(), medical.source_schema(), medical.target_schema())]
    with pytest.raises(ValueError, match="unknown backend 'auto'"):
        type_check_many(jobs, parallel="auto", engine=ContainmentEngine())
    with pytest.raises(ValueError, match="unknown backend 'auto'"):
        check_equivalence_many(
            [(medical.migration(), medical.migration(), medical.source_schema())],
            parallel="auto",
            engine=ContainmentEngine(),
        )


def test_engine_replaces_a_pool_whose_worker_died():
    """A worker killed mid-batch must not poison later batches: the pool
    tears itself down and the engine builds a fresh one transparently."""
    engine = ContainmentEngine(max_workers=1)
    schema, pairs = containment_batch("social")
    try:
        pool = engine.process_pool()
        pool.start()
        pool._processes[0].terminate()  # simulate an OOM-killed worker
        pool._processes[0].join()
        with pytest.raises(WorkerError, match="died without replying"):
            engine.check_many(pairs[:2], schema=schema, parallel="process")
        assert pool.closed
        # the very next process batch runs on a fresh pool with clean queues
        results = engine.check_many(pairs[:2], schema=schema, parallel="process")
        serial = ContainmentEngine().check_many(pairs[:2], schema=schema)
        assert fingerprints(results) == fingerprints(serial)
        assert engine.process_pool() is not pool
    finally:
        engine.shutdown()


def test_unpicklable_payload_raises_and_the_next_batch_runs(medical_serial):
    """A payload that cannot be pickled raises at once instead of leaving
    the parent waiting on a worker that never got its chunk, and the
    engine's next process batch runs on a fresh pool."""
    schema, pairs, serial = medical_serial
    poisoned = schema.copy()
    poisoned.note = lambda: None
    engine = ContainmentEngine(max_workers=2)
    outcome = {}

    def failing_batch():
        try:
            engine.check_many(pairs[:2], schema=poisoned, parallel="process")
        except Exception as error:  # noqa: BLE001 - inspected below
            outcome["error"] = error

    try:
        pool = engine.process_pool().start()
        runner = threading.Thread(target=failing_batch, daemon=True)
        runner.start()
        runner.join(timeout=60)
        if runner.is_alive():  # unblock the stuck batch, then fail
            for process in pool._processes:
                process.terminate()
            runner.join(timeout=10)
            pytest.fail("the unpicklable batch blocked")
        assert "pickle" in repr(outcome.get("error")).lower()
        assert pool.closed
        results = engine.check_many(pairs, schema=schema, parallel="process")
        assert fingerprints(results) == serial
    finally:
        engine.shutdown()


def test_process_batch_from_a_warm_parent_matches_cold_serial(medical_serial):
    schema, pairs, serial = medical_serial
    engine = ContainmentEngine(max_workers=1)
    try:
        engine.check_many(pairs, schema=schema)  # warm the parent's caches
        results = engine.check_many(pairs, schema=schema, parallel="process")
        assert fingerprints(results) == serial
    finally:
        engine.shutdown()


def test_tbox_digest_explains_unsupported_access(shared_process_engine):
    schema, pairs = containment_batch("medical")
    result = shared_process_engine.check_many(pairs[:1], schema=schema, parallel="process")[0]
    assert result.completion is not None
    assert len(result.completion.tbox.canonical_fingerprint()) == 64
    assert result.completion.tbox.size() > 0
    with pytest.raises(AttributeError, match="stands in for a completed TBox"):
        result.completion.tbox.statements()


def test_dropped_pool_reaps_its_workers():
    """A pool discarded without close() must not leak worker processes."""
    import gc
    import weakref

    from repro.engine.parallel import WorkerPool

    pool = WorkerPool(workers=1)
    pool.start()
    (process,) = pool._processes
    assert process.is_alive()
    probe = weakref.ref(pool)
    del pool
    gc.collect()
    assert probe() is None  # nothing keeps the abandoned pool alive
    process.join(timeout=10)
    assert not process.is_alive()


def test_shutdown_is_idempotent_and_pool_recreatable():
    engine = ContainmentEngine(max_workers=2)
    schema, pairs = containment_batch("social")
    first = engine.check_many(pairs[:3], schema=schema, parallel="process")
    engine.shutdown()
    engine.shutdown()  # idempotent
    second = engine.check_many(pairs[:3], schema=schema, parallel="process")  # fresh pool
    assert fingerprints(first) == fingerprints(second)
    engine.shutdown()


# --------------------------------------------------------------------------- #
# the analysis batch layer
# --------------------------------------------------------------------------- #
def test_type_check_many_matches_serial_across_backends(shared_process_engine):
    jobs = [
        (medical.migration(), medical.source_schema(), medical.target_schema()),
        (medical.broken_migration(), medical.source_schema(), medical.target_schema()),
        (medical.redundant_migration(), medical.source_schema(), medical.target_schema()),
    ]
    serial = type_check_many(jobs, engine=ContainmentEngine())
    processed = type_check_many(jobs, parallel="process", engine=shared_process_engine)
    assert [r.well_typed for r in serial] == [True, False, True]
    assert [r.well_typed for r in processed] == [r.well_typed for r in serial]
    assert [r.containment_calls for r in processed] == [r.containment_calls for r in serial]
    # the pickled result still carries the structured failure detail
    assert processed[1].failed_statements()
    assert processed[1].failed_statements()[0].statement is not None


def test_check_equivalence_many_matches_serial(shared_process_engine):
    jobs = [
        (medical.migration(), medical.redundant_migration(), medical.source_schema()),
        (medical.migration(), medical.broken_migration(), medical.source_schema()),
    ]
    serial = check_equivalence_many(jobs, engine=ContainmentEngine())
    processed = check_equivalence_many(jobs, parallel="process", engine=shared_process_engine)
    assert [r.equivalent for r in serial] == [True, False]
    assert [r.equivalent for r in processed] == [r.equivalent for r in serial]
    assert [len(r.differences) for r in processed] == [len(r.differences) for r in serial]


def test_analysis_jobs_validate_their_shape():
    with pytest.raises(TypeError):
        type_check_many([(medical.migration(), medical.source_schema())])
    with pytest.raises(TypeError):
        check_equivalence_many(
            [(medical.migration(), medical.redundant_migration(), "not-a-schema")]
        )


def test_interrupted_batch_shuts_the_pool_down_promptly(monkeypatch):
    """A KeyboardInterrupt mid-batch must not leave spawn children alive
    behind the atexit hook's serial 5-second joins."""
    import time

    from repro.engine.parallel import WorkerPool

    schema, pairs = containment_batch("medical")
    pool = WorkerPool(2)
    pool.start()
    processes = list(pool._processes)
    assert all(process.is_alive() for process in processes)

    def interrupted_receive():
        raise KeyboardInterrupt()

    monkeypatch.setattr(pool, "_receive", interrupted_receive)
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        pool.check_many([(left, right, schema, None) for left, right in pairs[:4]])
    elapsed = time.perf_counter() - started

    assert pool.closed
    assert all(not process.is_alive() for process in processes), (
        "interrupted pool left live children"
    )
    # parallel terminate, not one serial 5 s join per worker
    assert elapsed < 5.0, f"interrupt teardown took {elapsed:.1f}s"
