"""The process-parallel backend: routing, determinism across backends,
pickling boundaries, stats merging and failure propagation.

The central invariant mirrors `tests/test_engine.py`'s: whatever backend
evaluates a batch — serial or the schema-sharded worker pool —
the `ContainmentResult`s must be bit-identical, which
:func:`repro.engine.result_fingerprint` makes checkable as string equality
(every verdict-relevant field including witness graphs, finite
counterexamples and the completed-TBox fingerprint; wall-clock excluded).
"""

import importlib.util
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import check_equivalence, type_check
from repro.containment import ContainmentConfig
from repro.engine import (
    ContainmentEngine,
    EngineStats,
    WorkerError,
    WorkerPool,
    merge_stats,
    result_fingerprint,
)
from repro.engine.cache import CacheStats
from repro.engine.parallel import _stable_hash, graph_token, plan_routing
from repro.rpq import parse_c2rpq
from repro.workloads import medical
from repro.workloads.batches import BUILTIN_WORKLOADS, containment_batch, synthetic_batch

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_SPEC = importlib.util.spec_from_file_location("perfbench_inputs", _PERFBENCH / "inputs.py")
perfbench_inputs = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = perfbench_inputs  # its dataclasses look their module up there
_SPEC.loader.exec_module(perfbench_inputs)

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


def proportional_plan_routing(keys, workers):
    """The rule ``plan_routing`` replaced, kept as the reference it must
    match wherever a batch holds one schema or at least *workers* schemas:
    with fewer schemas than workers, each schema got a contiguous worker
    range sized by its share of the batch (largest remainder), spread by
    right-query token, or by request digest when the rights did not spread."""
    if workers == 1 or not keys:
        return [0] * len(keys)
    groups = {}
    for index, (schema_fp, _, _) in enumerate(keys):
        groups.setdefault(schema_fp, []).append(index)
    assignment = [0] * len(keys)
    if len(groups) >= workers:
        for schema_fp, members in groups.items():
            for index in members:
                assignment[index] = _stable_hash(schema_fp) % workers
        return assignment
    ordered = sorted(groups.items())
    widths = [1] * len(ordered)
    spare = workers - len(ordered)
    quotas = [len(members) * spare / len(keys) for _, members in ordered]
    floors = [int(quota) for quota in quotas]
    for position, floor in enumerate(floors):
        widths[position] += floor
    by_fraction = sorted(
        range(len(ordered)),
        key=lambda position: (floors[position] - quotas[position], ordered[position][0]),
    )
    for position in by_fraction[: spare - sum(floors)]:
        widths[position] += 1
    start = 0
    for (schema_fp, members), width in zip(ordered, widths):
        spread_by_right = len({keys[index][1] for index in members}) >= width
        for index in members:
            token = keys[index][1] if spread_by_right else keys[index][2]
            assignment[index] = start + _stable_hash(token) % width
        start += width
    return assignment


def routing_keys(requests):
    """The routing keys ``WorkerPool.check_many`` builds for *requests*
    (``(left, right, schema)`` triples), captured without starting a worker."""
    engine = ContainmentEngine()
    pool = WorkerPool(2)
    captured = []
    pool.run_batch = lambda payloads, keys, tokens: captured.append(list(keys)) or []
    engine._process_pool = pool
    engine.check_many(requests, parallel="process")
    pool.close()
    return captured[0]


def zoo_process_batches(seed=0):
    """The 18 batches of perfbench's zoo-process workload, built as it
    builds them: batch ``j`` takes every 18th zoo pair from the ``j``-th."""
    items = perfbench_inputs.zoo_items(seed)
    count = -(-len(items) // 8)
    return [
        [(item.left, item.right, item.schema) for item in items[start::count]]
        for start in range(count)
    ]


def test_plan_routing_matches_the_proportional_rule_on_the_zoo_process_batches():
    batches = zoo_process_batches()
    assert len(batches) == 18
    for batch in batches:
        keys = routing_keys(batch)
        assert len({schema for schema, _, _ in keys}) >= 2  # 7-8 schemas each
        assert plan_routing(keys, 2) == proportional_plan_routing(keys, 2)


@pytest.mark.parametrize("workers", [2, 3, 4, 8])
def test_plan_routing_matches_the_proportional_rule_on_single_schema_batches(workers):
    batches = [containment_batch(name) for name in BUILTIN_WORKLOADS] + [synthetic_batch(12)]
    for schema, pairs in batches:
        keys = routing_keys([(left, right, schema) for left, right in pairs])
        assert plan_routing(keys, workers) == proportional_plan_routing(keys, workers)


@settings(max_examples=200, deadline=None)
@given(
    workers=st.integers(min_value=1, max_value=8),
    enough_schemas=st.booleans(),
    extra=st.integers(min_value=0, max_value=3),
    picks=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 5), st.integers(0, 40)), max_size=40
    ),
)
def test_plan_routing_matches_the_proportional_rule_with_one_or_enough_schemas(
    workers, enough_schemas, extra, picks
):
    # exactly one schema, or at least as many as workers: only batches with
    # 2 to workers-1 schemas are routed differently by the two rules
    schemas = workers + extra if enough_schemas else 1
    keys = [(f"s{index}", f"r{index}", f"d{index}") for index in range(schemas)]
    keys += [(f"s{schema % schemas}", f"r{right}", f"d{digest}") for schema, right, digest in picks]
    assert plan_routing(keys, workers) == proportional_plan_routing(keys, workers)


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


def test_process_batch_ships_misses_and_hands_out_copies(medical_serial):
    """The parent answers what it holds, ships only its misses, and every
    result is the caller's own: mutating a worker verdict must not change
    what later replays of it carry."""
    schema, pairs, baseline = medical_serial
    with ContainmentEngine(max_workers=1) as engine:
        engine.check_many(pairs[:3], schema=schema)  # serial: the parent holds these
        first = engine.check_many(pairs, schema=schema, parallel="process")
        assert fingerprints(first) == baseline
        assert engine.transport_report()["items"] == len(pairs) - 3
        assert engine.stats.contains_calls == 3 + len(pairs)
        assert any(result.witness_pattern is not None for result in first)
        for result in first:
            counterexample = result.finite_counterexample
            for graph in (result.witness_pattern, counterexample.graph if counterexample else None):
                if graph is not None:
                    graph.add_node("tampered", ["Tampered"])
        hits = engine.stats.results.hits
        replayed = engine.check_many(pairs, schema=schema, parallel="process")
        assert fingerprints(replayed) == baseline
        assert engine.stats.results.hits == hits + len(pairs)
        assert engine.transport_report()["items"] == len(pairs) - 3  # nothing shipped


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


def test_empty_process_batch_returns_empty():
    """An empty batch answers at once and starts no pool."""
    engine = ContainmentEngine()
    assert engine.check_many([], parallel="process") == []
    assert engine.process_stats() is None


def test_unknown_backend_is_rejected():
    schema, pairs = containment_batch("medical")
    with pytest.raises(ValueError):
        ContainmentEngine().check_many(pairs, schema=schema, parallel="fork")


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


def test_an_explicit_worker_count_must_match_the_live_pool():
    """max_workers=None means the live pool; another explicit count raises
    rather than handing back a pool of the wrong size."""
    schema, pairs = containment_batch("social")
    engine = ContainmentEngine()
    try:
        pool = engine.process_pool(1)
        assert pool.workers == 1
        assert engine.process_pool(1) is pool
        assert engine.process_pool() is pool
        with pytest.raises(ValueError, match="max_workers=2.*1 workers"):
            engine.process_pool(2)
        with pytest.raises(ValueError, match="max_workers=2.*1 workers"):
            engine.check_many(pairs[:1], schema=schema, parallel="process", max_workers=2)
        assert not pool.started  # refused before any worker was spawned
        # 1 and None both run on the live pool (distinct pairs, so both miss)
        results = [
            engine.check_many([pair], schema=schema, parallel="process", max_workers=workers)[0]
            for pair, workers in zip(pairs[:2], (1, None))
        ]
        assert engine.process_pool() is pool and pool.started
        assert fingerprints(results) == fingerprints(
            ContainmentEngine().check_many(pairs[:2], schema=schema)
        )
    finally:
        engine.shutdown()
    # after a shutdown the next count sizes a fresh pool
    try:
        assert engine.process_pool(2).workers == 2
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
# a batch of analyses is a loop over one shared engine
# --------------------------------------------------------------------------- #
def _containment_fingerprints(results):
    """Every containment verdict inside type-check or equivalence results."""
    verdicts = []
    for result in results:
        verdicts += [entailment.containment for entailment in getattr(result, "statement_results", ())]
        coverage = getattr(result, "coverage", None)
        if coverage is not None:
            verdicts += [check.result for check in coverage.checks]
        for difference in getattr(result, "differences", ()):
            verdicts += [difference.left_result, difference.right_result]
    return [result_fingerprint(verdict) for verdict in verdicts if verdict is not None]


def test_type_checks_on_a_shared_engine_match_fresh_engines():
    source, target = medical.source_schema(), medical.target_schema()
    migrations = [medical.migration(), medical.broken_migration(), medical.redundant_migration()]
    engine = ContainmentEngine()
    batched = [type_check(migration, source, target, engine=engine) for migration in migrations]
    single = [type_check(migration, source, target, engine=ContainmentEngine())
              for migration in migrations]
    assert [r.well_typed for r in batched] == [True, False, True]
    assert [r.well_typed for r in batched] == [r.well_typed for r in single]
    assert [r.containment_calls for r in batched] == [r.containment_calls for r in single]
    assert _containment_fingerprints(batched) == _containment_fingerprints(single)
    assert batched[1].failed_statements()[0].statement is not None


def test_equivalence_checks_on_a_shared_engine_match_fresh_engines():
    schema = medical.source_schema()
    jobs = [
        (medical.migration(), medical.redundant_migration(), schema),
        (medical.migration(), medical.broken_migration(), schema),
    ]
    engine = ContainmentEngine()
    batched = [check_equivalence(left, right, schema, engine=engine) for left, right, schema in jobs]
    single = [check_equivalence(left, right, schema, engine=ContainmentEngine())
              for left, right, schema in jobs]
    assert [r.equivalent for r in batched] == [True, False]
    assert [r.equivalent for r in batched] == [r.equivalent for r in single]
    assert [len(r.differences) for r in batched] == [len(r.differences) for r in single]
    assert _containment_fingerprints(batched) == _containment_fingerprints(single)


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
