"""The disk-persistent result store: round trips, warm starts, and every
failure mode degrading to in-memory behaviour with identical verdicts."""

import sqlite3
import threading

import pytest

from repro.engine import ContainmentEngine, result_fingerprint
from repro.store import STORE_FORMAT_VERSION, ResultStore
from repro.workloads.batches import medical_batch, mixed_batch


@pytest.fixture()
def store_path(tmp_path):
    return tmp_path / "store.db"


def _fingerprints(results):
    return [result_fingerprint(result) for result in results]


@pytest.fixture(scope="module")
def medical_baseline():
    schema, pairs = medical_batch()
    results = ContainmentEngine().check_many(pairs, schema=schema)
    return schema, pairs, _fingerprints(results)


# --------------------------------------------------------------------------- #
# the happy path: write-back, warm start, bit-identical verdicts
# --------------------------------------------------------------------------- #
def test_round_trip_serves_identical_verdicts_from_disk(store_path, medical_baseline):
    schema, pairs, baseline = medical_baseline

    writer = ContainmentEngine(persist=store_path)
    cold = writer.check_many(pairs, schema=schema)
    assert _fingerprints(cold) == baseline
    assert writer.stats.store.writes >= len(pairs)
    writer.close()

    reader = ContainmentEngine(persist=store_path)
    warm = reader.check_many(pairs, schema=schema)
    assert _fingerprints(warm) == baseline
    stats = reader.stats
    assert stats.store.hits == len(pairs)
    assert stats.store.errors == 0
    # every verdict came from disk: the fresh engine's result cache missed
    assert stats.results.hits == 0
    reader.close()


def test_store_tiers_and_stamp(store_path, medical_baseline):
    schema, pairs, _ = medical_baseline
    engine = ContainmentEngine(persist=store_path)
    engine.check_many(pairs, schema=schema)
    engine.close()

    store = ResultStore(store_path, mode="ro")
    counts = store.counts()
    assert counts["results"] == len(pairs)
    assert counts["schema-tboxes"] >= 1
    assert store.meta()["store_format_version"] == str(STORE_FORMAT_VERSION)
    assert store.file_size() > 0
    entries = store.entries()
    assert len(entries) == sum(counts.values())
    assert all(entry["payload_bytes"] > 0 for entry in entries)
    store.close()


def test_mixed_batch_multi_schema_round_trip(store_path):
    requests = mixed_batch(length=3)
    baseline = _fingerprints(ContainmentEngine().check_many(requests))

    writer = ContainmentEngine(persist=store_path)
    writer.check_many(requests)
    writer.close()

    reader = ContainmentEngine(persist=store_path)
    assert _fingerprints(reader.check_many(requests)) == baseline
    assert reader.stats.store.hits == len(requests)
    reader.close()


def test_read_only_mode_never_writes(store_path, medical_baseline):
    schema, pairs, baseline = medical_baseline
    writer = ContainmentEngine(persist=store_path)
    writer.check_many(pairs[:5], schema=schema)
    writer.close()

    reader = ContainmentEngine(persist=store_path, persist_mode="ro")
    results = reader.check_many(pairs, schema=schema)  # 5 on disk, 10 solved
    assert _fingerprints(results) == baseline
    stats = reader.stats.store
    # 5 result replays + 1 schema-TBox hit while solving the missing 10
    assert stats.hits == 6
    assert stats.writes == 0
    reader.close()

    store = ResultStore(store_path, mode="ro")
    assert store.counts()["results"] == 5  # the solved 10 were not written back
    assert store.put("results", "k", object()) is False
    store.close()


# --------------------------------------------------------------------------- #
# failure modes: always in-memory behaviour, always identical verdicts
# --------------------------------------------------------------------------- #
def test_corrupted_database_file_degrades_gracefully(store_path, medical_baseline):
    schema, pairs, baseline = medical_baseline
    store_path.write_bytes(b"definitely not a sqlite database" * 64)

    engine = ContainmentEngine(persist=store_path)
    assert engine.store.disabled
    assert engine.store.disabled_reason
    results = engine.check_many(pairs, schema=schema)
    assert _fingerprints(results) == baseline
    assert engine.stats.store.hits == 0
    engine.close()


def test_version_stamp_mismatch_wipes_on_writable_open(store_path, medical_baseline):
    schema, pairs, baseline = medical_baseline
    engine = ContainmentEngine(persist=store_path)
    engine.check_many(pairs, schema=schema)
    engine.close()

    with sqlite3.connect(store_path) as connection:
        connection.execute("UPDATE meta SET value = '0.0.0' WHERE key = 'library_version'")

    reopened = ContainmentEngine(persist=store_path)
    assert not reopened.store.disabled
    assert reopened.store.counts() == {}  # stale entries were wiped, not served
    results = reopened.check_many(pairs, schema=schema)
    assert _fingerprints(results) == baseline
    assert reopened.stats.store.hits == 0
    reopened.close()

    store = ResultStore(store_path, mode="ro")
    assert store.meta()["library_version"] != "0.0.0"  # restamped
    store.close()


def test_version_stamp_mismatch_disables_read_only_open(store_path, medical_baseline):
    schema, pairs, _ = medical_baseline
    engine = ContainmentEngine(persist=store_path)
    engine.check_many(pairs, schema=schema)
    engine.close()
    with sqlite3.connect(store_path) as connection:
        connection.execute(
            "UPDATE meta SET value = '999' WHERE key = 'store_format_version'"
        )

    store = ResultStore(store_path, mode="ro")
    assert store.disabled
    assert "version stamp mismatch" in store.disabled_reason
    assert store.get("results", "anything") is None
    store.close()


def test_unwritable_store_location_degrades_gracefully(tmp_path, medical_baseline):
    schema, pairs, baseline = medical_baseline
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("a store path whose parent is a file cannot be created")

    engine = ContainmentEngine(persist=blocker / "store.db")
    assert engine.store.disabled
    results = engine.check_many(pairs, schema=schema)
    assert _fingerprints(results) == baseline
    assert engine.stats.store.writes == 0
    engine.close()


def test_read_only_open_of_missing_file_degrades_gracefully(store_path, medical_baseline):
    schema, pairs, baseline = medical_baseline
    engine = ContainmentEngine(persist=store_path, persist_mode="ro")
    assert engine.store.disabled
    assert engine.store.stats.errors == 0  # a cold start is not an error
    assert _fingerprints(engine.check_many(pairs, schema=schema)) == baseline
    engine.close()


def test_read_only_open_of_missing_file_is_a_clean_no_store_state(store_path):
    """Regression: a worker warm-starting before the parent's first write-back
    used to record ``OperationalError: unable to open database file`` and
    count an error; it must get a clean "no store yet" disabled state."""
    store = ResultStore(store_path, mode="ro")
    assert store.disabled
    assert "no store file yet" in store.disabled_reason
    assert "OperationalError" not in store.disabled_reason
    assert store.stats.errors == 0
    assert store.get("results", "anything") is None  # counts a miss, not an error
    assert store.put("results", "key", 1) is False
    assert store.stats.errors == 0
    store.close()


def test_pool_warm_start_before_first_write_back_is_noise_free(store_path):
    """A pool pointed at a store file nobody has created yet must report
    clean merged stats — no error noise from the workers' read-only opens."""
    from repro.engine import WorkerPool

    schema, pairs = medical_batch()
    with WorkerPool(1, persist=store_path) as pool:
        results = pool.check_many([(left, right, schema, None) for left, right in pairs[:2]])
        stats = pool.stats()
    assert len(results) == 2
    assert stats.store is not None
    assert stats.store.errors == 0
    assert stats.store.hits == 0


def test_concurrent_writers_degrade_gracefully(store_path, medical_baseline):
    """Two engines sharing one file may lose write-backs, never answers."""
    schema, pairs, baseline = medical_baseline
    engines = [ContainmentEngine(persist=store_path) for _ in range(2)]
    outcomes = [None, None]

    def run(index):
        outcomes[index] = _fingerprints(engines[index].check_many(pairs, schema=schema))

    threads = [threading.Thread(target=run, args=(index,)) for index in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert outcomes[0] == baseline
    assert outcomes[1] == baseline
    for engine in engines:
        engine.close()

    # whatever interleaving happened, the surviving file replays correctly
    reader = ContainmentEngine(persist=store_path)
    assert _fingerprints(reader.check_many(pairs, schema=schema)) == baseline
    reader.close()


def test_unpicklable_values_stay_memory_only(store_path):
    store = ResultStore(store_path)
    assert store.put("schema-tboxes", "key", lambda: None) is False  # unpicklable
    assert store.stats.errors == 1
    assert store.put("schema-tboxes", "key", {"fine": 1}) is True
    assert store.get("schema-tboxes", "key") == {"fine": 1}
    with pytest.raises(ValueError, match="unknown store tier"):
        store.put("automata", "key", 1)
    store.close()


def test_put_many_writes_once_and_skips_existing_keys(store_path):
    store = ResultStore(store_path)
    assert store.put_many("schema-tboxes", [("a", 1), ("b", 2)]) == 2
    # content-addressed: an existing key is never re-pickled or rewritten
    assert store.put_many("schema-tboxes", [("a", 9), ("c", 3)]) == 1
    assert store.get("schema-tboxes", "a") == 1
    assert store.counts()["schema-tboxes"] == 3
    assert store.stats.writes == 3
    assert store.put_many("schema-tboxes", []) == 0
    store.close()
    assert store.put_many("schema-tboxes", [("d", 4)]) == 0  # disabled: no-op


def test_closed_store_behaves_like_a_disabled_one(store_path):
    store = ResultStore(store_path)
    store.put("results", "key", {"value": 1})
    store.close()
    assert store.disabled
    assert store.get("results", "key") is None
    assert store.put("results", "key2", {"value": 2}) is False
    assert store.counts() == {}


def test_analysis_batches_accept_persist(store_path):
    """type_check_many/check_equivalence_many run on a one-shot persisting
    engine when given ``persist=`` and no engine."""
    from repro.analysis import check_equivalence_many
    from repro.workloads import medical

    schema = medical.source_schema()
    jobs = [(medical.migration(), medical.migration(), schema)]
    first = check_equivalence_many(jobs, persist=store_path)
    assert first[0].equivalent
    store = ResultStore(store_path, mode="ro")
    assert store.counts().get("results", 0) > 0  # verdicts survived the call
    store.close()
    second = check_equivalence_many(jobs, persist=store_path)
    assert [r.equivalent for r in second] == [r.equivalent for r in first]


# --------------------------------------------------------------------------- #
# the process backend: workers warm-start read-only
# --------------------------------------------------------------------------- #
def test_workers_warm_start_from_disk(store_path, medical_baseline):
    schema, pairs, baseline = medical_baseline
    warmer = ContainmentEngine(persist=store_path)
    warmer.check_many(pairs, schema=schema)
    warmer.close()

    engine = ContainmentEngine(persist=store_path, max_workers=2)
    try:
        results = engine.check_many(pairs, schema=schema, parallel="process")
        assert _fingerprints(results) == baseline
        pool_stats = engine.process_stats()
        assert pool_stats.store is not None
        assert pool_stats.store.hits == len(pairs)
        assert pool_stats.store.writes == 0  # read-only: workers never write
    finally:
        engine.close()


def test_process_backend_merges_worker_verdicts_into_the_store(store_path):
    schema, pairs = medical_batch()
    engine = ContainmentEngine(persist=store_path, max_workers=2)
    try:
        cold = engine.check_many(pairs, schema=schema, parallel="process")
        assert engine.stats.store.writes >= len(pairs)
    finally:
        engine.close()

    reader = ContainmentEngine(persist=store_path)
    warm = reader.check_many(pairs, schema=schema)
    assert _fingerprints(warm) == _fingerprints(cold)
    assert reader.stats.store.hits == len(pairs)
    reader.close()


def _nested_fingerprints(type_check_result):
    """Every containment verdict inside a type-check result, fingerprinted."""
    results = [
        entailment.containment
        for entailment in type_check_result.statement_results
        if entailment.containment is not None
    ]
    if type_check_result.coverage is not None:
        results.extend(
            check.result for check in type_check_result.coverage.checks if check.result is not None
        )
    return _fingerprints(results)


def test_process_analysis_batches_write_worker_verdicts_to_the_store(store_path):
    """Workers return the verdicts an analysis job solved and the parent
    persists them, so a fresh engine answers the same job from disk alone."""
    from repro.analysis import type_check_many
    from repro.workloads import medical

    jobs = [(medical.migration(), medical.source_schema(), medical.target_schema())]
    engine = ContainmentEngine(persist=store_path, max_workers=2)
    try:
        processed = type_check_many(jobs, parallel="process", engine=engine)
        solved = engine.process_stats().results.misses
        assert solved > 0
        assert engine.stats.store.writes == solved
    finally:
        engine.close()

    fresh = ContainmentEngine(persist=store_path)
    try:
        replayed = type_check_many(jobs, engine=fresh)
        assert fresh.stats.store.misses == 0
        assert fresh.stats.store.hits == solved
        assert _nested_fingerprints(replayed[0]) == _nested_fingerprints(processed[0])
        assert replayed[0].well_typed == processed[0].well_typed
    finally:
        fresh.close()
