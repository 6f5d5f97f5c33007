"""The disk-persistent result store: round trips, warm starts of a fresh
engine, and every failure mode degrading to in-memory behaviour with
identical verdicts."""

import pickle
import sqlite3
import threading

import pytest

from repro.engine import ContainmentEngine, result_fingerprint
from repro.store import STORE_FORMAT_VERSION, ResultStore
from repro.workloads.batches import medical_batch, mixed_batch, social_batch


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


def test_store_rows_name_their_schema_and_stamp(store_path, medical_baseline):
    schema, pairs, _ = medical_baseline
    engine = ContainmentEngine(persist=store_path)
    engine.check_many(pairs, schema=schema)
    engine.close()

    store = ResultStore(store_path, mode="ro")
    # verdicts only: one row per pair, none for the schema's Horn encoding
    assert store.count() == len(pairs)
    assert store.meta()["store_format_version"] == str(STORE_FORMAT_VERSION) == "3"
    assert store.file_size() > 0
    entries = store.entries()
    assert len(entries) == len(pairs)
    assert {entry["schema"] for entry in entries} == {schema.canonical_fingerprint()}
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
    """``mode="ro"`` (the ``cache stats``/``cache export`` open) serves what
    is on disk and refuses every write, delete and wipe."""
    schema, pairs, baseline = medical_baseline
    writer = ContainmentEngine(persist=store_path)
    writer.check_many(pairs[:5], schema=schema)
    writer.close()

    store = ResultStore(store_path, mode="ro")
    keys = [entry["key"] for entry in store.entries()]
    assert sorted(_fingerprints([store.get(key) for key in keys])) == sorted(baseline[:5])
    assert (store.stats.hits, store.stats.misses) == (5, 0)
    assert store.put("schema", "k", object()) is False
    assert store.put_many([("schema", "k", {"value": 1})]) == 0
    assert store.delete_schema(schema.canonical_fingerprint()) == 0
    assert store.clear() == 0
    assert store.stats.writes == 0
    store.close()

    reader = ResultStore(store_path, mode="ro")
    assert reader.count() == 5  # nothing was written, deleted or wiped
    reader.close()


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
    # format 2 was written by solvers that decided at most 256 roll-up
    # choices, so its "contained" rows may be wrong
    for key, stale in (("library_version", "0.0.0"), ("store_format_version", "2")):
        engine = ContainmentEngine(persist=store_path)
        engine.check_many(pairs, schema=schema)
        engine.close()

        with sqlite3.connect(store_path) as connection:
            connection.execute("UPDATE meta SET value = ? WHERE key = ?", (stale, key))

        reopened = ContainmentEngine(persist=store_path)
        assert not reopened.store.disabled
        assert reopened.store.count() == 0  # stale entries were wiped, not served
        results = reopened.check_many(pairs, schema=schema)
        assert _fingerprints(results) == baseline
        assert reopened.stats.store.hits == 0
        reopened.close()

        store = ResultStore(store_path, mode="ro")
        assert store.meta()[key] != stale  # restamped
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
    assert store.get("anything") is None
    store.close()


def _write_v1_store(path):
    """A store file as format 1 left it: a ``tier`` column, a schema-TBox row."""
    from repro.store.store import _library_version

    with sqlite3.connect(path) as connection:
        connection.executescript(
            """
            CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
            CREATE TABLE entries (
                tier TEXT NOT NULL,
                key TEXT NOT NULL,
                payload BLOB NOT NULL,
                created_at REAL NOT NULL,
                PRIMARY KEY (tier, key)
            );
            """
        )
        connection.executemany(
            "INSERT INTO meta (key, value) VALUES (?, ?)",
            [("store_format_version", "1"), ("library_version", _library_version())],
        )
        connection.execute(
            "INSERT INTO entries VALUES ('schema-tboxes', 'extended-fp', ?, 0.0)",
            (pickle.dumps({"statements": []}),),
        )
    connection.close()


def test_format_1_file_is_disabled_read_only_and_wiped_read_write(store_path, medical_baseline):
    schema, pairs, baseline = medical_baseline
    _write_v1_store(store_path)

    reader = ResultStore(store_path, mode="ro")
    assert reader.disabled
    assert f"store_format_version is '1', expected '{STORE_FORMAT_VERSION}'" in reader.disabled_reason
    assert reader.get("extended-fp") is None
    reader.close()

    engine = ContainmentEngine(persist=store_path)
    assert not engine.store.disabled
    assert engine.store.count() == 0  # the schema-tboxes row was wiped, not served
    assert engine.store.meta()["store_format_version"] == str(STORE_FORMAT_VERSION)
    assert _fingerprints(engine.check_many(pairs, schema=schema)) == baseline
    assert engine.store.count() == len(pairs)
    engine.close()

    with sqlite3.connect(store_path) as connection:
        columns = [row[1] for row in connection.execute("PRAGMA table_info(entries)")]
    connection.close()
    assert columns == ["key", "schema", "payload", "created_at"]


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
    """Inspecting a store nobody has written yet creates no file, and the
    engine that later opens the path starts from a clean store."""
    schema, pairs, baseline = medical_baseline
    inspected = ResultStore(store_path, mode="ro")
    assert inspected.disabled
    assert inspected.stats.errors == 0  # a cold start is not an error
    inspected.close()
    assert not store_path.exists()

    with ContainmentEngine(persist=store_path) as engine:
        assert _fingerprints(engine.check_many(pairs, schema=schema)) == baseline
        stats = engine.stats.store
        assert (stats.hits, stats.misses, stats.errors) == (0, len(pairs), 0)


def test_read_only_open_of_missing_file_is_a_clean_no_store_state(store_path):
    """Regression: a worker warm-starting before the parent's first write-back
    used to record ``OperationalError: unable to open database file`` and
    count an error; it must get a clean "no store yet" disabled state."""
    store = ResultStore(store_path, mode="ro")
    assert store.disabled
    assert "no store file yet" in store.disabled_reason
    assert "OperationalError" not in store.disabled_reason
    assert store.stats.errors == 0
    assert store.get("anything") is None  # counts a miss, not an error
    assert store.put("schema", "key", 1) is False
    assert store.stats.errors == 0
    store.close()


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


def test_a_row_that_no_longer_unpickles_is_rewritten(store_path, medical_baseline):
    """A writable store deletes an unreadable row when it reads it, so the
    write-back rewrites it; a read-only store only counts the error."""
    schema, pairs, baseline = medical_baseline
    with ContainmentEngine(persist=store_path) as warmer:
        warmer.check_many(pairs, schema=schema)
    with sqlite3.connect(store_path) as connection:
        connection.execute("UPDATE entries SET payload = ?", (b"not a pickle",))

    reader = ResultStore(store_path, mode="ro")
    assert reader.get(reader.entries()[0]["key"]) is None
    assert (reader.stats.errors, reader.stats.misses) == (1, 1)
    reader.close()

    counters = []
    for _ in range(2):
        with ContainmentEngine(persist=store_path) as engine:
            assert _fingerprints(engine.check_many(pairs, schema=schema)) == baseline
            store = engine.stats.store
            counters.append((store.hits, store.misses, store.errors, store.writes))
    assert counters == [(0, len(pairs), len(pairs), len(pairs)), (len(pairs), 0, 0, 0)]


def test_unpicklable_values_stay_memory_only(store_path):
    store = ResultStore(store_path)
    assert store.put("schema", "key", lambda: None) is False  # unpicklable
    assert store.stats.errors == 1
    assert store.put("schema", "key", {"fine": 1}) is True
    assert store.get("key") == {"fine": 1}
    store.close()


def test_put_many_writes_once_and_skips_existing_keys(store_path):
    store = ResultStore(store_path)
    assert store.put_many([("s", "a", 1), ("s", "b", 2)]) == 2
    # content-addressed: an existing key is never re-pickled or rewritten
    assert store.put_many([("s", "a", 9), ("t", "c", 3)]) == 1
    assert store.get("a") == 1
    assert store.count() == 3
    assert store.stats.writes == 3
    assert store.put_many([]) == 0
    assert store.delete_schema("s") == 2
    assert [entry["key"] for entry in store.entries()] == ["c"]
    store.close()
    assert store.put_many([("s", "d", 4)]) == 0  # disabled: no-op
    assert store.delete_schema("t") == 0


def test_closed_store_behaves_like_a_disabled_one(store_path):
    store = ResultStore(store_path)
    store.put("schema", "key", {"value": 1})
    store.close()
    assert store.disabled
    assert store.get("key") is None
    assert store.put("schema", "key2", {"value": 2}) is False
    assert store.count() == 0


def test_analyses_on_a_persisting_engine_reuse_the_store(store_path):
    """An analysis on ``ContainmentEngine(persist=...)`` files its
    containment verdicts in the store, and a later engine on the same file
    replays them instead of solving."""
    from repro.analysis import check_equivalence
    from repro.workloads import medical

    schema = medical.source_schema()
    with ContainmentEngine(persist=store_path) as engine:
        first = check_equivalence(medical.migration(), medical.migration(), schema, engine=engine)
    assert first.equivalent
    store = ResultStore(store_path, mode="ro")
    assert store.count() > 0  # verdicts survived the engine
    store.close()
    with ContainmentEngine(persist=store_path) as engine:
        second = check_equivalence(medical.migration(), medical.migration(), schema, engine=engine)
        stats = engine.stats
        # every call is a memory or store hit: nothing was solved or written
        assert stats.results.hits + stats.store.hits == second.containment_calls
        assert stats.store.misses == stats.store.writes == 0
    assert second.equivalent == first.equivalent


# --------------------------------------------------------------------------- #
# the process backend: the parent owns the store, workers open none
# --------------------------------------------------------------------------- #
def test_warm_process_batch_is_served_by_the_parent_store(store_path, medical_baseline):
    schema, pairs, baseline = medical_baseline
    with ContainmentEngine(persist=store_path) as warmer:
        warmer.check_many(pairs, schema=schema)

    with ContainmentEngine(persist=store_path, max_workers=2) as engine:
        results = engine.check_many(pairs, schema=schema, parallel="process")
        assert _fingerprints(results) == baseline
        assert engine.stats.store.hits == len(pairs)
        assert engine.stats.contains_calls == len(pairs)
        assert engine.process_stats() is None  # every request hit: no pool started


def test_workers_open_no_store(store_path):
    """A persisting engine's workers hold memory tiers only; the parent
    looks each request up once, before shipping, and writes back once."""
    schema, pairs = medical_batch()
    with ContainmentEngine(persist=store_path, max_workers=2) as engine:
        engine.check_many(pairs, schema=schema, parallel="process")
        stats = engine.stats
        assert (stats.store.hits, stats.store.misses, stats.store.writes) == (
            0, len(pairs), len(pairs),
        )
        assert stats.contains_calls == len(pairs)
        assert stats.results.misses == len(pairs)
        snapshots = engine.process_pool().worker_stats()
        assert len(snapshots) == 2
        assert all(snapshot.store is None for snapshot in snapshots)
        assert engine.process_stats().store is None


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


# --------------------------------------------------------------------------- #
# invalidation: rows name their schema, so any engine can reclaim them
# --------------------------------------------------------------------------- #
def _rows_by_schema(store_path):
    store = ResultStore(store_path, mode="ro")
    try:
        rows = {}
        for entry in store.entries():
            rows[entry["schema"]] = rows.get(entry["schema"], 0) + 1
        return rows
    finally:
        store.close()


def test_fresh_engine_invalidates_exactly_one_schemas_rows(store_path):
    medical_schema, medical_pairs = medical_batch()
    social_schema, social_pairs = social_batch()
    with ContainmentEngine(persist=store_path) as warmer:
        warmer.check_many(medical_pairs, schema=medical_schema)
        warmer.check_many(social_pairs, schema=social_schema)
    medical_fp = medical_schema.canonical_fingerprint()
    social_fp = social_schema.canonical_fingerprint()
    assert _rows_by_schema(store_path) == {
        medical_fp: len(medical_pairs), social_fp: len(social_pairs),
    }

    # a fresh engine knows no keys of either schema, yet names their rows
    with ContainmentEngine(persist=store_path) as fresh:
        report = fresh.invalidate_schema(medical_schema)
    assert report.store_rows == len(medical_pairs)
    assert report.total == 0  # its memory tiers were empty
    assert _rows_by_schema(store_path) == {social_fp: len(social_pairs)}


def test_invalidate_schema_removes_rows_solved_by_process_workers(store_path):
    medical_schema, medical_pairs = medical_batch()
    social_schema, social_pairs = social_batch()
    requests = [(left, right, medical_schema) for left, right in medical_pairs]
    requests += [(left, right, social_schema) for left, right in social_pairs]
    with ContainmentEngine(persist=store_path, max_workers=2) as engine:
        engine.check_many(requests, parallel="process")
        written = engine.stats.store.writes
    rows = _rows_by_schema(store_path)
    assert written == len(requests)
    assert sum(rows.values()) == written
    assert set(rows) == {medical_schema.canonical_fingerprint(), social_schema.canonical_fingerprint()}

    with ContainmentEngine(persist=store_path) as fresh:
        dropped = sum(
            fresh.invalidate_schema(schema).store_rows for schema in (medical_schema, social_schema)
        )
    assert dropped == written
    assert _rows_by_schema(store_path) == {}


# --------------------------------------------------------------------------- #
# pickled layouts: what a format-2 file written by an older library holds
# --------------------------------------------------------------------------- #
#: classes whose pickled layout changed within format 2: a signed label and
#: the seven statement kinds once pickled as a no-argument NEWOBJ followed by
#: a BUILD of their field dict, and now pickle as a NEWOBJ of their fields
_VALUE_TYPES = {("repro.graph.labels", "SignedLabel")} | {
    ("repro.dl.concepts", name)
    for name in (
        "SubclassOf", "SubclassOfBottom", "ForAllCI", "ExistsCI", "NoExistsCI",
        "AtMostOneCI", "DisjunctionCI",
    )
}


def _class_pushes(blob):
    """``((module, name), next opcode)`` for every global a pickle pushes,
    by GLOBAL, STACK_GLOBAL or a memo get."""
    import pickletools

    pushed = []  # what each pushing opcode put on the stack, as far as known
    memo = {}
    found = []
    pending = None  # a global whose following opcode is not yet known
    for opcode, arg, _ in pickletools.genops(blob):
        name = opcode.name
        if name == "MEMOIZE":
            memo[len(memo)] = pushed[-1]
            continue
        if name in ("PUT", "BINPUT", "LONG_BINPUT"):
            memo[arg] = pushed[-1]
            continue
        if pending is not None:
            found.append((pending, name))
            pending = None
        if name == "GLOBAL":
            value = tuple(arg.split(" ", 1))
        elif name == "STACK_GLOBAL":
            value = (pushed[-2], pushed[-1])
        elif name in ("GET", "BINGET", "LONG_BINGET"):
            value = memo[arg]
        else:
            value = arg if isinstance(arg, str) else None
        if name in ("GLOBAL", "STACK_GLOBAL") or (
            isinstance(value, tuple) and name.endswith("GET")
        ):
            pending = value
        pushed.append(value)
    return found


#: ``pickle.dumps(ExistsCI(conj("A"), forward("r"), conj("B")), 4)`` as the
#: library wrote it while statements and signed labels were dataclasses
_OLD_LAYOUT = (
    b"\x80\x04\x95\xaa\x00\x00\x00\x00\x00\x00\x00\x8c\x11repro.dl.concepts\x94\x8c\x08"
    b"ExistsCI\x94\x93\x94)\x81\x94}\x94(\x8c\x04body\x94(\x8c\x01A\x94\x91\x94\x8c\x04"
    b"role\x94\x8c\x12repro.graph.labels\x94\x8c\x0bSignedLabel\x94\x93\x94)\x81\x94}\x94("
    b"\x8c\x05label\x94\x8c\x01r\x94\x8c\tdirection\x94h\t\x8c\tDirection\x94\x93\x94\x8c"
    b"\x01+\x94\x85\x94R\x94ub\x8c\x04head\x94(\x8c\x01B\x94\x91\x94ub."
)


def test_the_scanner_flags_the_old_layout_which_no_longer_loads():
    from repro.dl.concepts import ExistsCI, conj
    from repro.graph.labels import forward

    old = [pair for pair in _class_pushes(_OLD_LAYOUT) if pair[0] in _VALUE_TYPES]
    assert old == [
        (("repro.dl.concepts", "ExistsCI"), "EMPTY_TUPLE"),
        (("repro.graph.labels", "SignedLabel"), "EMPTY_TUPLE"),
    ]
    with pytest.raises(TypeError):
        pickle.loads(_OLD_LAYOUT)
    statement = ExistsCI(conj("A"), forward("r"), conj("B"))
    new = [pair for pair in _class_pushes(pickle.dumps(statement, 4)) if pair[0] in _VALUE_TYPES]
    assert [value for value, _ in new] == [value for value, _ in old]
    assert all(following != "EMPTY_TUPLE" for _, following in new)


def test_store_rows_and_worker_replies_hold_no_value_type_in_the_old_layout(
    store_path, monkeypatch
):
    """A medical containment batch on the process backend with a store: its
    rows and its worker replies reference no signed label or statement at
    all (the lightened completion carries only a digest), so their tuple
    layout never reaches a row and needs no ``STORE_FORMAT_VERSION`` of its
    own (a row that held one would need a bump)."""
    from multiprocessing.reduction import ForkingPickler

    from repro.engine.parallel import WorkerPool

    replies = []
    receive = WorkerPool._receive

    def recording(self):
        message = receive(self)
        replies.append(bytes(ForkingPickler.dumps(message)))
        return message

    monkeypatch.setattr(WorkerPool, "_receive", recording)
    schema, pairs = medical_batch()
    with ContainmentEngine(persist=store_path, max_workers=2) as engine:
        results = engine.check_many(pairs, schema=schema, parallel="process")
    assert all(result.completion is not None for result in results)
    connection = sqlite3.connect(store_path)
    try:
        rows = [bytes(payload) for (payload,) in connection.execute("SELECT payload FROM entries")]
    finally:
        connection.close()
    assert len(rows) == len(pairs) and replies
    assert STORE_FORMAT_VERSION == 3

    pushed = [value for blob in rows + replies for value, _ in _class_pushes(blob)]
    assert ("repro.engine.parallel", "TBoxDigest") in pushed  # the scan sees the payloads
    assert [value for value in pushed if value in _VALUE_TYPES] == []
