"""The cheap worker transport: tokens and catalogs.

Unit tests exercise the wire pieces of ``repro.engine.transport`` directly;
the pool-level tests then force the interesting degradations — catalog
misses falling back to full payloads, schema references resolved from the
read-only store — and assert the invariant that makes all of it safe:
verdicts stay bit-identical to serial.
"""

import pytest

from repro.containment.solver import _as_union
from repro.engine import ContainmentEngine, TransportStats, WorkerTransportStats, result_fingerprint
from repro.engine.transport import (
    TokenCatalog,
    decode_payload,
    encode_payload,
    query_token,
    schema_token,
)
from repro.workloads.batches import containment_batch


def fingerprints(results):
    return [result_fingerprint(result) for result in results]


def contain_tokens(left, right, schema):
    """The (left, right, schema) wire tokens exactly as check_many builds them."""
    left, right = _as_union(left, "P"), _as_union(right, "Q")
    return (
        query_token(left.name, left.canonical_token()),
        query_token(right.name, right.canonical_token()),
        schema_token(schema.name, schema.canonical_fingerprint()),
    )


# --------------------------------------------------------------------------- #
# the token catalog
# --------------------------------------------------------------------------- #
def test_catalog_registers_resolves_and_evicts_lru():
    catalog = TokenCatalog(maxsize=2)
    catalog.register("a", 1)
    catalog.register("b", 2)
    assert catalog.resolve("a") == 1  # touches "a": "b" is now the LRU entry
    catalog.register("c", 3)
    assert "b" not in catalog and len(catalog) == 2
    assert catalog.resolve("b") is None
    assert catalog.resolve("a") == 1 and catalog.resolve("c") == 3


def test_catalog_rejects_a_nonpositive_bound():
    with pytest.raises(ValueError):
        TokenCatalog(maxsize=0)


# --------------------------------------------------------------------------- #
# encode / decode
# --------------------------------------------------------------------------- #
def test_first_send_ships_values_repeats_ship_references():
    schema, pairs = containment_batch("medical")
    payload = (*pairs[0], schema, None)
    tokens = contain_tokens(pairs[0][0], pairs[0][1], schema)
    seen, stats = set(), TransportStats()

    first = encode_payload(payload, tokens, seen, stats)
    assert [slot[0] for slot in first[:3]] == ["v", "v", "v"]
    second = encode_payload(payload, tokens, seen, stats)
    assert [slot[0] for slot in second[:3]] == ["r", "r", "r"]
    assert (stats.values_sent, stats.references_sent, stats.items) == (3, 3, 2)

    catalog, worker_stats = TokenCatalog(), WorkerTransportStats()
    decoded_first, missing = decode_payload(first, catalog, None, worker_stats)
    assert missing == [] and decoded_first[2] is schema
    decoded_second, missing = decode_payload(second, catalog, None, worker_stats)
    assert missing == [] and decoded_second[:3] == decoded_first[:3]
    assert worker_stats.values_registered == 3 and worker_stats.catalog_hits == 3


def test_force_values_resends_everything_and_reregisters():
    schema, pairs = containment_batch("medical")
    payload = (*pairs[0], schema, None)
    tokens = contain_tokens(pairs[0][0], pairs[0][1], schema)
    seen, stats = set(tokens), TransportStats()  # ledger says "already sent"
    encoded = encode_payload(payload, tokens, seen, stats, force_values=True)
    assert [slot[0] for slot in encoded[:3]] == ["v", "v", "v"]


def test_unresolvable_references_report_their_tokens():
    schema, pairs = containment_batch("medical")
    tokens = contain_tokens(pairs[0][0], pairs[0][1], schema)
    encoded = (("r", tokens[0]), ("r", tokens[1]), ("r", tokens[2]), None)
    worker_stats = WorkerTransportStats()
    payload, missing = decode_payload(encoded, TokenCatalog(), None, worker_stats)
    assert payload is None
    assert sorted(missing) == sorted(tokens)
    assert worker_stats.misses == 3


class SchemaShelf:
    """A minimal stand-in for the store's ``get("schemas", fingerprint)``."""

    def __init__(self, **by_fingerprint):
        self.by_fingerprint = by_fingerprint

    def get(self, tier, key):
        assert tier == "schemas"
        return self.by_fingerprint.get(key)


def test_schema_references_resolve_from_the_store_only_on_name_match():
    schema, _ = containment_batch("medical")
    fingerprint = schema.canonical_fingerprint()
    token = schema_token(schema.name, fingerprint)
    encoded = (("v", "q:left", 1), ("v", "q:right", 2), ("r", token), None)

    hit_stats = WorkerTransportStats()
    payload, missing = decode_payload(
        encoded, TokenCatalog(), SchemaShelf(**{fingerprint: schema}), hit_stats
    )
    assert missing == [] and payload[2] is schema
    assert hit_stats.store_hits == 1

    # same fingerprint under a different name must NOT resolve: the worker's
    # results would carry the wrong schema_name and change fingerprints
    renamed_token = schema_token("renamed", fingerprint)
    encoded = (("v", "q:left", 1), ("v", "q:right", 2), ("r", renamed_token), None)
    miss_stats = WorkerTransportStats()
    payload, missing = decode_payload(
        encoded, TokenCatalog(), SchemaShelf(**{fingerprint: schema}), miss_stats
    )
    assert payload is None and missing == [renamed_token]
    assert miss_stats.store_hits == 0 and miss_stats.misses == 1


# --------------------------------------------------------------------------- #
# the pool under degraded transport
# --------------------------------------------------------------------------- #
def poison_ledgers(pool, schema, pairs, queries=True):
    """Mark tokens as already-sent so the pool ships unresolvable references."""
    for left, right in pairs:
        left_token, right_token, token = contain_tokens(left, right, schema)
        for ledger in pool._seen_tokens:
            ledger.add(token)
            if queries:
                ledger.update((left_token, right_token))


def test_catalog_misses_fall_back_to_full_payloads():
    schema, pairs = containment_batch("medical")
    serial = ContainmentEngine().check_many(pairs[:3], schema=schema)
    engine = ContainmentEngine(max_workers=1)
    try:
        pool = engine.process_pool()
        pool.start()
        poison_ledgers(pool, schema, pairs[:3])
        results = engine.check_many(pairs[:3], schema=schema, parallel="process")
        assert fingerprints(results) == fingerprints(serial)
        assert pool.transport_stats.fallback_items >= 1
        assert pool.worker_transport().misses >= 1
        # the fallback re-registered everything: a replay is pure references
        references_before = pool.transport_stats.references_sent
        replay = engine.check_many(pairs[:3], schema=schema, parallel="process")
        assert fingerprints(replay) == fingerprints(serial)
        assert pool.transport_stats.references_sent > references_before
        assert pool.transport_stats.fallback_items == 3  # no new fallbacks
    finally:
        engine.shutdown()


def test_schema_references_resolve_from_the_shared_store(tmp_path):
    """A worker that never received the schema object finds it in the store's
    ``"schemas"`` tier — no miss round-trip, bit-identical verdicts."""
    store_path = tmp_path / "store.db"
    schema, pairs = containment_batch("social")
    serial = ContainmentEngine().check_many(pairs[:2], schema=schema)

    writer = ContainmentEngine(persist=store_path)
    try:  # one process batch persists the schema under its fingerprint
        writer.check_many(pairs[:2], schema=schema, parallel="process")
    finally:
        writer.shutdown()
        writer.close()

    engine = ContainmentEngine(max_workers=1, persist=store_path)
    try:
        pool = engine.process_pool()
        pool.start()
        # schema token "already sent", query tokens still ship as values
        poison_ledgers(pool, schema, pairs[:2], queries=False)
        results = engine.check_many(pairs[:2], schema=schema, parallel="process")
        assert fingerprints(results) == fingerprints(serial)
        assert pool.worker_transport().store_hits >= 1
        assert pool.transport_stats.fallback_items == 0
    finally:
        engine.shutdown()
        engine.close()


def test_serial_runs_compute_no_dfas():
    """The solver's automaton work is NFA-only, so a warm parent holds no
    computed DFA a worker could be spared — which is why nothing but the
    regex crosses the process boundary."""
    schema, pairs = containment_batch("medical")
    engine = ContainmentEngine()
    engine.check_many(pairs, schema=schema)
    with engine._lock:
        bundles = [bundle for _key, bundle in engine._automata.items()]
    assert bundles, "the serial run must have compiled automata"
    assert all(bundle._dfa is None and bundle._min_dfa is None for bundle in bundles)


def test_process_batch_from_a_warm_parent_matches_cold_serial():
    schema, pairs = containment_batch("medical")
    serial = ContainmentEngine().check_many(pairs, schema=schema)
    engine = ContainmentEngine(max_workers=1)
    try:
        engine.check_many(pairs, schema=schema)  # warm the parent's caches
        results = engine.check_many(pairs, schema=schema, parallel="process")
        assert fingerprints(results) == fingerprints(serial)
    finally:
        engine.shutdown()


def test_transport_report_shapes():
    import json

    schema, pairs = containment_batch("medical")
    engine = ContainmentEngine(max_workers=1)
    try:
        assert engine.transport_report() is None  # no pool yet
        engine.check_many(pairs[:2], schema=schema, parallel="process")
        report = engine.transport_report()
        assert report["parent"]["items"] == 2
        assert report["workers"] is None  # no stats collection yet
        engine.process_pool().worker_transport()
        report = engine.transport_report()
        assert report["workers"]["values_registered"] >= 1
        json.dumps(report)  # must serialise for /stats
    finally:
        engine.shutdown()
