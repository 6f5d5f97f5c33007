"""The worker transport: tokens, catalogs and the mirror invariant.

Unit tests exercise the wire pieces of ``repro.engine.transport`` directly,
a property test checks that the parent's ledger and the worker's catalog
stay exact mirrors (so every reference resolves), and the pool-level tests
assert the invariant that makes references safe: verdicts and the names
they carry stay bit-identical to serial.
"""

import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.containment.solver import _as_union
from repro.engine import ContainmentEngine, TransportStats, result_fingerprint
from repro.engine.transport import (
    TokenCatalog,
    decode_payload,
    encode_payload,
    query_token,
    schema_token,
)
from repro.rpq.queries import C2RPQ
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
    assert list(catalog) == ["a", "c"]
    with pytest.raises(KeyError):
        catalog.resolve("b")
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
    ledger, stats = TokenCatalog(), TransportStats()

    first = encode_payload(payload, tokens, ledger, stats)
    assert [slot[0] for slot in first[:3]] == ["v", "v", "v"]
    second = encode_payload(payload, tokens, ledger, stats)
    assert [slot[0] for slot in second[:3]] == ["r", "r", "r"]
    assert (stats.values_sent, stats.references_sent, stats.items) == (3, 3, 2)

    catalog = TokenCatalog()
    decoded_first = decode_payload(first, catalog)
    assert decoded_first[2] is schema
    decoded_second = decode_payload(second, catalog)
    assert decoded_second[:3] == decoded_first[:3]
    assert list(catalog) == list(ledger)


def test_unresolvable_references_report_their_tokens():
    """A reference the catalog lacks means the mirror broke: it raises,
    naming the token, instead of resolving to anything."""
    schema, pairs = containment_batch("medical")
    tokens = contain_tokens(pairs[0][0], pairs[0][1], schema)
    encoded = (("r", tokens[0]), ("r", tokens[1]), ("r", tokens[2]), None)
    with pytest.raises(KeyError, match="q:"):
        decode_payload(encoded, TokenCatalog())


QUERY_TOKENS = [f"q:{index}" for index in range(5)]
SCHEMA_TOKENS = [f"s:{index}" for index in range(3)]

payload_slots = st.tuples(
    st.sampled_from(QUERY_TOKENS),
    st.sampled_from(QUERY_TOKENS),
    st.sampled_from(SCHEMA_TOKENS),
    st.booleans(),  # P ⊆ P: the right slot repeats the left one's token
)


@settings(max_examples=200, deadline=None)
@given(
    maxsize=st.integers(min_value=2, max_value=4),
    chunks=st.lists(st.lists(payload_slots, min_size=1, max_size=6), min_size=1, max_size=5),
)
def test_ledger_mirrors_the_worker_catalog(maxsize, chunks):
    """The parent encodes a whole chunk, then the worker decodes it in order:
    after every payload both LRUs hold the same tokens in the same order,
    every reference resolves, and the decoded payload is the original."""
    values = {token: object() for token in QUERY_TOKENS + SCHEMA_TOKENS}
    ledger, catalog = TokenCatalog(maxsize), TokenCatalog(maxsize)
    stats = TransportStats()
    for chunk in chunks:
        wire = []
        for left, right, schema, same in chunk:
            right = left if same else right
            payload = (values[left], values[right], values[schema], "config")
            encoded = encode_payload(payload, (left, right, schema), ledger, stats)
            wire.append((payload, encoded, list(ledger)))
        for payload, encoded, ledger_after in wire:
            decoded = decode_payload(encoded, catalog)
            assert all(got is want for got, want in zip(decoded, payload))
            assert list(catalog) == ledger_after
    assert stats.references_sent + stats.values_sent == 3 * stats.items
    assert stats.fallback_items == 0


# --------------------------------------------------------------------------- #
# the pool
# --------------------------------------------------------------------------- #
def renamed(query, name):
    return C2RPQ(query.atoms, query.free_variables, name=name)


def test_same_fingerprint_schemas_and_renamed_queries_keep_their_names():
    """Fingerprints ignore names, tokens do not: a schema under two names and
    renamed queries go through one pool, and every result carries its own
    names and the serial fingerprint — first as values, then as references."""
    schema, pairs = containment_batch("medical")
    alias = schema.copy(name="alias")
    assert alias.canonical_fingerprint() == schema.canonical_fingerprint()
    left, right = pairs[0]
    requests = [
        (left, right, schema),
        (left, right, alias),
        (renamed(left, "left-alias"), right, schema),
        (left, renamed(right, "right-alias"), alias),
    ]
    serial = [ContainmentEngine().contains(*request) for request in requests]
    engine = ContainmentEngine(max_workers=1)
    try:
        for _ in range(2):
            engine.clear()  # a warm parent would answer the second pass itself
            results = engine.check_many(requests, parallel="process")
            assert fingerprints(results) == fingerprints(serial)
            assert [(r.schema_name, r.left_name, r.right_name) for r in results] == [
                (schema.name, left.name, right.name),
                ("alias", left.name, right.name),
                (schema.name, "left-alias", right.name),
                ("alias", left.name, "right-alias"),
            ]
        stats = engine.process_pool().transport_stats
        assert stats.values_sent == 6  # four query tokens and two schema tokens, once each
        assert stats.references_sent == 3 * 8 - 6
    finally:
        engine.shutdown()


def test_transport_report_shapes():
    schema, pairs = containment_batch("medical")
    engine = ContainmentEngine(max_workers=1)
    try:
        assert engine.transport_report() is None  # no pool yet
        engine.check_many(pairs[:2], schema=schema, parallel="process")
        report = engine.transport_report()
        assert set(report) == {
            "items", "references_sent", "values_sent", "fallback_items", "seed_bytes",
        }
        assert report["items"] == 2
        assert report["references_sent"] + report["values_sent"] == 6
        assert report["fallback_items"] == report["seed_bytes"] == 0
        json.dumps(report)  # must serialise for /stats
    finally:
        engine.shutdown()
