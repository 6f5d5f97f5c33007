"""The serving layer: coalescing semantics, fingerprint identity against the
serial engine, transport behaviour (HTTP and stdio) and lifecycle ordering.

The central invariant extends the backend one: however requests reach the
engine — one client or many, coalesced or per-request, serial or process
backend, store on or off — every response must carry the exact
``result_fingerprint`` a bare serial ``check_many`` produces for the same
request."""

import json
import threading
import urllib.error
import urllib.request
from io import StringIO

import pytest

from repro.engine import ContainmentEngine, result_fingerprint
from repro.rpq.parser import parse_c2rpq
from repro.schema.parser import schema_to_text
from repro.service import (
    ContainmentService,
    RequestCoalescer,
    ServiceError,
    make_server,
    serve_stdio,
)
from repro.workloads import medical
from repro.workloads.streams import closed_loop, request_payloads, request_stream
from repro.workloads.zoo import evolution_corpus


def _fingerprints(results):
    return [result_fingerprint(result) for result in results]


@pytest.fixture(scope="module")
def small_stream():
    return request_stream(24, length=3)


@pytest.fixture(scope="module")
def stream_baseline(small_stream):
    with ContainmentEngine() as engine:
        results = engine.check_many([(left, right, schema) for left, right, schema in small_stream])
    return _fingerprints(results)


def _drive(service, stream, clients=6):
    """Closed-loop clients over *stream*; returns per-request fingerprints."""
    results = closed_loop(
        stream,
        lambda request: service.coalescer.check(request[0], request[1], request[2]),
        clients=clients,
    )
    return _fingerprints(results)


# --------------------------------------------------------------------------- #
# the tentpole invariant: service == serial engine, bit for bit
# --------------------------------------------------------------------------- #
def test_coalesced_service_matches_serial_fingerprints(small_stream, stream_baseline):
    with ContainmentService(coalesce_window=0.01, max_batch=16) as service:
        assert _drive(service, small_stream) == stream_baseline
        stats = service.coalescer.stats
        assert stats.submitted == len(small_stream)
        assert stats.batches < len(small_stream)  # concurrency really coalesced
        assert stats.deduplicated > 0  # the stream's hot repeats merged


def test_process_backend_service_with_persist_matches_serial(
    tmp_path, small_stream, stream_baseline
):
    """The full serving stack — coalescer, process pool, persistent store —
    answers bit-identically to the serial engine, and its verdicts land on
    disk for the next process to warm-start from."""
    store_path = tmp_path / "service-store.db"
    with ContainmentService(
        parallel="process", workers=2, persist=store_path, coalesce_window=0.01, max_batch=16
    ) as service:
        assert _drive(service, small_stream) == stream_baseline
        assert service.engine.stats.store.writes > 0
    # the store outlives the service: a cold engine replays from disk
    with ContainmentEngine(persist=store_path) as reader:
        results = reader.check_many(
            [(left, right, schema) for left, right, schema in small_stream]
        )
        assert _fingerprints(results) == stream_baseline
        assert reader.stats.store.hits > 0


# --------------------------------------------------------------------------- #
# coalescer edge cases
# --------------------------------------------------------------------------- #
def test_duplicate_in_flight_requests_are_decided_once():
    schema = medical.source_schema()
    left = parse_c2rpq("p(x) := (designTarget)(x, y)")
    right = parse_c2rpq("q(x) := Vaccine(x)")
    engine = ContainmentEngine()
    with RequestCoalescer(engine, window=0.05, max_batch=32) as coalescer:
        futures = [coalescer.submit(left, right, schema) for _ in range(6)]
        results = [future.result(timeout=30) for future in futures]
    assert len({result_fingerprint(result) for result in results}) == 1
    assert coalescer.stats.submitted == 6
    assert coalescer.stats.unique == 1
    assert coalescer.stats.deduplicated == 5
    # one engine call decided all six (the others shared the leader)
    assert engine.stats.contains_calls == 1
    engine.close()


def test_window_closing_on_a_single_request_flushes_it():
    """An "empty" window — nobody else showed up — must not delay or drop
    the lone request."""
    schema = medical.source_schema()
    left = parse_c2rpq("p(x) := (designTarget)(x, y)")
    right = parse_c2rpq("q(x) := Vaccine(x)")
    with ContainmentEngine() as engine:
        with RequestCoalescer(engine, window=0.005, max_batch=64) as coalescer:
            result = coalescer.check(left, right, schema, timeout=30)
            assert result.contained
            assert coalescer.stats.batches == 1
            assert coalescer.stats.largest_batch == 1


def test_oversized_waves_split_into_max_batch_chunks(small_stream):
    with ContainmentEngine() as engine:
        with RequestCoalescer(engine, window=0.2, max_batch=4) as coalescer:
            futures = [
                coalescer.submit(left, right, schema) for left, right, schema in small_stream
            ]
            for future in futures:
                future.result(timeout=60)
    stats = coalescer.stats
    assert stats.largest_batch <= 4
    assert stats.batches >= len(small_stream) // 4
    assert stats.submitted == len(small_stream)


def test_zero_window_disables_waiting():
    schema = medical.source_schema()
    left = parse_c2rpq("p(x) := (designTarget)(x, y)")
    right = parse_c2rpq("q(x) := Vaccine(x)")
    with ContainmentEngine() as engine:
        with RequestCoalescer(engine, window=0.0, max_batch=1) as coalescer:
            for _ in range(3):
                coalescer.check(left, right, schema, timeout=30)
            assert coalescer.stats.largest_batch == 1
            assert coalescer.stats.batches == 3


def test_closed_coalescer_rejects_submissions_but_drains_in_flight():
    schema = medical.source_schema()
    left = parse_c2rpq("p(x) := (designTarget)(x, y)")
    right = parse_c2rpq("q(x) := Vaccine(x)")
    with ContainmentEngine() as engine:
        coalescer = RequestCoalescer(engine, window=0.05, max_batch=8)
        future = coalescer.submit(left, right, schema)
        coalescer.close()
        assert future.result(timeout=30).contained  # accepted before close: answered
        with pytest.raises(RuntimeError, match="has been closed"):
            coalescer.submit(left, right, schema)
        coalescer.close()  # idempotent


def test_engine_failures_reach_every_waiting_future():
    schema = medical.source_schema()
    left = parse_c2rpq("p(x) := (designTarget)(x, y)")
    right = parse_c2rpq("q(x) := Vaccine(x)")
    engine = ContainmentEngine()
    engine.close()  # a dead engine: check_many raises use-after-close
    coalescer = RequestCoalescer(engine, window=0.02, max_batch=8)
    futures = [coalescer.submit(left, right, schema) for _ in range(2)]
    for future in futures:
        with pytest.raises(RuntimeError, match="has been closed"):
            future.result(timeout=30)
    coalescer.close()


def test_coalescer_validates_its_parameters():
    with ContainmentEngine() as engine:
        with pytest.raises(ValueError, match="window"):
            RequestCoalescer(engine, window=-0.001)
        with pytest.raises(ValueError, match="max_batch"):
            RequestCoalescer(engine, max_batch=0)
        # a bad backend fails here, not in every check() at flush time
        for bad in ("auto ", "auto", "thread"):
            with pytest.raises(ValueError, match="expected 'serial' or 'process'"):
                RequestCoalescer(engine, parallel=bad, window=0.0)


# --------------------------------------------------------------------------- #
# the service facade: payload parsing, rendering, lifecycle
# --------------------------------------------------------------------------- #
def test_service_parses_payloads_and_caches_schema_text():
    payloads = request_payloads(8, length=3)
    with ContainmentService() as service:
        responses = service.handle_many(payloads)
        assert all(len(response["fingerprint"]) == 64 for response in responses)
        parse_stats = service.stats_report()["service"]["parse_caches"]
        # four distinct schema texts, repeated across eight requests
        assert parse_stats["parsed-schemas"]["hits"] > 0


def test_service_accepts_builtin_workload_payloads():
    with ContainmentService() as service:
        response = service.handle(
            {
                "workload": "medical",
                "left": "p(x) := (designTarget)(x, y)",
                "right": "q(x) := Vaccine(x)",
                "id": "req-1",
            }
        )
    assert response["contained"] is True
    assert response["id"] == "req-1"


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"left": "p(x) := A(x)", "right": "q(x) := A(x)"}, "schema"),
        ({"schema": "schema S { nodes A; }", "right": "q(x) := A(x)"}, "left"),
        ({"schema": "not a schema", "left": "p(x) := A(x)", "right": "q(x) := A(x)"}, "parse"),
        ({"workload": "nope", "left": "p(x) := A(x)", "right": "q(x) := A(x)"}, "workload"),
        ({"schema": 7, "left": "p(x) := A(x)", "right": "q(x) := A(x)"}, "DSL"),
        (
            {"workload": "synthetic", "length": "4", "left": "p(x) := A(x)",
             "right": "q(x) := A(x)"},
            "length",
        ),
        (
            {"workload": "synthetic", "length": [4], "left": "p(x) := A(x)",
             "right": "q(x) := A(x)"},
            "length",
        ),
    ],
)
def test_service_rejects_malformed_payloads(payload, message):
    with ContainmentService() as service:
        with pytest.raises(ServiceError, match=message):
            service.submit(payload)
        # malformed requests never reach the coalescer
        assert service.coalescer.stats.submitted == 0


def test_service_defaults_to_serial_without_pool_blocks():
    with ContainmentService(coalesce_window=0.0) as service:
        assert service.backend == "serial"
        response = service.handle(
            {"workload": "medical", "left": "p(x) := Antigen(x)", "right": "q(x) := Antigen(x)"}
        )
        assert response["contained"] is True
        report = service.stats_report()
        for key in ("adaptive", "workers", "transport"):
            assert key not in report, key


def test_closed_service_rejects_requests():
    service = ContainmentService()
    service.close()
    with pytest.raises(RuntimeError, match="has been closed"):
        service.submit({"workload": "medical", "left": "p(x) := A(x)", "right": "q(x) := A(x)"})
    assert service.healthz()["status"] == "closed"
    service.close()  # idempotent
    with pytest.raises(RuntimeError, match="has been closed"):
        with service:
            pass  # pragma: no cover


def test_service_borrowing_an_engine_leaves_it_open():
    with ContainmentEngine() as engine:
        service = ContainmentService(engine=engine)
        service.handle(
            {"workload": "medical", "left": "p(x) := (designTarget)(x, y)",
             "right": "q(x) := Vaccine(x)"}
        )
        service.close()
        assert not engine.closed  # the borrower must not tear down its host
        assert engine.stats.contains_calls == 1


# --------------------------------------------------------------------------- #
# POST /schema-update: a schema update is an invalidation of the old schema
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def update_corpus():
    old_schema, new_schema, pairs = evolution_corpus(queries=4)
    texts = [schema_to_text(schema) for schema in (old_schema, new_schema)]
    return (*texts, pairs, schema_to_text(old_schema.copy(name="renamed")))


def _update_payloads(schema_text, pairs):
    return [
        {"schema": schema_text, "left": str(left), "right": str(right)} for left, right in pairs
    ]


def test_schema_update_of_a_rename_is_trivial_and_keeps_the_cache(update_corpus):
    old_text, _, pairs, renamed_text = update_corpus
    assert renamed_text != old_text
    with ContainmentService(coalesce_window=0.0) as service:
        service.handle_many(_update_payloads(old_text, pairs))
        reply = service.schema_update({"old": old_text, "new": renamed_text, "id": "u1"})
        assert reply["evolved"] is True and reply["trivial"] is True
        assert reply["new_fingerprint"] == reply["schema_fingerprint"]
        assert reply["total"] == 0 and reply["store_rows"] == 0
        assert reply["id"] == "u1"
        hits_before = service.engine.stats.results.hits
        service.handle_many(_update_payloads(renamed_text, pairs))
        assert service.engine.stats.results.hits == hits_before + len(pairs)


def test_schema_update_drops_the_old_namespace_and_matches_a_cold_service(update_corpus):
    old_text, new_text, pairs, _ = update_corpus
    new_payloads = _update_payloads(new_text, pairs)
    with ContainmentService(coalesce_window=0.0) as service:
        service.handle_many(_update_payloads(old_text, pairs))
        reply = service.schema_update({"old": old_text, "new": new_text})
        assert reply["evolved"] is True and reply["trivial"] is False
        assert reply["new_fingerprint"] != reply["schema_fingerprint"]
        assert reply["invalidated"]["results"] == len(pairs)
        assert reply["invalidated"]["completions"] > 0
        # nothing of the old namespace is left behind
        assert service.schema_update({"old": old_text, "new": new_text})["total"] == 0
        updated = [response["fingerprint"] for response in service.handle_many(new_payloads)]
    with ContainmentService(coalesce_window=0.0) as cold:
        fresh = [response["fingerprint"] for response in cold.handle_many(new_payloads)]
    assert updated == fresh


@pytest.mark.parametrize("payload", [{"new": "schema S { nodes A; }"}, {"old": "x"}, {}, []])
def test_schema_update_rejects_incomplete_payloads(payload):
    with ContainmentService() as service:
        with pytest.raises(ServiceError):
            service.schema_update(payload)
        assert service.stats_report()["service"]["schema_updates"] == 0


# --------------------------------------------------------------------------- #
# HTTP transport
# --------------------------------------------------------------------------- #
@pytest.fixture()
def http_server():
    service = ContainmentService(coalesce_window=0.005, max_batch=16)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.close()
    thread.join(timeout=10)


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


def test_http_contain_healthz_and_stats(http_server):
    url = http_server.url
    payloads = request_payloads(6, length=3)

    status, response = _post(url + "/contain", payloads[0])
    assert status == 200
    assert len(response["fingerprint"]) == 64

    status, batch = _post(url + "/batch", {"requests": payloads})
    assert status == 200
    assert len(batch["results"]) == len(payloads)

    with urllib.request.urlopen(url + "/healthz", timeout=30) as response:
        health = json.loads(response.read())
    assert health["status"] == "ok"
    assert health["requests"] >= 1 + len(payloads)

    with urllib.request.urlopen(url + "/stats", timeout=30) as response:
        stats = json.loads(response.read())
    assert stats["coalescer"]["submitted"] >= 1 + len(payloads)
    assert "engine" in stats and "service" in stats


def test_http_schema_update_is_counted_in_stats(http_server, update_corpus):
    old_text, new_text, _, _ = update_corpus
    status, reply = _post(http_server.url + "/schema-update", {"old": old_text, "new": new_text})
    assert status == 200 and reply["trivial"] is False
    with urllib.request.urlopen(http_server.url + "/stats", timeout=30) as response:
        stats = json.loads(response.read())
    assert stats["service"]["schema_updates"] == 1
    assert stats["evolve"] == reply


def test_http_concurrent_clients_match_serial_fingerprints(
    http_server, small_stream, stream_baseline
):
    url = http_server.url
    payloads = request_payloads(24, length=3)  # the same stream, as wire payloads
    responses = closed_loop(
        payloads, lambda payload: _post(url + "/contain", payload), clients=6
    )
    assert all(status == 200 for status, _ in responses)
    assert [response["fingerprint"] for _, response in responses] == stream_baseline


def test_http_error_responses(http_server):
    url = http_server.url
    with pytest.raises(urllib.error.HTTPError) as bad_request:
        _post(url + "/contain", {"left": "p(x) := A(x)"})
    assert bad_request.value.code == 400
    assert "error" in json.loads(bad_request.value.read())

    with pytest.raises(urllib.error.HTTPError) as not_found:
        _post(url + "/nope", {})
    assert not_found.value.code == 404

    with pytest.raises(urllib.error.HTTPError) as bad_batch:
        _post(url + "/batch", {"not-requests": []})
    assert bad_batch.value.code == 400

    with pytest.raises(urllib.error.HTTPError) as unknown_get:
        urllib.request.urlopen(url + "/unknown", timeout=30)
    assert unknown_get.value.code == 404

    empty = urllib.request.Request(url + "/contain", data=b"", method="POST")
    with pytest.raises(urllib.error.HTTPError) as empty_body:
        urllib.request.urlopen(empty, timeout=30)
    assert empty_body.value.code == 400


def test_http_server_close_without_serve_forever_does_not_deadlock():
    service = ContainmentService()
    server = make_server(service)
    server.close()  # serve_forever never ran; must not hang on shutdown()
    assert service.closed


def test_closed_loop_driver_surfaces_client_failures():
    def flaky(item):
        if item == 2:
            raise ValueError("boom")
        return item * 10

    with pytest.raises(RuntimeError, match="failed on item 2") as failure:
        closed_loop([0, 1, 2, 3], flaky, clients=2)
    assert isinstance(failure.value.__cause__, ValueError)
    assert closed_loop([0, 1, 2], lambda item: item + 1, clients=2) == [1, 2, 3]
    with pytest.raises(ValueError, match="at least one client"):
        closed_loop([1], lambda item: item, clients=0)


# --------------------------------------------------------------------------- #
# stdio transport
# --------------------------------------------------------------------------- #
def test_stdio_answers_in_input_order_with_control_ops(stream_baseline):
    payloads = request_payloads(24, length=3)
    lines = [json.dumps(payload) for payload in payloads]
    lines.insert(0, json.dumps({"op": "healthz"}))
    lines.append("definitely not json")
    lines.append(json.dumps({"op": "stats"}))
    lines.append(json.dumps({"op": "shutdown"}))
    output = StringIO()
    with ContainmentService(coalesce_window=0.002, max_batch=8) as service:
        counts = serve_stdio(service, StringIO("\n".join(lines) + "\n"), output)
    responses = [json.loads(line) for line in output.getvalue().splitlines()]

    assert counts["requests"] == len(payloads)
    assert responses[0]["status"] == "ok"  # healthz first, order preserved
    body = responses[1 : 1 + len(payloads)]
    assert [response["fingerprint"] for response in body] == stream_baseline
    assert "invalid JSON line" in responses[1 + len(payloads)]["error"]
    assert "coalescer" in responses[2 + len(payloads)]
    assert responses[-1] == {"ok": True}
    assert counts["errors"] == 1


def test_stdio_reports_unknown_ops_and_bad_payloads():
    lines = [
        json.dumps({"op": "conquer"}),
        json.dumps([1, 2, 3]),
        json.dumps({"op": "check", "left": "p(x) := A(x)"}),
        json.dumps({"op": "shutdown"}),
    ]
    output = StringIO()
    with ContainmentService() as service:
        serve_stdio(service, StringIO("\n".join(lines) + "\n"), output)
    responses = [json.loads(line) for line in output.getvalue().splitlines()]
    assert "unknown op" in responses[0]["error"]
    assert "JSON object" in responses[1]["error"]
    assert "schema" in responses[2]["error"]
    assert responses[3] == {"ok": True}


def test_service_constructor_failure_closes_its_own_engine(tmp_path):
    """A half-built service must not leak the engine (or its store handle)."""
    store_path = tmp_path / "leak-check.db"
    with pytest.raises(ValueError, match="unknown backend"):
        ContainmentService(parallel="warp", persist=store_path)
    # the store file is closed and re-openable read-write immediately
    with ContainmentEngine(persist=store_path) as engine:
        assert not engine.store.disabled


def test_handle_many_rejects_malformed_batches_before_any_work():
    with ContainmentService() as service:
        good = {"workload": "medical", "left": "p(x) := (designTarget)(x, y)",
                "right": "q(x) := Vaccine(x)"}
        with pytest.raises(ServiceError, match="missing the 'right' query"):
            service.handle_many([good, {"workload": "medical", "left": "p(x) := A(x)"}])
        # the valid payload was never queued: nothing reached the coalescer
        assert service.coalescer.stats.submitted == 0


def test_oversized_wave_overflow_flushes_without_a_fresh_window():
    schema = medical.source_schema()
    lefts = [parse_c2rpq(f"p{i}(x) := (designTarget)(x, y)") for i in range(5)]
    right = parse_c2rpq("q(x) := Vaccine(x)")
    with ContainmentEngine() as engine:
        # a window far longer than the test: if the overflow waited a fresh
        # window per tail item, the waits alone would exceed the timeout
        with RequestCoalescer(engine, window=5.0, max_batch=2) as coalescer:
            futures = [coalescer.submit(left, right, schema) for left in lefts]
            import time as _time

            started = _time.perf_counter()
            for future in futures:
                future.result(timeout=30)
            elapsed = _time.perf_counter() - started
    assert coalescer.stats.batches >= 3  # 5 requests through batches of <= 2
    assert elapsed < 10.0, "overflow batches waited fresh coalescing windows"


def test_duplicate_waiters_get_independent_witness_copies():
    """A duplicate's counterexample graph is the client's to mutate — never
    shared with another waiter or with the engine's cached object."""
    from repro.containment import ContainmentConfig

    schema = medical.source_schema()
    left = parse_c2rpq("p(x) := Antigen(x)")  # not contained: carries a counterexample
    right = parse_c2rpq("q(x) := Vaccine(x)")
    config = ContainmentConfig(search_finite_counterexample=True)
    with ContainmentEngine() as engine:
        with RequestCoalescer(engine, window=0.05, max_batch=8) as coalescer:
            futures = [coalescer.submit(left, right, schema, config) for _ in range(3)]
            results = [future.result(timeout=30) for future in futures]
    assert len({result_fingerprint(result) for result in results}) == 1
    graphs = [result.finite_counterexample.graph for result in results]
    assert graphs[0] is not graphs[1] and graphs[1] is not graphs[2]


def test_duplicates_across_renamed_schemas_keep_their_own_names():
    """Schema fingerprints ignore names, so the coalescer merges requests
    whose schemas differ only by name; every waiter still gets its own
    schema's name and the serial fingerprint."""
    source = medical.source_schema()
    schemas = [source.copy(name="A"), source.copy(name="B")]
    left = parse_c2rpq("p(x) := (designTarget)(x, y)")
    right = parse_c2rpq("q(x) := Vaccine(x)")
    with ContainmentEngine() as engine:
        serial = [engine.contains(left, right, schema) for schema in schemas]
    with ContainmentEngine() as engine:
        with RequestCoalescer(engine, window=0.05, max_batch=8) as coalescer:
            futures = [coalescer.submit(left, right, schema) for schema in schemas]
            results = [future.result(timeout=30) for future in futures]
        assert coalescer.stats.deduplicated == 1
    assert [result.schema_name for result in results] == ["A", "B"]
    assert _fingerprints(results) == _fingerprints(serial)


def test_http_invalid_content_length_is_a_400_not_a_500(http_server):
    """A malformed Content-Length (duplicate headers folded by a proxy) must
    be a client error, and the desynced connection must not be reused."""
    import http.client

    connection = http.client.HTTPConnection("127.0.0.1", http_server.port, timeout=30)
    try:
        connection.putrequest("POST", "/contain")
        connection.putheader("Content-Length", "67, 67")
        connection.endheaders()
        connection.send(b"x" * 67)
        response = connection.getresponse()
        assert response.status == 400
        assert "Content-Length" in json.loads(response.read())["error"]
        assert response.will_close  # the body was never read: no keep-alive
    finally:
        connection.close()
