"""The ``python -m repro`` command line: subcommand behaviour, report
formats, spec-file loading and argument validation."""

import json

import pytest

from repro.cli import main
from repro.schema.parser import schema_to_text
from repro.workloads import medical
from repro.workloads.batches import containment_batch


def test_contain_text_summary(capsys):
    code = main(
        [
            "contain",
            "--left", "p(x) := (designTarget . crossReacting*)(x, y)",
            "--right", "q(x) := Vaccine(x)",
        ]
    )
    assert code == 0
    assert "⊆" in capsys.readouterr().out


def test_contain_json_report_to_stdout(capsys):
    code = main(
        [
            "contain",
            "--workload", "synthetic",
            "--length", "3",
            "--left", "p(x) := (e0 . e1)(x, y)",
            "--right", "q(x) := L0(x)",
            "--json", "-",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["contained"] is True
    assert report["schema"] == "Chain3"
    assert len(report["fingerprint"]) == 64


def test_contain_reads_schema_files(tmp_path, capsys):
    schema_file = tmp_path / "schema.txt"
    schema_file.write_text(schema_to_text(medical.source_schema()), encoding="utf-8")
    code = main(
        [
            "contain",
            "--schema-file", str(schema_file),
            "--left", "p(x) := Antigen(x)",
            "--right", "q(x) := Vaccine(x)",
            "--json", "-",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["contained"] is False


@pytest.mark.parametrize(
    "workload, variant, expected_code, expected_well_typed",
    [("medical", "default", 0, True), ("medical", "broken", 1, False), ("social", "default", 0, True)],
)
def test_typecheck_workloads(capsys, workload, variant, expected_code, expected_well_typed):
    code = main(["typecheck", "--workload", workload, "--variant", variant, "--json", "-"])
    assert code == expected_code
    report = json.loads(capsys.readouterr().out)
    assert report["well_typed"] is expected_well_typed
    if not expected_well_typed:
        assert report["failed_statements"]


def test_typecheck_synthetic_has_no_migration():
    with pytest.raises(SystemExit):
        main(["typecheck", "--workload", "synthetic"])


def test_batch_json_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(["batch", "--workload", "medical", "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["backend"] == "serial"
    assert report["tasks"] == report["verdicts"]["contained"] + report["verdicts"]["not_contained"]
    assert report["stats"]["engine"]["contains_calls"] == report["tasks"]
    assert len(report["fingerprint"]) == 64


def test_batch_repeat_reports_the_warm_run(capsys):
    code = main(["batch", "--workload", "social", "--repeat", "2", "--json", "-"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    # the second pass is served from the result cache
    assert report["stats"]["engine"]["caches"]["results"]["hits"] >= report["tasks"]


def test_batch_loads_spec_files(tmp_path, capsys):
    spec = {
        "schema": schema_to_text(medical.source_schema()),
        "pairs": [
            {"left": "p(x) := (designTarget)(x, y)", "right": "q(x) := Vaccine(x)"},
            {"left": "p2(x) := Antigen(x)", "right": "q(x) := Vaccine(x)"},
        ],
    }
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec), encoding="utf-8")
    code = main(["batch", "--spec", str(spec_file), "--json", "-"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tasks"] == 2
    assert report["verdicts"] == {"contained": 1, "not_contained": 1}


def test_batch_rejects_malformed_specs(tmp_path):
    spec_file = tmp_path / "bad.json"
    spec_file.write_text(json.dumps({"schema": "schema S { nodes A; }"}), encoding="utf-8")
    with pytest.raises(SystemExit):
        main(["batch", "--spec", str(spec_file)])


def test_unknown_subcommand_exits_with_usage():
    with pytest.raises(SystemExit):
        main(["conquer"])


@pytest.mark.parametrize(
    "argv",
    [
        ["batch", "--backend", "process", "--workers", "-1"],
        ["batch", "--repeat", "0"],
        ["batch", "--length", "many"],
        ["bench", "--requests", "0"],
        ["bench", "--clients", "0"],
        ["bench", "--max-batch", "-3"],
        ["serve", "--stdio", "--max-batch", "0"],
        ["replay", "--record", "trace.ndjson", "--tenants", "0"],
    ],
    ids=["batch-workers", "batch-repeat", "batch-length", "bench-requests", "bench-clients",
         "bench-max-batch", "serve-max-batch", "replay-tenants"],
)
def test_count_flags_reject_non_positive_values(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["bench", "--suite", "zoo"], ["bench", "--backends", "serial"]], ids=["suite", "backends"]
)
def test_bench_rejects_the_retired_suite_flags(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_batch_with_persist_reports_and_reuses_the_store(tmp_path, capsys):
    store_file = tmp_path / "store.db"
    assert main(["batch", "--workload", "social", "--persist", str(store_file)]) == 0
    capsys.readouterr()
    code = main(["batch", "--workload", "social", "--persist", str(store_file), "--json", "-"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stats"]["engine"]["store"]["hits"] == report["tasks"]
    assert report["store"]["entries"] == report["tasks"]


def test_warm_process_batch_starts_no_pool(tmp_path, capsys):
    argv = ["batch", "--workload", "social", "--backend", "process", "--workers", "2",
            "--persist", str(tmp_path / "v.db"), "--json", "-"]
    assert main(argv) == 0
    cold = json.loads(capsys.readouterr().out)
    assert "workers" in cold["stats"]
    assert main(argv) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["stats"]["engine"]["store"]["hits"] == warm["tasks"]
    assert "workers" not in warm["stats"] and "transport" not in warm["stats"]
    assert warm["fingerprint"] == cold["fingerprint"]


def test_cache_subcommand_round_trip(tmp_path, capsys):
    store_file = tmp_path / "cache.db"

    assert main(["cache", "warm", "--persist", str(store_file), "--workload", "medical"]) == 0
    assert "warmed with medical" in capsys.readouterr().out

    assert main(["cache", "stats", "--persist", str(store_file), "--json", "-"]) == 0
    stats_report = json.loads(capsys.readouterr().out)
    assert stats_report["entries"] == 15
    assert stats_report["disabled"] is False

    assert main(["cache", "export", "--persist", str(store_file)]) == 0
    export_report = json.loads(capsys.readouterr().out)
    assert len(export_report["entries"]) == 15
    schema, _ = containment_batch("medical")
    assert {entry["schema"] for entry in export_report["entries"]} == {
        schema.canonical_fingerprint(),
    }

    assert main(["cache", "clear", "--persist", str(store_file)]) == 0
    assert "dropped 15 entries" in capsys.readouterr().out
    assert main(["cache", "stats", "--persist", str(store_file), "--json", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == 0


def test_cache_invalidate_schema_file_after_warm(tmp_path, capsys):
    """``cache invalidate --schema-file`` reports against the file's schema.

    The CLI's engine is fresh, so its in-memory tiers drop nothing; the
    store rows name their schema, so all 15 verdicts the warm wrote leave
    the file.
    """
    store_file = tmp_path / "cache.db"
    schema, _ = containment_batch("medical")
    schema_file = tmp_path / "medical.schema"
    schema_file.write_text(schema_to_text(schema), encoding="utf-8")

    assert main(["cache", "warm", "--persist", str(store_file), "--workload", "medical"]) == 0
    capsys.readouterr()

    def stored_entries():
        assert main(["cache", "stats", "--persist", str(store_file), "--json", "-"]) == 0
        return json.loads(capsys.readouterr().out)["entries"]

    assert stored_entries() == 15
    code = main([
        "cache", "invalidate",
        "--persist", str(store_file),
        "--schema-file", str(schema_file),
        "--json", "-",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["path"] == str(store_file)
    assert report["schema_fingerprint"] == schema.canonical_fingerprint()
    assert report["invalidated"] == {"results": 0, "completions": 0, "schema-tboxes": 0}
    assert report["total"] == 0
    assert report["store_rows"] == 15
    assert stored_entries() == 0

    # the human-readable form names the schema too
    assert main([
        "cache", "invalidate", "--persist", str(store_file), "--schema-file", str(schema_file),
    ]) == 0
    assert schema.canonical_fingerprint()[:12] in capsys.readouterr().out


def test_cache_stats_on_missing_store_reports_unavailable(tmp_path, capsys):
    code = main(["cache", "stats", "--persist", str(tmp_path / "nope.db")])
    assert code == 0
    assert "unavailable" in capsys.readouterr().out


def test_cache_export_on_missing_store_fails(tmp_path):
    assert main(["cache", "export", "--persist", str(tmp_path / "nope.db")]) == 1


def test_bench_service_suite_json_report(capsys):
    code = main(
        ["bench", "--requests", "10", "--clients", "4", "--length", "2", "--json", "-"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["suite"] == "service"
    assert report["fingerprints_identical"] is True
    assert report["per_request"]["coalescer"]["largest_batch"] == 1
    assert report["coalesced"]["coalescer"]["submitted"] == 10
    assert report["context"]["rng_seed"] == 1729


def test_serve_stdio_round_trip(monkeypatch, capsys):
    import io
    import sys as real_sys

    lines = [
        json.dumps(
            {"workload": "medical", "left": "p(x) := (designTarget)(x, y)",
             "right": "q(x) := Vaccine(x)", "id": 1}
        ),
        json.dumps({"op": "shutdown"}),
    ]
    monkeypatch.setattr(real_sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
    code = main(["serve", "--stdio", "--coalesce-window", "0"])
    assert code == 0
    responses = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert responses[0]["contained"] is True
    assert responses[0]["id"] == 1
    assert responses[-1] == {"ok": True}


def test_replay_record_then_replay_round_trip(tmp_path, capsys):
    trace_path = tmp_path / "trace.ndjson"
    code = main(["replay", "--record", str(trace_path), "--requests", "20", "--json", "-"])
    assert code == 0
    record_report = json.loads(capsys.readouterr().out)
    assert record_report["stamped"] == 20
    assert trace_path.exists()

    code = main(["replay", str(trace_path), "--clients", "4", "--json", "-"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["matches"] is True
    assert report["stamped"] == 20
    assert report["mismatches"] == []
    assert set(report["latency"]) == {"p50_seconds", "p95_seconds", "p99_seconds"}
    assert report["coalescer"]["submitted"] == 20


def test_replay_exit_code_flags_a_tampered_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.ndjson"
    assert main(["replay", "--record", str(trace_path), "--requests", "10"]) == 0
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    tampered = json.loads(lines[1])
    tampered["result_fingerprint"] = "0" * 64
    lines[1] = json.dumps(tampered, sort_keys=True, separators=(",", ":"))
    trace_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    code = main(["replay", str(trace_path), "--clients", "2"])
    assert code == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_recorded_trace_replays_through_serve_stdio(monkeypatch, tmp_path, capsys):
    """The acceptance loop: record → ``python -m repro serve --stdio`` →
    every response fingerprint equals the trace's stamped expectation, in
    trace order (the stdio transport answers in input order)."""
    import io
    import sys as real_sys

    trace_path = tmp_path / "trace.ndjson"
    assert main(["replay", "--record", str(trace_path), "--requests", "15"]) == 0
    capsys.readouterr()

    expected = []
    lines = []
    for line in trace_path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if "request" not in record:
            continue
        expected.append(record["result_fingerprint"])
        lines.append(json.dumps(record["request"]))
    monkeypatch.setattr(real_sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
    code = main(["serve", "--stdio", "--coalesce-window", "2"])
    assert code == 0
    responses = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [response["fingerprint"] for response in responses] == expected
