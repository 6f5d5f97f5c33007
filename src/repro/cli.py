"""The ``python -m repro`` command line.

Seven subcommands over the library's hot paths:

* ``contain`` — one containment test ``P ⊆_S Q``, schema from a spec file
  (the :mod:`repro.schema.parser` DSL) or a built-in workload;
* ``typecheck`` — the Theorem 4.2 analysis for a built-in workload's
  migration (or a transformation/schema file triple);
* ``batch`` — a containment batch through
  :meth:`~repro.engine.ContainmentEngine.check_many` on a chosen backend
  (``serial``/``process``/``auto``), with JSON timing + cache-stats
  reports;
* ``bench`` — the serving layer's benchmark: coalesced versus
  per-request throughput of the containment service under closed-loop
  client threads, with p50/p95/p99 latency percentiles per mode and verdict
  fingerprints asserted identical to a serial baseline.  The report embeds
  a ``context`` block (CPU count, Python version, platform, the fixed RNG
  seed) so numbers from different machines are interpretable;
* ``cache`` — manage a persistent store file: ``stats``, ``clear``,
  ``export`` (entry metadata as JSON) and ``warm`` (pre-populate from a
  workload or spec file);
* ``serve`` — the long-running containment service (:mod:`repro.service`):
  one warm engine behind a request coalescer, over HTTP
  (``--port``/``--host``, endpoints ``/contain``, ``/batch``, ``/healthz``,
  ``/stats``) or newline-delimited JSON on stdio (``--stdio``), with
  ``--parallel``/``--workers`` for the batch backend, ``--persist`` for the
  disk store and ``--coalesce-window``/``--max-batch`` for the
  micro-batching shape;
* ``replay`` — record and replay NDJSON traffic traces
  (:mod:`repro.workloads.replay`): ``replay --record trace.ndjson``
  generates a seeded multi-tenant trace (hot/cold mixes, bursts,
  duplicate storms) stamped with expected ``result_fingerprint``s, and
  ``replay trace.ndjson`` re-runs it through a fresh service, asserting
  every verdict bit-identical to the recording (the exit code) and
  reporting latency percentiles plus the coalescer's dedup counters.

``contain``, ``typecheck``, ``batch``, ``serve`` and ``replay`` accept
``--persist PATH`` to put the disk store behind the engine (see
:mod:`repro.store`).

Every subcommand accepts ``--json`` (``-`` for stdout, otherwise a path) and
prints a human summary otherwise.  :func:`main` takes an ``argv`` list and
returns an exit code — it never calls ``sys.exit`` itself, so it is directly
callable from tests and executable documentation blocks.

Spec files for ``batch`` and ``cache warm`` are JSON documents::

    {
      "schema": "schema S { nodes A; edge A -r-> A [*, *]; }",
      "pairs": [{"left": "p(x) := (r)(x, y)", "right": "q(x) := A(x)"}]
    }
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .core import clear_compile_memo
from .engine import ContainmentEngine, result_fingerprint
from .engine.parallel import default_worker_count
from .rpq.parser import parse_c2rpq
from .schema.parser import parse_schema
from .schema.schema import Schema
from .store import TIERS, ResultStore
from .workloads.batches import BUILTIN_WORKLOADS, containment_batch, workload_schemas

__all__ = ["main"]

BACKENDS = ("serial", "process", "auto")

#: The RNG seed recorded in (and applied before) every bench report, so any
#: randomised corpus or tie-breaking is reproducible run to run.
BENCH_SEED = 1729


def _context_block() -> Dict[str, Any]:
    """Machine/runtime metadata embedded in the bench JSON report.

    Timings from different machines are only comparable with this block in
    hand.  Seeding is a side effect on purpose: every bench run starts from
    the same RNG state.
    """
    random.seed(BENCH_SEED)
    return {
        "cpu_count": os.cpu_count(),
        "python_version": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "rng_seed": BENCH_SEED,
    }


# --------------------------------------------------------------------------- #
# input loading
# --------------------------------------------------------------------------- #
def _load_spec(path: str) -> Tuple[Schema, List[Tuple[Any, Any]]]:
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        schema = parse_schema(document["schema"])
        pairs = [
            (parse_c2rpq(entry["left"]), parse_c2rpq(entry["right"]))
            for entry in document["pairs"]
        ]
    except (KeyError, TypeError) as error:
        raise SystemExit(f"spec file {path}: expected {{'schema': ..., 'pairs': [...]}} ({error})")
    return schema, pairs


def _resolve_batch(args: argparse.Namespace) -> Tuple[str, Schema, List[Tuple[Any, Any]]]:
    if args.spec:
        schema, pairs = _load_spec(args.spec)
        return f"spec:{args.spec}", schema, pairs
    schema, pairs = containment_batch(args.workload, length=args.length)
    label = args.workload if args.workload != "synthetic" else f"synthetic(length={args.length})"
    return label, schema, pairs


def _emit(report: Dict[str, Any], destination: Optional[str], summary: str) -> None:
    """Write the JSON *report* (stdout via ``-``) or print the summary."""
    if destination is None:
        print(summary)
        return
    payload = json.dumps(report, indent=2, sort_keys=True)
    if destination == "-":
        print(payload)
    else:
        Path(destination).write_text(payload + "\n", encoding="utf-8")
        print(f"wrote {destination}", file=sys.stderr)


def _batch_fingerprint(results) -> str:
    """One digest summarising every verdict of a batch, order included."""
    import hashlib

    return hashlib.sha256(
        "\x1f".join(result_fingerprint(result) for result in results).encode("utf-8")
    ).hexdigest()


def _run_backend(
    engine: ContainmentEngine,
    backend: str,
    schema: Schema,
    pairs,
    workers: Optional[int],
) -> Tuple[List[Any], float]:
    if backend == "process":
        engine.process_pool(workers).start()  # exclude spawn cost from timings
    started = time.perf_counter()
    results = engine.check_many(pairs, schema=schema, parallel=backend, max_workers=workers)
    return results, time.perf_counter() - started


def _stats_block(engine: ContainmentEngine, backend: str) -> Dict[str, Any]:
    block = {"engine": engine.stats.as_dict()}
    if backend in ("process", "auto"):
        process_stats = engine.process_stats()
        if process_stats is not None:
            block["workers"] = process_stats.as_dict()
        transport = engine.transport_report()
        if transport is not None:
            block["transport"] = transport
    if backend == "auto":
        block["adaptive"] = engine.adaptive_report()
    return block


# --------------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------------- #
def _cmd_contain(args: argparse.Namespace) -> int:
    if args.schema_file:
        schema = parse_schema(Path(args.schema_file).read_text(encoding="utf-8"))
    else:
        schema = workload_schemas(args.workload, length=args.length)["source"]
    left = parse_c2rpq(args.left)
    right = parse_c2rpq(args.right)
    with ContainmentEngine(persist=args.persist) as engine:
        result = engine.contains(left, right, schema)
        report = {
            "contained": result.contained,
            "regime": result.regime,
            "schema": result.schema_name,
            "left": result.left_name,
            "right": result.right_name,
            "patterns_checked": result.patterns_checked,
            "tbox_size": result.tbox_size,
            "elapsed_seconds": result.elapsed_seconds,
            "fingerprint": result_fingerprint(result),
        }
        if engine.store is not None:
            report["store"] = engine.store.describe()
        _emit(report, args.json, result.summary())
    return 0


def _cmd_typecheck(args: argparse.Namespace) -> int:
    from .analysis import type_check
    from .transform.parser import parse_transformation
    from .workloads import fhir, medical, social

    if args.transformation:
        if not (args.source and args.target):
            raise SystemExit("typecheck: --transformation needs --source and --target")
        transformation = parse_transformation(Path(args.transformation).read_text(encoding="utf-8"))
        source = parse_schema(Path(args.source).read_text(encoding="utf-8"))
        target = parse_schema(Path(args.target).read_text(encoding="utf-8"))
    else:
        migrations = {
            "medical": medical.broken_migration if args.variant == "broken" else medical.migration,
            "fhir": (
                fhir.broken_migration_v3_to_v4
                if args.variant == "broken"
                else fhir.migration_v3_to_v4
            ),
            "social": social.broken_reification if args.variant == "broken" else social.reification,
        }
        if args.workload not in migrations:
            raise SystemExit(
                f"typecheck: workload {args.workload!r} has no packaged migration "
                "(choose medical, fhir or social, or pass --transformation)"
            )
        schemas = workload_schemas(args.workload)
        transformation = migrations[args.workload]()
        source, target = schemas["source"], schemas["target"]

    engine = ContainmentEngine(persist=args.persist) if args.persist else None
    with engine if engine is not None else contextlib.nullcontext():
        result = type_check(transformation, source, target, engine=engine)
        report = {
            "well_typed": result.well_typed,
            "transformation": result.transformation_name,
            "source_schema": result.source_schema,
            "target_schema": result.target_schema,
            "signature_errors": result.signature_errors,
            "failed_statements": [str(e.statement) for e in result.failed_statements()],
            "containment_calls": result.containment_calls,
            "elapsed_seconds": result.elapsed_seconds,
        }
        if engine is not None and engine.store is not None:
            report["store"] = engine.store.describe()
        _emit(report, args.json, result.summary())
    return 0 if result.well_typed else 1


def _cmd_batch(args: argparse.Namespace) -> int:
    label, schema, pairs = _resolve_batch(args)
    with ContainmentEngine(persist=args.persist) as engine:
        results, elapsed = _run_backend(engine, args.backend, schema, pairs, args.workers)
        for _ in range(args.repeat - 1):
            results, elapsed = _run_backend(engine, args.backend, schema, pairs, args.workers)
        contained = sum(1 for result in results if result.contained)
        report = {
            "workload": label,
            "backend": args.backend,
            "workers": args.workers or default_worker_count(),
            "tasks": len(pairs),
            "repeat": args.repeat,
            "elapsed_seconds": elapsed,
            "throughput_per_second": len(pairs) / elapsed if elapsed else None,
            "verdicts": {"contained": contained, "not_contained": len(pairs) - contained},
            "fingerprint": _batch_fingerprint(results),
            "stats": _stats_block(engine, args.backend),
        }
        if engine.store is not None:
            report["store"] = engine.store.describe()
        summary = (
            f"{label}: {len(pairs)} containment tests on the {args.backend} backend in "
            f"{elapsed * 1000:.1f} ms ({contained} contained / {len(pairs) - contained} not)"
        )
        _emit(report, args.json, summary)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``serve`` — run the containment service over HTTP or stdio."""
    from .service import ContainmentService, make_server, serve_stdio

    service = ContainmentService(
        parallel=args.parallel,
        workers=args.workers,
        persist=args.persist,
        coalesce_window=args.coalesce_window / 1000.0,
        max_batch=args.max_batch,
    )
    with service:
        if args.stdio:
            try:
                counts = serve_stdio(service)
            except KeyboardInterrupt:
                # the same clean Ctrl-C contract as the HTTP transport: the
                # with-block drains the coalescer and closes the engine
                print("serve: interrupted, shutting down", file=sys.stderr)
                return 0
            print(
                f"serve: handled {counts['requests']} requests "
                f"({counts['errors']} errors) on stdio",
                file=sys.stderr,
            )
            return 0
        server = make_server(service, args.host, args.port, verbose=args.verbose)
        # the bound port on its own line, machine-readable: smoke tests pass
        # --port 0 and parse this to find the ephemeral port
        print(f"repro service listening on {server.url}", flush=True)
        print(
            f"  backend={service.backend} window={args.coalesce_window:g}ms "
            f"max-batch={args.max_batch} persist={args.persist or 'off'}",
            file=sys.stderr,
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("serve: interrupted, shutting down", file=sys.stderr)
        finally:
            # serve_forever has already returned, so no cross-thread
            # shutdown() is needed; release the socket, then the `with`
            # closes the service (coalescer → engine → pool → store)
            server.server_close()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """``bench`` — coalesced versus per-request service throughput.

    Closed-loop client threads replay the same deterministic mixed-schema
    request stream (:func:`repro.workloads.streams.request_stream`) through
    two freshly started services:

    1. **per-request** — coalescing disabled (zero window, batch size 1),
       serial backend: every request is one engine call, the single-shot
       shape a caller pays today;
    2. **coalesced** — the coalescing window and the service's default
       ``auto`` backend: the service micro-batches the concurrent clients
       into ``check_many`` waves, and the adaptive selector fans each wave
       out to the worker pool only when its measured per-item solve cost
       beats the transport cost (on a small box it simply stays serial —
       the honest choice the old pinned-``process`` mode got wrong).

    Both modes start cold (fresh engine, cleared compile memo).  The
    headline is ``speedup`` (per-request / coalesced elapsed); the exit
    code is fingerprint identity of *both* modes against a serial
    ``check_many`` baseline — the ≥ 2× gate itself lives in
    ``benchmarks/bench_service_throughput.py``, which skips on < 4 cores.
    """
    from .service import ContainmentService
    from .workloads.replay import latency_percentiles
    from .workloads.streams import closed_loop, request_stream

    context = _context_block()
    request_count = args.requests
    clients = args.clients
    workers = args.workers or min(os.cpu_count() or 1, 8)

    baseline_stream = request_stream(request_count, length=args.length)
    with ContainmentEngine() as engine:
        baseline = engine.check_many([(left, right, schema) for left, right, schema in baseline_stream])
    baseline_fps = [result_fingerprint(result) for result in baseline]

    def run_mode(window_seconds: float, max_batch: int, parallel: str) -> Tuple[List[str], float, Dict[str, Any]]:
        stream = request_stream(request_count, length=args.length)
        clear_compile_memo()
        latencies = [0.0] * len(stream)
        with ContainmentService(
            parallel=parallel,
            workers=workers,
            coalesce_window=window_seconds,
            max_batch=max_batch,
        ) as service:

            def call(indexed):
                index, (left, right, schema) = indexed
                begun = time.perf_counter()
                result = service.coalescer.check(left, right, schema)
                latencies[index] = time.perf_counter() - begun
                return result

            started = time.perf_counter()
            results = closed_loop(list(enumerate(stream)), call, clients=clients)
            elapsed = time.perf_counter() - started
            block = {
                "elapsed_seconds": elapsed,
                "throughput_per_second": len(stream) / elapsed if elapsed else None,
                "latency": latency_percentiles(latencies),
                "coalescer": service.coalescer.stats.as_dict(),
            }
            return [result_fingerprint(result) for result in results], elapsed, block

    per_request_fps, per_request_seconds, per_request_block = run_mode(0.0, 1, "serial")
    coalesced_fps, coalesced_seconds, coalesced_block = run_mode(
        args.coalesce_window / 1000.0, args.max_batch, "auto"
    )
    identical = per_request_fps == baseline_fps and coalesced_fps == baseline_fps
    report = {
        "suite": "service",
        "workload": f"stream(requests={request_count}, length={args.length})",
        "requests": request_count,
        "clients": clients,
        "workers": workers,
        "coalesce_window_ms": args.coalesce_window,
        "max_batch": args.max_batch,
        "per_request": per_request_block,
        "coalesced": coalesced_block,
        "speedup": per_request_seconds / coalesced_seconds if coalesced_seconds else None,
        "fingerprints_identical": identical,
        "context": context,
    }
    speedup_text = f"{report['speedup']:.2f}x" if report["speedup"] is not None else "inf"
    summary = (
        f"service: {request_count} streamed requests from {clients} closed-loop clients — "
        f"per-request {per_request_seconds * 1000:.1f} ms, "
        f"coalesced {coalesced_seconds * 1000:.1f} ms ({speedup_text} coalesced speedup, "
        f"{coalesced_block['coalescer']['batches']} batches, "
        f"{coalesced_block['coalescer']['deduplicated']} deduplicated)\n"
        f"  coalesced latency p50/p95/p99: "
        f"{coalesced_block['latency']['p50_seconds'] * 1000:.1f} / "
        f"{coalesced_block['latency']['p95_seconds'] * 1000:.1f} / "
        f"{coalesced_block['latency']['p99_seconds'] * 1000:.1f} ms\n"
        f"  verdicts identical to the serial baseline: {identical}"
    )
    _emit(report, args.json, summary)
    return 0 if identical else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    """``replay`` — record or replay an NDJSON traffic trace.

    ``--record`` generates a seeded multi-tenant trace, stamps every line
    with its expected ``result_fingerprint`` from a serial baseline (unless
    ``--no-stamp``) and writes it to the trace path.  Without ``--record``,
    the trace is replayed through a fresh in-process service and every
    stamped line's fingerprint is compared bit-for-bit; any mismatch is a
    determinism violation and the exit code is 1.
    """
    from .service import ContainmentService
    from .workloads.replay import (
        generate_trace,
        read_trace,
        replay_trace,
        stamp_expected,
        write_trace,
    )

    path = Path(args.trace)
    if args.record:
        trace = generate_trace(args.requests, seed=args.seed, tenants=args.tenants)
        if not args.no_stamp:
            trace = stamp_expected(trace)
        write_trace(trace, path)
        stamped = sum(1 for request in trace.requests if request.expected is not None)
        report = {"trace": str(path), "meta": trace.meta,
                  "unique_payloads": trace.unique_payloads(), "stamped": stamped}
        _emit(report, args.json,
              f"{path}: recorded {len(trace)} requests "
              f"({trace.unique_payloads()} unique payloads, {stamped} stamped, "
              f"seed {args.seed})")
        return 0

    trace = read_trace(path)
    if not trace.requests:
        raise SystemExit(f"replay: {path} holds no requests")
    if args.stamp:
        trace = stamp_expected(trace)
    with ContainmentService(
        parallel=args.parallel,
        workers=args.workers,
        persist=args.persist,
        coalesce_window=args.coalesce_window / 1000.0,
        max_batch=args.max_batch,
    ) as service:
        outcome = replay_trace(service, trace, clients=args.clients, pace=args.pace)
        stats = service.stats_report()
    report = {
        "trace": str(path),
        "meta": trace.meta,
        "backend": service.backend,
        **outcome.as_dict(),
        "coalescer": stats["coalescer"],
    }
    latency = report["latency"]
    verdict_text = (
        f"all {report['stamped']} stamped fingerprints replayed bit-identically"
        if outcome.matches
        else f"{len(outcome.mismatches)} fingerprint MISMATCH(ES) at lines {outcome.mismatches}"
    )
    summary = (
        f"{path}: replayed {len(trace)} requests from {args.clients} clients on the "
        f"{service.backend} backend in {outcome.elapsed_seconds * 1000:.1f} ms "
        f"({stats['coalescer']['deduplicated']} deduplicated)\n"
        f"  latency p50/p95/p99: {latency['p50_seconds'] * 1000:.1f} / "
        f"{latency['p95_seconds'] * 1000:.1f} / {latency['p99_seconds'] * 1000:.1f} ms\n"
        f"  {verdict_text}"
    )
    _emit(report, args.json, summary)
    return 0 if outcome.matches else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    """``cache stats|clear|export|warm|invalidate|evolve`` — manage a store file.

    ``invalidate`` renders the structured
    :class:`~repro.engine.InvalidationReport` and ``evolve`` the
    :class:`~repro.engine.EvolveReport` for a store-backed engine; both run
    against a fresh engine, so their in-memory tiers are empty and the
    interesting numbers are the store rows dropped/written.
    """
    path = Path(args.persist)

    if args.cache_command == "stats":
        store = ResultStore(path, mode="ro")
        report = store.describe()
        tiers = report["tiers"]
        if store.disabled:
            summary = f"{path}: store unavailable ({store.disabled_reason})"
        else:
            entries = sum(tiers.values())
            tier_text = ", ".join(f"{tier}: {count}" for tier, count in tiers.items()) or "empty"
            summary = (
                f"{path}: {entries} entries ({tier_text}), "
                f"{report['file_bytes'] / 1024:.1f} KiB, "
                f"format v{report['meta'].get('store_format_version', '?')} / "
                f"library {report['meta'].get('library_version', '?')}"
            )
        store.close()
        _emit(report, args.json, summary)
        return 0

    if args.cache_command == "clear":
        store = ResultStore(path)
        if store.disabled:
            print(f"cache clear: {path}: {store.disabled_reason}", file=sys.stderr)
            store.close()
            return 1
        dropped = store.clear(args.tier)
        store.close()
        scope = f"tier {args.tier!r}" if args.tier else "all tiers"
        _emit({"path": str(path), "dropped": dropped, "tier": args.tier},
              args.json, f"{path}: dropped {dropped} entries ({scope})")
        return 0

    if args.cache_command == "export":
        store = ResultStore(path, mode="ro")
        report = {"store": store.describe(), "entries": store.entries()}
        disabled = store.disabled
        store.close()
        if disabled:
            print(f"cache export: {path}: {report['store']['disabled_reason']}", file=sys.stderr)
            return 1
        _emit(report, args.json or "-",
              f"{path}: {len(report['entries'])} entries")  # export defaults to stdout JSON
        return 0

    if args.cache_command == "warm":
        label, schema, pairs = _resolve_batch(args)
        with ContainmentEngine(persist=path) as engine:
            started = time.perf_counter()
            engine.check_many(pairs, schema=schema)
            elapsed = time.perf_counter() - started
            store_block = engine.store.describe()
            report = {
                "path": str(path),
                "workload": label,
                "tasks": len(pairs),
                "elapsed_seconds": elapsed,
                "store": store_block,
            }
            entries = sum(store_block["tiers"].values())
            _emit(report, args.json,
                  f"{path}: warmed with {label} ({len(pairs)} tests, "
                  f"{store_block['stats']['writes']} writes, {entries} entries total)")
        return 0

    if args.cache_command == "invalidate":
        if args.schema_file:
            schema = parse_schema(Path(args.schema_file).read_text(encoding="utf-8"))
        else:
            schema, _ = containment_batch(args.workload, length=args.length)
        with ContainmentEngine(persist=path) as engine:
            report = engine.invalidate_schema(schema)
        _emit(
            {"path": str(path), **report.as_dict()},
            args.json,
            f"{path}:\n" + "\n".join("  " + line for line in report.summary().splitlines()),
        )
        return 0

    if args.cache_command == "evolve":
        old_schema = parse_schema(Path(args.old).read_text(encoding="utf-8"))
        new_schema = parse_schema(Path(args.new).read_text(encoding="utf-8"))
        with ContainmentEngine(persist=path) as engine:
            report = engine.evolve(old_schema, new_schema)
        _emit(
            {"path": str(path), **report.as_dict()},
            args.json,
            f"{path}:\n" + "\n".join("  " + line for line in report.summary().splitlines()),
        )
        return 0

    raise SystemExit(f"cache: unknown subcommand {args.cache_command!r}")


# --------------------------------------------------------------------------- #
# the parser
# --------------------------------------------------------------------------- #
def _positive_int(text: str) -> int:
    """The argparse type of every count flag: a bad value is a usage error."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload",
        choices=BUILTIN_WORKLOADS,
        default="medical",
        help="built-in workload (default: medical)",
    )
    parser.add_argument(
        "--length",
        type=_positive_int,
        default=8,
        help="chain length for the synthetic workload (default: 8)",
    )


def _add_report_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write a JSON report to PATH ('-' for stdout) instead of the text summary",
    )


def _add_persist_argument(
    parser: argparse.ArgumentParser, help_text: str, required: bool = False
) -> None:
    parser.add_argument(
        "--persist", metavar="PATH", default=None, required=required, help=help_text
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Static analysis of graph database transformations (PODS 2023).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    contain = subparsers.add_parser("contain", help="decide one containment test P ⊆_S Q")
    _add_workload_arguments(contain)
    contain.add_argument("--schema-file", help="schema DSL file (overrides --workload)")
    contain.add_argument("--left", required=True, help='left query, e.g. "p(x) := (r)(x, y)"')
    contain.add_argument("--right", required=True, help='right (acyclic) query, e.g. "q(x) := A(x)"')
    _add_persist_argument(contain, "disk-persistent result store file (read/write)")
    _add_report_argument(contain)
    contain.set_defaults(handler=_cmd_contain)

    typecheck = subparsers.add_parser(
        "typecheck", help="type check a workload migration (Theorem 4.2)"
    )
    _add_workload_arguments(typecheck)
    typecheck.add_argument(
        "--variant",
        choices=("default", "broken"),
        default="default",
        help="use the workload's deliberately broken migration variant",
    )
    typecheck.add_argument("--transformation", help="transformation DSL file")
    typecheck.add_argument("--source", help="source schema DSL file (with --transformation)")
    typecheck.add_argument("--target", help="target schema DSL file (with --transformation)")
    _add_persist_argument(typecheck, "disk-persistent result store file (read/write)")
    _add_report_argument(typecheck)
    typecheck.set_defaults(handler=_cmd_typecheck)

    batch = subparsers.add_parser("batch", help="run a containment batch on one backend")
    _add_workload_arguments(batch)
    batch.add_argument("--spec", help="JSON spec file (overrides --workload)")
    batch.add_argument(
        "--backend", choices=BACKENDS, default="serial", help="execution backend (default: serial)"
    )
    batch.add_argument(
        "--workers", type=_positive_int, default=None, help="worker count for the process backend"
    )
    batch.add_argument(
        "--repeat", type=_positive_int, default=1, help="repeat the batch N times, report the last (warm) run"
    )
    _add_persist_argument(
        batch,
        "disk-persistent result store file; process-backend workers warm-start from it",
    )
    _add_report_argument(batch)
    batch.set_defaults(handler=_cmd_batch)

    bench = subparsers.add_parser(
        "bench",
        help="coalesced versus per-request service throughput, verdicts checked against serial",
    )
    bench.add_argument(
        "--requests", type=_positive_int, default=96, help="streamed request count (default: 96)"
    )
    bench.add_argument(
        "--clients", type=_positive_int, default=8, help="closed-loop client threads (default: 8)"
    )
    bench.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="worker count for the process backend (default: the CPU count, at most 8)",
    )
    bench.add_argument(
        "--length",
        type=_positive_int,
        default=8,
        help="chain length of the stream's synthetic schema (default: 8)",
    )
    bench.add_argument(
        "--coalesce-window",
        type=float,
        default=5.0,
        help="coalescing window in milliseconds (default: 5)",
    )
    bench.add_argument(
        "--max-batch", type=_positive_int, default=32, help="max coalesced batch size (default: 32)"
    )
    _add_report_argument(bench)
    bench.set_defaults(handler=_cmd_bench)

    serve = subparsers.add_parser(
        "serve",
        help="run the long-running containment service (HTTP or --stdio NDJSON)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=8080, help="TCP port; 0 picks an ephemeral one (default: 8080)"
    )
    serve.add_argument(
        "--stdio",
        action="store_true",
        help="serve newline-delimited JSON on stdin/stdout instead of HTTP",
    )
    serve.add_argument(
        "--parallel",
        choices=BACKENDS,
        default="auto",
        help=(
            "backend coalesced batches run on; 'auto' measures per-item solve "
            "and serialization cost and picks serial or process per batch "
            "(default: auto)"
        ),
    )
    serve.add_argument(
        "--workers", type=_positive_int, default=None, help="worker count for the process backend"
    )
    serve.add_argument(
        "--coalesce-window",
        type=float,
        default=5.0,
        help="coalescing window in milliseconds; 0 disables waiting (default: 5)",
    )
    serve.add_argument(
        "--max-batch", type=_positive_int, default=64, help="max coalesced batch size (default: 64)"
    )
    _add_persist_argument(
        serve, "disk-persistent result store file behind the service's engine"
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log one line per HTTP request to stderr"
    )
    serve.set_defaults(handler=_cmd_serve)

    replay = subparsers.add_parser(
        "replay",
        help="record or replay an NDJSON traffic trace through the service",
    )
    replay.add_argument(
        "trace", help="the NDJSON trace file (replayed, or written with --record)"
    )
    replay.add_argument(
        "--record",
        action="store_true",
        help="generate a seeded trace and write it to the trace path instead of replaying",
    )
    replay.add_argument(
        "--requests", type=_positive_int, default=120, help="record: trace length (default: 120)"
    )
    replay.add_argument(
        "--seed", type=int, default=20230808, help="record: trace RNG seed (default: 20230808)"
    )
    replay.add_argument(
        "--tenants", type=_positive_int, default=6, help="record: tenant count (default: 6)"
    )
    replay.add_argument(
        "--no-stamp",
        action="store_true",
        help="record: skip stamping expected result fingerprints",
    )
    replay.add_argument(
        "--stamp",
        action="store_true",
        help="replay: re-stamp expected fingerprints serially before replaying",
    )
    replay.add_argument(
        "--clients", type=_positive_int, default=8, help="replay: closed-loop client threads (default: 8)"
    )
    replay.add_argument(
        "--pace",
        type=float,
        default=None,
        help=(
            "replay: honour recorded arrival offsets at this speed factor "
            "(1.0 = real time; default: as fast as possible)"
        ),
    )
    replay.add_argument(
        "--parallel",
        choices=BACKENDS,
        default="serial",
        help=(
            "replay: backend coalesced batches run on; 'auto' lets the engine "
            "pick from measured cost (default: serial)"
        ),
    )
    replay.add_argument(
        "--workers", type=_positive_int, default=None, help="worker count for the process backend"
    )
    replay.add_argument(
        "--coalesce-window",
        type=float,
        default=5.0,
        help="replay: coalescing window in milliseconds (default: 5)",
    )
    replay.add_argument(
        "--max-batch", type=_positive_int, default=64, help="replay: max coalesced batch size (default: 64)"
    )
    _add_persist_argument(
        replay, "replay: disk-persistent result store file behind the service's engine"
    )
    _add_report_argument(replay)
    replay.set_defaults(handler=_cmd_replay)

    cache = subparsers.add_parser(
        "cache", help="inspect and manage a disk-persistent result store"
    )
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)

    cache_stats = cache_commands.add_parser("stats", help="entry counts, size and version stamp")
    _add_persist_argument(cache_stats, "the store file to inspect", required=True)
    _add_report_argument(cache_stats)

    cache_clear = cache_commands.add_parser("clear", help="drop persisted entries")
    _add_persist_argument(cache_clear, "the store file to clear", required=True)
    cache_clear.add_argument(
        "--tier",
        choices=TIERS,
        default=None,
        help="clear only one tier (default: everything)",
    )
    _add_report_argument(cache_clear)

    cache_export = cache_commands.add_parser(
        "export", help="dump entry metadata (tier, key, size, age) as JSON"
    )
    _add_persist_argument(cache_export, "the store file to export", required=True)
    _add_report_argument(cache_export)

    cache_warm = cache_commands.add_parser(
        "warm", help="pre-populate a store from a workload or spec file"
    )
    _add_workload_arguments(cache_warm)
    cache_warm.add_argument("--spec", help="JSON spec file (overrides --workload)")
    _add_persist_argument(cache_warm, "the store file to warm", required=True)
    _add_report_argument(cache_warm)

    cache_invalidate = cache_commands.add_parser(
        "invalidate",
        help="drop one schema's persisted rows, reported per tier",
    )
    _add_workload_arguments(cache_invalidate)
    cache_invalidate.add_argument(
        "--schema-file", help="schema DSL file (overrides --workload)"
    )
    _add_persist_argument(cache_invalidate, "the store file to invalidate in", required=True)
    _add_report_argument(cache_invalidate)

    cache_evolve = cache_commands.add_parser(
        "evolve",
        help="migrate a store across a schema edit (drops the old namespace)",
    )
    cache_evolve.add_argument("--old", required=True, help="old schema DSL file")
    cache_evolve.add_argument("--new", required=True, help="new schema DSL file")
    _add_persist_argument(cache_evolve, "the store file to migrate", required=True)
    _add_report_argument(cache_evolve)

    cache.set_defaults(handler=_cmd_cache)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse *argv* (default ``sys.argv[1:]``) and run the chosen subcommand."""
    args = build_parser().parse_args(argv)
    return args.handler(args)
