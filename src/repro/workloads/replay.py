"""Record/replay traces: multi-tenant service traffic as NDJSON files.

:mod:`repro.workloads.streams` replays one deterministic request stream; a
*trace* is the durable, shareable form of that idea — a production-ish
traffic recording that any box can re-run bit-identically through the
serving layer.  One JSON object per line::

    {"trace_format": 1, "seed": 20230808, "requests": 120, ...}   # header
    {"tenant": "hot0", "offset": 0.0041,
     "request": {"schema": "schema Zoo0 {...}", "left": "p0x1(x) := ...",
                 "right": "q0x1(x) := N0x2(x)"},
     "result_fingerprint": "3f2a..."}                              # request

``request`` is exactly the wire payload of ``python -m repro serve`` (schema
DSL text plus two query source strings), so a trace line can be POSTed to
``/contain``, piped into ``serve --stdio``, or replayed in-process through a
:class:`~repro.service.service.ContainmentService` — all three see the same
bytes.  ``result_fingerprint`` is the expected canonical verdict digest
(:func:`repro.engine.result_fingerprint`), stamped by
:func:`stamp_expected` from a serial baseline run; a replay that produces a
different fingerprint for any line is a determinism violation, which
:func:`replay_trace` reports per line and ``python -m repro replay`` turns
into a non-zero exit.

:func:`generate_trace` synthesises the traffic mixes ROADMAP item 4 calls
for — hot/cold tenants over a mixed built-in + zoo corpus, burst arrival
(offset gaps collapse for a run of requests), and duplicate storms (one
payload repeated back-to-back, the coalescer's best case and the cache's
worst-case thundering herd) — all driven by one seed, so the same arguments
always emit byte-identical traces (asserted across separate OS processes in
``tests/test_replay.py``).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..schema.parser import schema_to_text
from .batches import mixed_batch
from .streams import closed_loop
from .zoo import ZOO_SEED, property_corpus

__all__ = [
    "TRACE_FORMAT_VERSION",
    "Trace",
    "TraceRequest",
    "ReplayReport",
    "generate_trace",
    "latency_percentiles",
    "read_trace",
    "replay_trace",
    "stamp_expected",
    "write_trace",
]

#: Bumped when a line's meaning changes; readers reject newer formats loudly
#: instead of replaying a trace they would misinterpret.
TRACE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TraceRequest:
    """One recorded request: who sent it, when, what, and what came back."""

    tenant: str
    offset: float  # seconds since the start of the trace
    payload: Dict[str, str]  # the service wire payload (schema/left/right)
    expected: Optional[str] = None  # expected result_fingerprint, if stamped


@dataclass
class Trace:
    """A parsed trace: the header metadata plus the request lines in order."""

    requests: List[TraceRequest]
    meta: Dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.requests)

    def unique_payloads(self) -> int:
        """Distinct request payloads (the coalescer/cache dedup ceiling)."""
        return len({json.dumps(request.payload, sort_keys=True) for request in self.requests})


# --------------------------------------------------------------------------- #
# generation: multi-tenant mixes over the built-in + zoo corpora
# --------------------------------------------------------------------------- #
def _payload_corpus(length: int, zoo_schemas: int, zoo_queries_per_schema: int,
                    seed: int) -> List[Dict[str, str]]:
    """The base payload corpus: every built-in workload plus a zoo slice.

    Schema objects render to DSL text once per distinct schema, so repeated
    requests carry byte-identical schema strings — the service's parse cache
    sees realistic hit rates and byte-level trace comparison is meaningful.
    """
    triples = list(mixed_batch(length=length))
    if zoo_schemas > 0 and zoo_queries_per_schema > 0:
        triples.extend(
            property_corpus(seed, schemas=zoo_schemas,
                            queries_per_schema=zoo_queries_per_schema)
        )
    texts: Dict[int, str] = {}
    payloads = []
    for left, right, schema in triples:
        text = texts.get(id(schema))
        if text is None:
            text = schema_to_text(schema)
            texts[id(schema)] = text
        payloads.append({"schema": text, "left": str(left), "right": str(right)})
    return payloads


def generate_trace(
    requests: int = 120,
    *,
    seed: int = ZOO_SEED,
    tenants: int = 6,
    hot_tenants: int = 2,
    hot_corpus_size: int = 8,
    repeat_fraction: float = 0.35,
    burst_every: int = 16,
    burst_size: int = 4,
    duplicate_storms: int = 2,
    storm_size: int = 6,
    length: int = 4,
    zoo_schemas: int = 4,
    zoo_queries_per_schema: int = 4,
) -> Trace:
    """A seeded multi-tenant traffic trace of exactly *requests* lines.

    Traffic model (every choice drawn from one ``random.Random(seed)``, so
    identical arguments emit byte-identical traces):

    * **hot/cold tenants** — the first *hot_tenants* tenants draw from a
      shared *hot_corpus_size*-payload working set (high duplicate and
      cache-hit rates, also *across* tenants); cold tenants walk the full
      corpus (mostly fresh fingerprints).
    * **burst arrival** — every *burst_every* requests, the next
      *burst_size* arrivals collapse to near-zero offset gaps, the
      coalescer's window-filling shape.
    * **duplicate storms** — *duplicate_storms* times, spread evenly, one
      payload repeats *storm_size* times back-to-back from one tenant: the
      thundering-herd shape where a coalescing service must decide once and
      fan out (asserted via the ``/stats`` dedup counters in
      ``tests/test_replay.py``).
    """
    import random

    if requests < 1:
        raise ValueError("generate_trace needs at least one request")
    if not 1 <= hot_tenants <= tenants:
        raise ValueError("hot_tenants must be between 1 and tenants")
    rng = random.Random(seed)
    corpus = _payload_corpus(length, zoo_schemas, zoo_queries_per_schema, seed)
    order = list(range(len(corpus)))
    rng.shuffle(order)
    hot_set = [corpus[i] for i in order[:max(1, hot_corpus_size)]]
    cold_cursor = 0

    tenant_names = [
        (f"hot{i}" if i < hot_tenants else f"cold{i - hot_tenants}") for i in range(tenants)
    ]
    storm_positions = {
        (k + 1) * requests // (duplicate_storms + 1) for k in range(duplicate_storms)
    } if duplicate_storms > 0 else set()

    lines: List[TraceRequest] = []
    offset = 0.0
    burst_remaining = 0
    while len(lines) < requests:
        position = len(lines)
        if burst_every > 0 and position > 0 and position % burst_every == 0:
            burst_remaining = burst_size
        if burst_remaining > 0:
            offset += rng.uniform(0.0001, 0.0005)
            burst_remaining -= 1
        else:
            offset += rng.uniform(0.002, 0.012)

        tenant_index = rng.randrange(tenants)
        tenant = tenant_names[tenant_index]
        if tenant_index < hot_tenants:
            payload = rng.choice(hot_set)
        elif lines and rng.random() < repeat_fraction:
            payload = rng.choice(lines[-8:]).payload
        else:
            payload = corpus[order[cold_cursor % len(order)]]
            cold_cursor += 1
        lines.append(TraceRequest(tenant, round(offset, 6), payload))

        if position in storm_positions:
            # the storm: the same payload, the same tenant, back to back
            for _ in range(storm_size - 1):
                if len(lines) >= requests:
                    break
                offset += rng.uniform(0.0001, 0.0004)
                lines.append(TraceRequest(tenant, round(offset, 6), payload))

    meta = {
        "trace_format": TRACE_FORMAT_VERSION,
        "seed": seed,
        "requests": requests,
        "tenants": tenants,
        "hot_tenants": hot_tenants,
        "hot_corpus_size": hot_corpus_size,
        "repeat_fraction": repeat_fraction,
        "burst_every": burst_every,
        "burst_size": burst_size,
        "duplicate_storms": duplicate_storms,
        "storm_size": storm_size,
        "length": length,
        "zoo_schemas": zoo_schemas,
        "zoo_queries_per_schema": zoo_queries_per_schema,
    }
    return Trace(lines, meta)


# --------------------------------------------------------------------------- #
# the NDJSON file format
# --------------------------------------------------------------------------- #
def write_trace(trace: Trace, path: Any) -> None:
    """Write *trace* as NDJSON: one header line, then one line per request.

    Keys are sorted and separators fixed, so two traces are equal exactly
    when their files are byte-identical — the property the cross-process
    determinism test hashes.
    """
    meta = {**trace.meta, "trace_format": TRACE_FORMAT_VERSION, "requests": len(trace.requests)}
    lines = [json.dumps(meta, sort_keys=True, separators=(",", ":"))]
    for request in trace.requests:
        record: Dict[str, Any] = {
            "tenant": request.tenant,
            "offset": request.offset,
            "request": request.payload,
        }
        if request.expected is not None:
            record["result_fingerprint"] = request.expected
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_trace(path: Any) -> Trace:
    """Parse an NDJSON trace file (header line optional, blank lines ignored)."""
    meta: Dict[str, Any] = {}
    requests: List[TraceRequest] = []
    for number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}: line {number} is not valid JSON: {error}") from error
        if not isinstance(record, dict):
            raise ValueError(f"{path}: line {number} must be a JSON object")
        if "trace_format" in record and "request" not in record:
            version = record["trace_format"]
            if not isinstance(version, int) or version > TRACE_FORMAT_VERSION:
                raise ValueError(
                    f"{path}: trace format {version!r} is newer than the supported "
                    f"version {TRACE_FORMAT_VERSION}"
                )
            meta = record
            continue
        payload = record.get("request")
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: line {number} is missing the 'request' object")
        requests.append(
            TraceRequest(
                str(record.get("tenant", "t0")),
                float(record.get("offset", 0.0)),
                payload,
                record.get("result_fingerprint"),
            )
        )
    return Trace(requests, meta)


# --------------------------------------------------------------------------- #
# stamping and replaying
# --------------------------------------------------------------------------- #
def stamp_expected(trace: Trace, config: Optional[Any] = None) -> Trace:
    """Stamp every line's ``result_fingerprint`` from a serial baseline.

    The payloads are parsed exactly like the service parses them (schema DSL
    text, query source strings — one parse per distinct text) and decided
    serially on a fresh engine, so the stamped fingerprints are the ground
    truth any serving mode must reproduce bit-for-bit.
    """
    from ..engine import ContainmentEngine, result_fingerprint
    from ..rpq.parser import parse_c2rpq
    from ..schema.parser import parse_schema

    schemas: Dict[str, Any] = {}
    queries: Dict[str, Any] = {}

    def parse(payload: Dict[str, str]) -> Tuple[Any, Any, Any]:
        schema_text = payload["schema"]
        if schema_text not in schemas:
            schemas[schema_text] = parse_schema(schema_text)
        for text in (payload["left"], payload["right"]):
            if text not in queries:
                queries[text] = parse_c2rpq(text)
        return queries[payload["left"]], queries[payload["right"]], schemas[schema_text]

    parsed = [parse(request.payload) for request in trace.requests]
    with ContainmentEngine(config) as engine:
        results = engine.check_many(parsed)
    stamped = [
        replace(request, expected=result_fingerprint(result))
        for request, result in zip(trace.requests, results)
    ]
    return Trace(stamped, dict(trace.meta))


@dataclass
class ReplayReport:
    """The outcome of one trace replay through a service."""

    fingerprints: List[str]
    expected: List[Optional[str]]
    mismatches: List[int]  # indices whose fingerprint differs from expected
    latencies: List[float]  # per-request wall-clock seconds, trace order
    elapsed_seconds: float
    clients: int

    @property
    def matches(self) -> bool:
        """``True`` when every stamped line replayed bit-identically."""
        return not self.mismatches

    def percentiles(self) -> Dict[str, float]:
        return latency_percentiles(self.latencies)

    def as_dict(self) -> Dict[str, Any]:
        stamped = sum(1 for expected in self.expected if expected is not None)
        return {
            "requests": len(self.fingerprints),
            "stamped": stamped,
            "mismatches": self.mismatches,
            "matches": self.matches,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput_per_second": (
                len(self.fingerprints) / self.elapsed_seconds if self.elapsed_seconds else None
            ),
            "clients": self.clients,
            "latency": self.percentiles(),
        }


def latency_percentiles(latencies: Sequence[float]) -> Dict[str, float]:
    """Nearest-rank p50/p95/p99, keyed ``p50_seconds`` etc."""
    if not latencies:
        return {"p50_seconds": 0.0, "p95_seconds": 0.0, "p99_seconds": 0.0}
    ordered = sorted(latencies)
    count = len(ordered)

    def rank(quantile: float) -> float:
        index = min(count - 1, max(0, math.ceil(quantile * count) - 1))
        return ordered[index]

    return {
        "p50_seconds": rank(0.50),
        "p95_seconds": rank(0.95),
        "p99_seconds": rank(0.99),
    }


def replay_trace(
    service: Any,
    trace: Trace,
    *,
    clients: int = 8,
    pace: Optional[float] = None,
    timeout: Optional[float] = None,
) -> ReplayReport:
    """Replay *trace* through a :class:`ContainmentService`, in trace order.

    Closed-loop client threads drive :meth:`service.handle` over the lines
    (the same load-generator shape as the benchmarks); results land in trace
    order regardless of completion order.  With *pace* set, each request
    additionally waits until ``offset / pace`` seconds after the replay
    started before submitting — ``pace=1.0`` reproduces recorded arrival
    times, larger values replay faster; ``None`` (the default) replays as
    fast as the closed loop allows, which is the right mode for determinism
    testing and throughput measurement.

    Latency is measured around each ``handle`` call (after any pacing wait),
    so percentiles reflect service time, not trace-schedule idleness.
    """
    from ..service.service import REQUEST_TIMEOUT_SECONDS

    wait = REQUEST_TIMEOUT_SECONDS if timeout is None else timeout
    latencies: List[float] = [0.0] * len(trace.requests)
    started = time.perf_counter()

    def call(indexed: Tuple[int, TraceRequest]) -> str:
        index, request = indexed
        if pace is not None and pace > 0:
            due = started + request.offset / pace
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        begun = time.perf_counter()
        response = service.handle(dict(request.payload), timeout=wait)
        latencies[index] = time.perf_counter() - begun
        return response["fingerprint"]

    fingerprints = closed_loop(list(enumerate(trace.requests)), call, clients=clients)
    elapsed = time.perf_counter() - started
    expected = [request.expected for request in trace.requests]
    mismatches = [
        index
        for index, (fingerprint, stamped) in enumerate(zip(fingerprints, expected))
        if stamped is not None and fingerprint != stamped
    ]
    return ReplayReport(fingerprints, expected, mismatches, latencies, elapsed, clients)
