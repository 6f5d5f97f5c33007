#!/usr/bin/env python
"""Service smoke check (the CI ``service-smoke`` step).

End-to-end, over a real socket, against the real CLI:

1. start ``python -m repro serve --port 0`` as a subprocess and parse the
   ephemeral port from its banner line;
2. fire N concurrent ``POST /contain`` requests (closed-loop client
   threads replaying :func:`repro.workloads.streams.request_payloads`) and
   require every response to be a 200 whose ``fingerprint`` matches the
   serial in-process baseline for the same request — the serving stack must
   not change a single verdict bit;
3. send one ``POST /batch`` of two payloads whose schema texts differ only
   in the schema's name: the coalescer merges them (schema fingerprints
   ignore names), yet each response must carry its own ``schema`` name and
   the ``fingerprint`` of a serial in-process engine;
4. check ``GET /healthz`` and ``GET /stats`` answer sensibly;
5. send SIGINT and require a clean, prompt exit (the lifecycle ordering
   under test: coalescer drains, pool terminates, store closes, no zombie
   children, exit code 0).

Exits non-zero with a diagnostic on any failure.  Runs in ~15 s; no
dependencies beyond the repo and the standard library.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import List, Tuple

ROOT = Path(__file__).resolve().parent.parent
REQUESTS = 24
CLIENTS = 6
STREAM_LENGTH = 3
BANNER = re.compile(r"listening on (http://[^\s]+)")


def fail(message: str) -> None:
    print(f"service-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def serial_fingerprints(payloads) -> List[str]:
    from repro.engine import ContainmentEngine, result_fingerprint
    from repro.workloads.streams import request_stream

    stream = request_stream(len(payloads), length=STREAM_LENGTH)
    with ContainmentEngine() as engine:
        results = engine.check_many([(left, right, schema) for left, right, schema in stream])
    return [result_fingerprint(result) for result in results]


def renamed_schema_payloads() -> Tuple[List[dict], List[Tuple[str, str]]]:
    """Two ``/batch`` payloads differing only in the schema's name, and the
    ``(schema, fingerprint)`` pairs a serial engine answers them with."""
    from repro.engine import ContainmentEngine, result_fingerprint
    from repro.rpq.parser import parse_c2rpq
    from repro.schema.parser import parse_schema, schema_to_text
    from repro.workloads import medical

    source = medical.source_schema()
    texts = [schema_to_text(source.copy(name=name)) for name in ("SmokeA", "SmokeB")]
    left, right = "p(x) := (designTarget)(x, y)", "q(x) := Vaccine(x)"
    payloads = [{"schema": text, "left": left, "right": right} for text in texts]
    with ContainmentEngine() as engine:
        results = [
            engine.contains(parse_c2rpq(left), parse_c2rpq(right), parse_schema(text))
            for text in texts
        ]
    return payloads, [(result.schema_name, result_fingerprint(result)) for result in results]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.workloads.streams import request_payloads

    payloads = request_payloads(REQUESTS, length=STREAM_LENGTH)
    baseline = serial_fingerprints(payloads)

    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--coalesce-window", "5"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        banner = process.stdout.readline()
        match = BANNER.search(banner or "")
        if match is None:
            process.kill()
            fail(f"no listening banner (got {banner!r})")
        url = match.group(1)
        print(f"service-smoke: server up at {url}")

        def post(payload) -> Tuple[int, str]:
            request = urllib.request.Request(
                url + "/contain",
                data=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(request, timeout=120) as response:
                    return response.status, json.loads(response.read())["fingerprint"]
            except urllib.error.HTTPError as error:
                # keep the per-status diagnostic below reachable: a 4xx/5xx
                # is a recorded status, not a crashed client thread
                return error.code, ""

        from repro.workloads.streams import closed_loop

        started = time.perf_counter()
        try:
            responses = closed_loop(payloads, post, clients=CLIENTS)
        except RuntimeError as error:
            fail(f"concurrent requests failed: {error} ({error.__cause__})")
        elapsed = time.perf_counter() - started
        statuses = [status for status, _ in responses]
        fingerprints = [fingerprint for _, fingerprint in responses]

        if statuses != [200] * len(payloads):
            fail(f"non-200 responses: {[s for s in statuses if s != 200]}")
        if fingerprints != baseline:
            mismatches = sum(1 for a, b in zip(fingerprints, baseline) if a != b)
            fail(f"{mismatches} fingerprint mismatch(es) against the serial baseline")
        print(
            f"service-smoke: {len(payloads)} concurrent requests OK in {elapsed * 1000:.0f} ms, "
            "all fingerprints match the serial baseline"
        )

        renamed, expected = renamed_schema_payloads()
        request = urllib.request.Request(
            url + "/batch",
            data=json.dumps({"requests": renamed}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=120) as response:
                answers = json.loads(response.read())["results"]
        except urllib.error.HTTPError as error:
            fail(f"POST /batch of renamed schemas answered {error.code}")
        got = [(answer["schema"], answer["fingerprint"]) for answer in answers]
        if got != expected:
            fail(f"renamed-schema batch answered {got}, serial engine {expected}")
        print("service-smoke: renamed-schema batch keeps each schema's name and fingerprint")

        with urllib.request.urlopen(url + "/healthz", timeout=30) as response:
            health = json.loads(response.read())
        if health.get("status") != "ok":
            fail(f"unhealthy: {health}")
        with urllib.request.urlopen(url + "/stats", timeout=30) as response:
            stats = json.loads(response.read())
        if stats["coalescer"]["submitted"] < len(payloads) + len(renamed):
            fail(f"stats undercount traffic: {stats['coalescer']}")
        print(
            f"service-smoke: healthz/stats OK "
            f"({stats['coalescer']['batches']} batches, "
            f"{stats['coalescer']['deduplicated']} deduplicated)"
        )

        process.send_signal(signal.SIGINT)
        try:
            code = process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            fail("server did not shut down within 30 s of SIGINT")
        if code != 0:
            fail(f"server exited with code {code} on SIGINT")
        print("service-smoke: clean shutdown on SIGINT — PASS")
        return 0
    finally:
        if process.poll() is None:
            process.kill()


if __name__ == "__main__":
    raise SystemExit(main())
