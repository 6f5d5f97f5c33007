#!/usr/bin/env python
"""Schema-update smoke check (the CI ``evolve-smoke`` step).

End-to-end, over a real socket, against the real CLI:

1. start ``python -m repro serve --port 0`` and warm it with ``POST
   /contain`` requests against the *old* zoo evolution schema;
2. ``POST /schema-update`` the single-axiom edit mid-stream and require a
   200 whose reply says the update was non-trivial (the server invalidates
   the old schema's cache entries; the new schema keys fresh ones);
3. replay the workload against the *new* schema on the updated server,
   record every verdict fingerprint, and require the replay to compile no
   automaton (``/stats`` → ``engine.caches.automata.misses`` unchanged: the
   compile memo is keyed by regex, so the edit leaves every bundle warm);
4. SIGINT the server, start a **fresh** one (the cold-restarted baseline —
   nothing survives the process boundary), replay the new-schema workload
   again, and require the two fingerprint sequences to be identical:
   a schema update must never change a verdict bit;
5. require ``GET /stats`` on the updated server to count the update and
   carry its reply under ``evolve``,
   and both shutdowns to be clean (SIGINT → exit 0).

Exits non-zero with a diagnostic on any failure.  Runs in a few seconds; no
dependencies beyond the repo and the standard library.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
QUERIES = 6
BANNER = re.compile(r"listening on (http://[^\s]+)")


def fail(message: str) -> None:
    print(f"evolve-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def start_server() -> Tuple[subprocess.Popen, str]:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    banner = process.stdout.readline()
    match = BANNER.search(banner or "")
    if match is None:
        process.kill()
        fail(f"no listening banner (got {banner!r})")
    return process, match.group(1)


def stop_server(process: subprocess.Popen) -> None:
    process.send_signal(signal.SIGINT)
    try:
        code = process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        fail("server did not shut down within 30 s of SIGINT")
    if code != 0:
        fail(f"server exited with code {code} on SIGINT")


def post(url: str, path: str, payload) -> Tuple[int, dict]:
    request = urllib.request.Request(
        url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read() or b"{}")


def get_stats(url: str) -> dict:
    with urllib.request.urlopen(url + "/stats", timeout=30) as response:
        return json.loads(response.read())


def replay(url: str, payloads: List[dict]) -> List[str]:
    fingerprints = []
    for index, payload in enumerate(payloads):
        status, body = post(url, "/contain", payload)
        if status != 200:
            fail(f"/contain request {index} returned {status}: {body.get('error')}")
        fingerprints.append(body["fingerprint"])
    return fingerprints


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.schema.parser import schema_to_text
    from repro.workloads.zoo import evolution_corpus

    old_schema, new_schema, pairs = evolution_corpus(queries=QUERIES)
    old_text = schema_to_text(old_schema)
    new_text = schema_to_text(new_schema)
    old_payloads = [
        {"schema": old_text, "left": str(left), "right": str(right)} for left, right in pairs
    ]
    new_payloads = [
        {"schema": new_text, "left": str(left), "right": str(right)} for left, right in pairs
    ]

    process, url = start_server()
    evolved_fps: Optional[List[str]] = None
    try:
        print(f"evolve-smoke: server up at {url}")
        replay(url, old_payloads)  # warm the old namespace mid-stream

        status, report = post(url, "/schema-update", {"old": old_text, "new": new_text})
        if status != 200 or not report.get("evolved"):
            fail(f"/schema-update returned {status}: {report}")
        if report.get("trivial"):
            fail(
                "the single-axiom edit was treated as trivial: "
                f"{report['schema_fingerprint']} -> {report['new_fingerprint']}"
            )
        print(
            "evolve-smoke: /schema-update OK "
            f"(invalidated results: {report['invalidated']['results']})"
        )

        compiled_before = get_stats(url)["engine"]["caches"]["automata"]["misses"]
        evolved_fps = replay(url, new_payloads)
        stats = get_stats(url)
        compiled = stats["engine"]["caches"]["automata"]["misses"] - compiled_before
        if compiled:
            fail(f"the post-evolve replay compiled {compiled} automata; expected none")
        if stats["service"].get("schema_updates") != 1:
            fail(f"stats do not count the schema update: {stats['service']}")
        if "evolve" not in stats:
            fail("stats carry no evolve report after /schema-update")
        stop_server(process)
        print("evolve-smoke: evolved server replayed and shut down cleanly")
    finally:
        if process.poll() is None:
            process.kill()

    # the cold-restarted baseline: a fresh process, nothing carried over
    process, url = start_server()
    try:
        print(f"evolve-smoke: cold-restarted server up at {url}")
        cold_fps = replay(url, new_payloads)
        stop_server(process)
    finally:
        if process.poll() is None:
            process.kill()

    if evolved_fps != cold_fps:
        mismatches = sum(1 for a, b in zip(evolved_fps, cold_fps) if a != b)
        fail(f"{mismatches} fingerprint mismatch(es) between evolved and cold-restarted runs")
    print(
        f"evolve-smoke: {len(new_payloads)} post-evolve fingerprints identical "
        "to the cold-restarted baseline — PASS"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
