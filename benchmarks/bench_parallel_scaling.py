"""Parallel-scaling benchmark: the process backend versus the serial path.

Two claims are checked on the synthetic scaling workload
(:func:`repro.workloads.batches.synthetic_batch` — one chain schema, every
prefix-path left × every start-label right, all requests distinct):

1. **determinism** — the serial and process backends return
   fingerprint-identical `ContainmentResult`s (always asserted, any machine);
2. **speedup** — on a machine with ≥ 4 cores, a cold process batch over one
   worker per core is **≥ 2× faster** than the cold serial batch (the
   acceptance gate; skipped, with a diagnostic line, on smaller machines
   where the GIL-free workers have no cores to run on).

Worker start-up (interpreter spawn + import) is excluded from the timing:
before the clock starts, every worker answers a statistics request, which
it can only do once it is up (``WorkerPool.start()`` alone returns as soon
as the processes are spawned, before they have imported anything); that
cost is amortised over a pool's lifetime by design — the pool is
persistent.  Every arm starts by clearing
the process-wide compile memo (:func:`repro.core.clear_compile_memo`), so
no arm runs on automata an earlier arm or test compiled in this process:
the serial arm is as cold as the freshly spawned workers.
"""

import os
import time

import pytest

from repro.core import clear_compile_memo
from repro.engine import ContainmentEngine, result_fingerprint
from repro.workloads.batches import synthetic_batch

GATE_MIN_CORES = 4
GATE_SPEEDUP = 2.0
GATE_CHAIN_LENGTH = 12


def _fingerprints(results):
    return [result_fingerprint(result) for result in results]


def _run_serial(schema, pairs):
    clear_compile_memo()
    engine = ContainmentEngine()
    started = time.perf_counter()
    results = engine.check_many(pairs, schema=schema)
    return results, time.perf_counter() - started


def _run_process(schema, pairs, workers):
    clear_compile_memo()
    engine = ContainmentEngine(max_workers=workers)
    try:
        engine.process_pool().worker_stats()  # every worker up before the clock
        started = time.perf_counter()
        results = engine.check_many(pairs, schema=schema, parallel="process")
        return results, time.perf_counter() - started
    finally:
        engine.shutdown()


def test_process_backend_is_deterministic_on_scaling_workload():
    """Fingerprint-identical verdicts, independent of machine size."""
    schema, pairs = synthetic_batch(5)
    serial_results, _ = _run_serial(schema, pairs)
    process_results, _ = _run_process(schema, pairs, workers=2)
    assert _fingerprints(process_results) == _fingerprints(serial_results)


def test_process_backend_speedup_gate():
    """≥ 2× over serial on a ≥ 4-core machine (the acceptance criterion)."""
    cores = os.cpu_count() or 1
    schema, pairs = synthetic_batch(GATE_CHAIN_LENGTH)

    serial_results, serial_seconds = _run_serial(schema, pairs)
    workers = min(cores, 8)
    process_results, process_seconds = _run_process(schema, pairs, workers)

    assert _fingerprints(process_results) == _fingerprints(serial_results)

    speedup = serial_seconds / process_seconds if process_seconds else float("inf")
    print(
        f"\nparallel scaling: {len(pairs)} tasks, {workers} workers on {cores} cores — "
        f"serial {serial_seconds * 1000:.0f} ms, process {process_seconds * 1000:.0f} ms, "
        f"speedup {speedup:.2f}x"
    )
    if cores < GATE_MIN_CORES:
        # the ::notice makes the skipped gate visible on the CI run page —
        # a silently missing gate reads as a passing one otherwise
        print(
            f"::notice title=Parallel scaling gate skipped::speedup gate needs "
            f">= {GATE_MIN_CORES} cores, this runner has {cores}; determinism "
            "was still asserted"
        )
        pytest.skip(
            f"speedup gate needs >= {GATE_MIN_CORES} cores (found {cores}); "
            "determinism was still asserted above"
        )
    assert speedup >= GATE_SPEEDUP, (
        f"process backend speedup {speedup:.2f}x < required {GATE_SPEEDUP}x "
        f"({workers} workers, {cores} cores)"
    )


def test_worker_scaling_profile():
    """Informational: batch time at 1, 2, … workers (no gate)."""
    cores = os.cpu_count() or 1
    if cores < 2:
        pytest.skip(f"scaling profile needs >= 2 cores (found {cores})")
    schema, pairs = synthetic_batch(8)
    _, serial_seconds = _run_serial(schema, pairs)
    print(f"\nworker scaling on {len(pairs)} tasks: serial {serial_seconds * 1000:.0f} ms")
    workers = 1
    while workers <= min(cores, 8):
        _, seconds = _run_process(schema, pairs, workers)
        print(f"  {workers} workers: {seconds * 1000:.0f} ms ({serial_seconds / seconds:.2f}x)")
        workers *= 2
