"""Persistent-store benchmark: warm-start from disk versus a cold engine.

Two claims are checked on the mixed workload
(:func:`repro.workloads.batches.mixed_batch` — medical + FHIR + social +
synthetic, four schemas, every request distinct):

1. **determinism** — verdicts are fingerprint-identical with the store off,
   cold, and warm, and across the serial and process backends with the
   store behind the engine (always asserted, any machine);
2. **speedup** — a second run of the batch against the now-populated store
   file, from a fresh engine with the process-wide compile memo cleared
   (everything a brand-new process would not have), is **≥ 2× faster** than
   the cold run that had to solve everything (the acceptance gate; measured
   ~20–40× here, disk replay versus the chase).

Unlike the parallel-scaling gate this one needs no cores: the contrast is
compute versus disk, so it holds on a one-core CI runner.
"""

import time

import pytest

from repro.core import clear_compile_memo
from repro.engine import ContainmentEngine, result_fingerprint
from repro.workloads.batches import mixed_batch

GATE_SPEEDUP = 2.0
MIX_LENGTH = 6


@pytest.fixture()
def store_path(tmp_path):
    return tmp_path / "store.db"


def _run(persist):
    """One batch on a fresh engine over freshly built request objects.

    Rebuilding the batch drops every warm in-process artefact a new process
    would lack — cached canonical tokens on the query objects included — so
    the warm measurement credits the store, not leftover heat.
    """
    requests = mixed_batch(length=MIX_LENGTH)
    clear_compile_memo()
    with ContainmentEngine(persist=persist) as engine:
        started = time.perf_counter()
        results = engine.check_many(requests)
        elapsed = time.perf_counter() - started
        return [result_fingerprint(result) for result in results], elapsed, engine.stats


def test_warm_store_speedup_gate(store_path):
    """≥ 2× for the persistent-warm rerun (the acceptance criterion)."""
    baseline_fps, _, _ = _run(None)
    cold_fps, cold_seconds, cold_stats = _run(store_path)
    warm_fps, warm_seconds, warm_stats = _run(store_path)

    assert cold_fps == baseline_fps, "persist-on cold run changed verdicts"
    assert warm_fps == baseline_fps, "disk-replayed verdicts differ"
    assert cold_stats.store.writes >= len(baseline_fps)
    assert warm_stats.store.hits == len(baseline_fps)
    assert warm_stats.store.errors == 0

    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
    print(
        f"\npersistent store: {len(baseline_fps)} mixed tasks — "
        f"cold {cold_seconds * 1000:.0f} ms, warm {warm_seconds * 1000:.0f} ms, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= GATE_SPEEDUP, (
        f"warm-store rerun speedup {speedup:.1f}x < required {GATE_SPEEDUP}x"
    )


def test_fingerprints_identical_across_backends_with_store(store_path):
    """persist-off / persist-on × serial / process all agree."""
    requests = mixed_batch(length=3)
    baseline = ContainmentEngine().check_many(requests)
    fingerprints = [result_fingerprint(result) for result in baseline]

    for backend in ("serial", "process"):
        engine = ContainmentEngine(persist=store_path, max_workers=2)
        try:
            results = engine.check_many(requests, parallel=backend)
            assert [result_fingerprint(result) for result in results] == fingerprints, (
                f"{backend} backend with the store diverged from the bare serial run"
            )
        finally:
            engine.close()

    # and once more entirely from disk, on a fresh engine
    engine = ContainmentEngine(persist=store_path)
    try:
        replayed = engine.check_many(requests)
        assert [result_fingerprint(result) for result in replayed] == fingerprints
        assert engine.stats.store.hits == len(requests)
    finally:
        engine.close()
