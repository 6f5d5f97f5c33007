"""Schema-update benchmark: the warm re-run after a schema edit versus a cold one.

The claim behind serving schema updates by invalidation: after a
**single-axiom edit** to a zoo schema, an engine that ran
:meth:`~repro.engine.ContainmentEngine.invalidate_schema` on the old schema
re-decides the workload against the new one **≥ 2× faster** than a cold
engine that recompiles everything — without changing a single verdict bit.
The edited schema keys fresh cache entries, and the compiled automata stay
warm because the process-wide compile memo is keyed by regex alone.

The workload is :func:`repro.workloads.zoo.heavy_evolution_corpus`: wide
balanced-union left regexes whose NFA construction dominates the chase once
enumeration is capped at :data:`~repro.workloads.zoo.HEAVY_EVOLUTION_WORD_CAP`
words per atom.  That is the honest shape for this gate — compiled automata
are regex-only artefacts and the *only* expensive work a multiplicity edit
leaves intact (completed TBoxes embed the edited axioms, so they must be
rebuilt on both sides of the comparison).

Fingerprint identity is asserted **before** any timing claim: a fast wrong
answer is not a speedup.  The cold run happens on a fresh engine after
:func:`~repro.core.clear_compile_memo`, so it holds nothing a brand-new
process would lack; measured ~10–20× here.
"""

import time

from repro.chase.solver import SatisfiabilityConfig
from repro.containment.solver import ContainmentConfig
from repro.core import clear_compile_memo
from repro.engine import ContainmentEngine, result_fingerprint
from repro.workloads.zoo import HEAVY_EVOLUTION_WORD_CAP, heavy_evolution_corpus

GATE_SPEEDUP = 2.0
QUERIES = 8

CONFIG = ContainmentConfig(
    satisfiability=SatisfiabilityConfig(max_words_per_atom=HEAVY_EVOLUTION_WORD_CAP)
)


def _run(engine, schema, pairs):
    started = time.perf_counter()
    results = [engine.contains(left, right, schema, CONFIG) for left, right in pairs]
    elapsed = time.perf_counter() - started
    return [result_fingerprint(result) for result in results], elapsed


def test_warm_evolve_speedup_gate():
    """≥ 2× for the re-run after the old schema is invalidated."""
    old_schema, new_schema, pairs = heavy_evolution_corpus(queries=QUERIES)

    clear_compile_memo()
    engine = ContainmentEngine()
    try:
        _run(engine, old_schema, pairs)  # warm the old namespace
        report = engine.invalidate_schema(old_schema)
        compiled_before = engine.stats.automata.misses
        warm_fps, warm_seconds = _run(engine, new_schema, pairs)
        compiled = engine.stats.automata.misses - compiled_before
    finally:
        engine.close()

    clear_compile_memo()
    cold_engine = ContainmentEngine()
    try:
        cold_fps, cold_seconds = _run(cold_engine, new_schema, pairs)
    finally:
        cold_engine.close()

    # identity first: the speedup claim is void if a single bit moved
    assert warm_fps == cold_fps, "post-update verdicts diverged from cold start"
    assert report.results == len(pairs)
    assert compiled == 0, f"the post-update run compiled {compiled} automata — it is not warm"

    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
    print(
        f"\nschema update: {len(pairs)} heavy containment tests — "
        f"post-update {warm_seconds * 1000:.0f} ms, cold {cold_seconds * 1000:.0f} ms, "
        f"speedup {speedup:.1f}x (automata compiled after the update: {compiled})"
    )
    assert speedup >= GATE_SPEEDUP, (
        f"warm post-update speedup {speedup:.1f}x < required {GATE_SPEEDUP}x"
    )
