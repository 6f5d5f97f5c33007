"""Schema-evolution benchmark: warm ``evolve()`` versus a cold re-run.

The claim behind the incremental containment subsystem
(:mod:`repro.engine.delta`): after a **single-axiom edit** to a zoo schema,
an engine that ran :meth:`~repro.engine.ContainmentEngine.evolve` and kept
its compiled automata warm re-decides the workload
**≥ 2× faster** than a cold engine that recompiles everything — without
changing a single verdict bit.

The workload is :func:`repro.workloads.zoo.heavy_evolution_corpus`: wide
balanced-union left regexes whose NFA construction dominates the chase once
enumeration is capped at :data:`~repro.workloads.zoo.HEAVY_EVOLUTION_WORD_CAP`
words per atom.  That is the honest shape for this gate — compiled automata
are regex-only artefacts (the process-wide compile memo is keyed by regex)
and the *only* expensive work a multiplicity edit leaves intact (completed TBoxes embed the edited axioms, so they must be
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
    """≥ 2× for the post-evolve re-run (the acceptance criterion)."""
    old_schema, new_schema, pairs = heavy_evolution_corpus(queries=QUERIES)

    clear_compile_memo()
    engine = ContainmentEngine()
    try:
        _run(engine, old_schema, pairs)  # warm the old namespace
        report = engine.evolve(old_schema, new_schema)
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
    assert warm_fps == cold_fps, "post-evolve verdicts diverged from cold start"
    assert not report.trivial
    assert compiled == 0, f"the post-evolve run compiled {compiled} automata — it is not warm"

    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
    print(
        f"\nschema evolution: {len(pairs)} heavy containment tests — "
        f"post-evolve {warm_seconds * 1000:.0f} ms, cold {cold_seconds * 1000:.0f} ms, "
        f"speedup {speedup:.1f}x (automata compiled after evolve: {compiled})"
    )
    assert speedup >= GATE_SPEEDUP, (
        f"warm evolve speedup {speedup:.1f}x < required {GATE_SPEEDUP}x"
    )


def test_trivial_evolve_costs_nothing_and_keeps_everything():
    """The degenerate edit (a rename) must not thrash any cache tier."""
    old_schema, _, pairs = heavy_evolution_corpus(queries=2)
    renamed = old_schema.copy(name="renamed")
    with ContainmentEngine() as cold_engine:
        baseline_fps, _ = _run(cold_engine, renamed, pairs)
    with ContainmentEngine() as engine:
        _run(engine, old_schema, pairs)
        report = engine.evolve(old_schema, renamed)
        assert report.trivial
        assert sum(report.invalidated.values()) == 0
        hits_before = engine.stats.results.hits
        renamed_fps, _ = _run(engine, renamed, pairs)
        assert engine.stats.results.hits == hits_before + len(pairs)
    assert renamed_fps == baseline_fps
