"""The compiled automaton core: shared, memoized regex compilation.

This layer sits between the regex AST (:mod:`repro.rpq.regex`) and every
automaton consumer — query evaluation, the chase solver's witness
enumeration, the containment pipeline and the caching engine (see
docs/ARCHITECTURE.md, "The compiled automaton core"):

* :class:`CompiledAutomaton` / :func:`compile_regex` — the memoized bundle
  of NFA, cycle/emptiness flags and pumped word lists per structural regex,
  one per regex process-wide (:func:`clear_compile_memo` resets it for cold
  runs; :func:`compile_memo_stats` reads its hit/miss/eviction counters);
* :func:`has_productive_cycle` — the shared finiteness test.

``repro.core.kernels`` holds the int-bitset kernels behind NFA construction
and word enumeration; ``benchmarks/bench_automaton_compile.py`` measures
this layer.
"""

from .compile import (
    CompiledAutomaton,
    clear_compile_memo,
    compile_memo_stats,
    compile_regex,
    has_productive_cycle,
)

__all__ = [
    "CompiledAutomaton",
    "clear_compile_memo",
    "compile_memo_stats",
    "compile_regex",
    "has_productive_cycle",
]
