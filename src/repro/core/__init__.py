"""The compiled automaton core: shared, memoized regex compilation.

This layer sits between the regex AST (:mod:`repro.rpq.regex`) and every
automaton consumer — query evaluation, the chase solver's witness
enumeration, the containment pipeline and the caching engine (see
docs/ARCHITECTURE.md, "The compiled automaton core"):

* :class:`CompiledAutomaton` / :func:`compile_regex` — the memoized bundle
  of NFA, cycle/emptiness flags and pumped word lists per structural regex
  and schema context (:func:`clear_compile_memo` resets it for cold runs;
  :func:`rebase_compiled` / :func:`install_compiled` are the
  schema-evolution hooks that migrate bundles between fingerprint
  namespaces);
* :func:`has_productive_cycle` — the shared finiteness test.

``repro.core.kernels`` holds the int-bitset kernels behind NFA construction
and word enumeration; ``benchmarks/bench_automaton_compile.py`` measures
this layer.
"""

from .compile import (
    CompiledAutomaton,
    clear_compile_memo,
    compile_regex,
    has_productive_cycle,
    install_compiled,
    rebase_compiled,
)

__all__ = [
    "CompiledAutomaton",
    "clear_compile_memo",
    "compile_regex",
    "has_productive_cycle",
    "install_compiled",
    "rebase_compiled",
]
