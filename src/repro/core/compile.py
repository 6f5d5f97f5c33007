"""Memoized regex → automaton compilation.

One :class:`CompiledAutomaton` bundles everything the solvers repeatedly
derive from an atom's regular expression — the ε-free Thompson NFA, the
trimmed minimal DFA, the productive-cycle and emptiness flags and the
pumped-normal-form word lists — computed lazily, each exactly once, and
shared process-wide through the :func:`compile_regex` memo (keyed by the
structural regex, whose hash and canonical token are themselves cached on
the expression).

Two invariants matter for verdict stability (the engine's fingerprints are
asserted bit-identical across serial/thread/process backends *and* across
cached/uncached runs):

* the NFA is exactly ``build_nfa(regex)`` — memoization changes *when* it is
  built, never *what* is built, so state numbering (which leaks into the
  rolled-up TBox's fresh concept names) is unchanged;
* :meth:`CompiledAutomaton.words` returns the NFA's pumped-normal-form
  enumeration verbatim (same words, same order) — the DFA accelerates
  language-level queries, it does not redefine the solver's completeness
  bound.

Pickling a compiled automaton ships only its regex and context
(:meth:`CompiledAutomaton.__reduce__`); the receiving process re-interns the
symbols into *its* tables and recompiles through its own memo, so worker
processes rebuild from interned tables instead of unpickling transition
maps.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..rpq.automaton import NFA, build_nfa
from ..rpq.regex import Regex, Symbol, canonical_token
from .dfa import DFA, determinize
from .interning import SymbolTable, symbol_table
from .kernels import DenseDFA

__all__ = [
    "CompiledAutomaton",
    "clear_compile_memo",
    "compile_regex",
    "has_productive_cycle",
    "install_compiled",
    "rebase_compiled",
]


def has_productive_cycle(nfa: NFA) -> bool:
    """``True`` when the (trimmed) automaton has a cycle, i.e. an infinite language.

    On a trimmed automaton every state is reachable and co-reachable, so any
    cycle pumps some accepted word.  This is the shared implementation behind
    the chase solver's finiteness test and the containment solver's
    ``pumped``-regime detection (both previously carried their own copy).
    """
    colour: Dict[int, int] = {}

    def dfs(state: int) -> bool:
        colour[state] = 1
        for _, target in nfa.transitions_from(state):
            if colour.get(target, 0) == 1:
                return True
            if colour.get(target, 0) == 0 and dfs(target):
                return True
        colour[state] = 2
        return False

    return any(dfs(state) for state in nfa.states if colour.get(state, 0) == 0)


class CompiledAutomaton:
    """A regex with every derived automaton artefact, each computed once.

    Instances are shared (via :func:`compile_regex` and the engine's automaton
    cache) and must be treated as immutable; the lazy fields are idempotent,
    so a benign race between threads at worst computes a value twice.
    """

    __slots__ = (
        "regex",
        "context",
        "table",
        "nfa",
        "_token",
        "_dfa",
        "_min_dfa",
        "_has_cycle",
        "_is_empty",
        "_words",
    )

    def __init__(self, regex: Regex, context: Optional[str] = None) -> None:
        self.regex = regex
        self.context = context
        self.table: SymbolTable = symbol_table(context)
        self.nfa: NFA = build_nfa(regex)
        self._token: Optional[str] = None
        self._dfa: Optional[DFA] = None
        self._min_dfa: Optional[DFA] = None
        self._has_cycle: Optional[bool] = None
        self._is_empty: Optional[bool] = None
        self._words: Dict[Tuple[int, int, int], Tuple[Tuple[Symbol, ...], ...]] = {}

    # ------------------------------------------------------------------ #
    @property
    def fingerprint(self) -> str:
        """The regex's canonical token — the memo/cache key material."""
        if self._token is None:
            self._token = canonical_token(self.regex)
        return self._token

    def dfa(self) -> DFA:
        """The subset-construction DFA (unminimised, reachable part only)."""
        if self._dfa is None:
            self._dfa = determinize(self.nfa, self.table)
        return self._dfa

    def minimal_dfa(self) -> DFA:
        """The trimmed minimal DFA — the canonical form of the language."""
        if self._min_dfa is None:
            self._min_dfa = self.dfa().minimize()
        return self._min_dfa

    def dense_minimal_dfa(self) -> "DenseDFA":
        """The minimal DFA's flat-array kernel form (memoized on the DFA).

        This is what the batch/emptiness kernels run on; it is derived from
        (and cached with) :meth:`minimal_dfa`, so it costs nothing extra
        after the first call.
        """
        return self.minimal_dfa().dense()

    def has_productive_cycle(self) -> bool:
        """Cached :func:`has_productive_cycle` of the NFA (infinite language?)."""
        if self._has_cycle is None:
            self._has_cycle = has_productive_cycle(self.nfa)
        return self._has_cycle

    def is_empty(self) -> bool:
        """Cached language-emptiness check."""
        if self._is_empty is None:
            self._is_empty = self.nfa.is_empty_language()
        return self._is_empty

    def shortest_witness(self) -> Optional[Tuple[Symbol, ...]]:
        """A shortest accepted word via DFA BFS (``None`` for the empty language)."""
        return self.minimal_dfa().shortest_witness()

    def words(
        self, max_length: int, max_state_repeats: int, max_words: int
    ) -> Tuple[Tuple[Symbol, ...], ...]:
        """The pumped-normal-form enumeration under the given bounds, memoized.

        Exactly ``tuple(nfa.enumerate_words(...))`` — word set *and* order —
        so solver verdicts, regimes and pattern counts are unchanged; repeat
        calls (per roll-up choice, per disjunct, per batch request) reuse the
        tuple instead of re-running the pumped search.
        """
        key = (max_length, max_state_repeats, max_words)
        cached = self._words.get(key)
        if cached is None:
            cached = tuple(
                self.nfa.enumerate_words(
                    max_length=max_length,
                    max_state_repeats=max_state_repeats,
                    max_words=max_words,
                )
            )
            self._words[key] = cached
        return cached

    # ------------------------------------------------------------------ #
    def __reduce__(self):
        # rebuild from the regex in the receiving process: symbols re-intern
        # into that process's tables and the compile memo deduplicates
        return (compile_regex, (self.regex, self.context))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompiledAutomaton({self.regex!s}, states={self.nfa.state_count()})"


# --------------------------------------------------------------------------- #
# the process-wide compile memo
# --------------------------------------------------------------------------- #
_MEMO_LIMIT = 4096

_memo_lock = threading.Lock()
_memo: "OrderedDict[Tuple[Optional[str], Regex], CompiledAutomaton]" = OrderedDict()


def compile_regex(regex: Regex, context: Optional[str] = None) -> CompiledAutomaton:
    """The shared :class:`CompiledAutomaton` for *regex* (bounded LRU memo).

    *context* selects the symbol table (callers pass a schema fingerprint so
    one schema's automata intern into one table); the memo key includes it,
    so the same regex compiled under two schemas yields two entries — each
    pinned to its table — while lookups by structural equality make
    separately-constructed equal regexes share one compilation.
    """
    key = (context, regex)
    with _memo_lock:
        cached = _memo.get(key)
        if cached is not None:
            _memo.move_to_end(key)
            return cached
    compiled = CompiledAutomaton(regex, context)
    with _memo_lock:
        existing = _memo.get(key)
        if existing is not None:
            return existing
        _memo[key] = compiled
        while len(_memo) > _MEMO_LIMIT:
            _memo.popitem(last=False)
    return compiled


def rebase_compiled(bundle: CompiledAutomaton, context: Optional[str]) -> CompiledAutomaton:
    """A clone of *bundle* under a new intern context, sharing every artefact.

    The schema-evolution path uses this to migrate automata between
    fingerprint namespaces: the NFA, DFAs, flags and pumped word lists are
    schema-content-independent (they derive from the regex alone), so the
    clone references them directly — only the context string changes.  The
    caller must have arranged (via :func:`repro.core.interning.adopt_context`)
    that the new context resolves to the *same* :class:`SymbolTable` object;
    the clone pins ``bundle.table`` verbatim either way, so cross-automaton
    DFA operations keep comparing ids from one table.
    """
    clone = CompiledAutomaton.__new__(CompiledAutomaton)
    clone.regex = bundle.regex
    clone.context = context
    clone.table = bundle.table
    clone.nfa = bundle.nfa
    clone._token = bundle._token
    clone._dfa = bundle._dfa
    clone._min_dfa = bundle._min_dfa
    clone._has_cycle = bundle._has_cycle
    clone._is_empty = bundle._is_empty
    # an independent dict: later enumerations under one context must not
    # publish into the other bundle (the tuples themselves are shared)
    clone._words = dict(bundle._words)
    return clone


def install_compiled(bundle: CompiledAutomaton) -> CompiledAutomaton:
    """Insert *bundle* into the process-wide memo; returns the canonical entry.

    If the memo already holds a compilation for ``(bundle.context,
    bundle.regex)`` that one wins (first-writer semantics, exactly like
    :func:`compile_regex`'s double-checked insert) and is returned instead.
    """
    key = (bundle.context, bundle.regex)
    with _memo_lock:
        existing = _memo.get(key)
        if existing is not None:
            _memo.move_to_end(key)
            return existing
        _memo[key] = bundle
        while len(_memo) > _MEMO_LIMIT:
            _memo.popitem(last=False)
    return bundle


def clear_compile_memo() -> int:
    """Drop every memoized compilation (benchmarks use this for cold runs)."""
    with _memo_lock:
        count = len(_memo)
        _memo.clear()
    return count
