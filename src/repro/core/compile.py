"""Memoized regex → automaton compilation.

One :class:`CompiledAutomaton` bundles everything the solvers repeatedly
derive from an atom's regular expression — the ε-free Thompson NFA, the
productive-cycle and emptiness flags and the pumped-normal-form word lists
— computed lazily, each exactly once, and shared process-wide through the
:func:`compile_regex` memo.  The memo is keyed by the structural regex alone
(whose hash and canonical token are themselves cached on the expression):
every artefact in the bundle is a function of the regex, never of a schema,
so one bundle serves every schema, engine and caller in the process, and
nothing in it can go stale when a schema changes.  The memo counts its own
hits, misses and evictions (:func:`compile_memo_stats`), which is what the
engine reports as its ``automata`` statistics.

Two invariants matter for verdict stability (the engine's fingerprints are
asserted bit-identical across the serial and process backends *and* across
cached/uncached runs):

* the NFA is exactly ``build_nfa(regex)`` — memoization changes *when* it is
  built, never *what* is built, so state numbering (which leaks into the
  rolled-up TBox's fresh concept names) is unchanged;
* :meth:`CompiledAutomaton.words` returns the NFA's pumped-normal-form
  enumeration verbatim (same words, same order) — the memo changes when the
  words are computed, never the solver's completeness bound.

Pickling a compiled automaton ships only its regex
(:meth:`CompiledAutomaton.__reduce__`); the receiving process recompiles
through its own memo instead of unpickling transition maps.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..rpq.automaton import NFA, build_nfa
from ..rpq.regex import Regex, Symbol, canonical_token

__all__ = [
    "CompiledAutomaton",
    "clear_compile_memo",
    "compile_memo_stats",
    "compile_regex",
    "has_productive_cycle",
]


def has_productive_cycle(nfa: NFA) -> bool:
    """``True`` when the (trimmed) automaton has a cycle, i.e. an infinite language.

    On a trimmed automaton every state is reachable and co-reachable, so any
    cycle pumps some accepted word.  This is the shared implementation behind
    the chase solver's finiteness test and the containment solver's
    ``pumped``-regime detection (both previously carried their own copy).
    """
    # DFS colouring on an explicit stack: 1 while a state is on the DFS
    # path, 2 once everything below it is explored
    colour: Dict[int, int] = {}
    for root in nfa.states:
        if root in colour:
            continue
        colour[root] = 1
        path = [(root, nfa.transitions_from(root))]
        while path:
            state, moves = path[-1]
            for _, target in moves:
                seen = colour.get(target, 0)
                if seen == 1:
                    return True
                if seen == 0:
                    colour[target] = 1
                    path.append((target, nfa.transitions_from(target)))
                    break
            else:
                colour[state] = 2
                path.pop()
    return False


class CompiledAutomaton:
    """A regex with every derived automaton artefact, each computed once.

    Instances are shared (via :func:`compile_regex`) and must be treated as
    immutable; the lazy fields are idempotent, so a benign race between
    threads at worst computes a value twice.
    """

    __slots__ = (
        "regex",
        "nfa",
        "_token",
        "_has_cycle",
        "_is_empty",
        "_words",
    )

    def __init__(self, regex: Regex) -> None:
        self.regex = regex
        self.nfa: NFA = build_nfa(regex)
        self._token: Optional[str] = None
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
        # rebuild from the regex in the receiving process: the compile memo
        # deduplicates
        return (compile_regex, (self.regex,))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompiledAutomaton({self.regex!s}, states={self.nfa.state_count()})"


# --------------------------------------------------------------------------- #
# the process-wide compile memo
# --------------------------------------------------------------------------- #
_MEMO_LIMIT = 4096

_memo_lock = threading.Lock()
_memo: "OrderedDict[Regex, CompiledAutomaton]" = OrderedDict()
# lookups that found a bundle, lookups that compiled one, and bundles
# dropped to stay under _MEMO_LIMIT (all under _memo_lock)
_memo_counts = {"hits": 0, "misses": 0, "evictions": 0}


def compile_regex(regex: Regex) -> CompiledAutomaton:
    """The shared :class:`CompiledAutomaton` for *regex* (bounded LRU memo).

    Lookups go by structural equality, so separately-constructed equal
    regexes share one compilation.
    """
    with _memo_lock:
        cached = _memo.get(regex)
        if cached is not None:
            # by the stored key itself: an equal regex built separately
            # would be compared node by node a second time
            _memo.move_to_end(cached.regex)
            _memo_counts["hits"] += 1
            return cached
        _memo_counts["misses"] += 1
    compiled = CompiledAutomaton(regex)
    with _memo_lock:
        existing = _memo.get(regex)
        if existing is not None:
            return existing
        _memo[regex] = compiled
        while len(_memo) > _MEMO_LIMIT:
            _memo.popitem(last=False)
            _memo_counts["evictions"] += 1
    return compiled


def compile_memo_stats() -> Tuple[int, int, int]:
    """The memo's ``(hits, misses, evictions)`` since the last clear.

    The counters are process-wide: every :func:`compile_regex` caller —
    stage 5, the roll-up, query evaluation — counts, whichever engine (if
    any) it runs under.
    """
    with _memo_lock:
        return _memo_counts["hits"], _memo_counts["misses"], _memo_counts["evictions"]


def clear_compile_memo() -> int:
    """Drop every memoized compilation and zero the memo's counters
    (benchmarks use this for cold runs); returns the entry count dropped."""
    with _memo_lock:
        count = len(_memo)
        _memo.clear()
        for name in _memo_counts:
            _memo_counts[name] = 0
    return count
