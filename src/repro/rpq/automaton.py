"""Nondeterministic finite automata for two-way regular expressions.

The automata read words over the alphabet Γ ∪ Σ± whose letters are the
:class:`~repro.rpq.regex.NodeTest` and :class:`~repro.rpq.regex.EdgeStep`
symbols.  They are used in three places:

* query evaluation over graphs (product-graph reachability);
* the rolling-up construction of Appendix C (Lemma C.2), which simulates the
  automata inside a Horn-ALCIF TBox;
* the satisfiability engine, which enumerates witnessing words in *pumped
  normal form* — words whose runs repeat no automaton state more than a
  configurable number of times.

The construction is a standard Thompson translation followed by ε-elimination,
so the number of states is linear in the size of the expression (as required
for the polynomial-time rolling-up of Lemma C.2).  The ε-elimination only
computes the moves of the states the ε-free automaton can enter — the start
state and the targets of labelled transitions — because the trim that
follows would drop every other state's moves.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

from .regex import Concat, EdgeStep, EmptyLanguage, Epsilon, NodeTest, Regex, Star, Symbol, Union, fold

__all__ = ["NFA", "build_nfa"]


class NFA:
    """A nondeterministic finite automaton over Γ ∪ Σ± (no ε-transitions)."""

    def __init__(
        self,
        states: Iterable[int],
        initial: Iterable[int],
        final: Iterable[int],
        transitions: Iterable[Tuple[int, Symbol, int]],
    ) -> None:
        self.states: FrozenSet[int] = frozenset(states)
        self.initial: FrozenSet[int] = frozenset(initial)
        self.final: FrozenSet[int] = frozenset(final)
        self._forward: Dict[int, Dict[Symbol, Set[int]]] = {s: {} for s in self.states}
        self._transitions: List[Tuple[int, Symbol, int]] = []
        for source, symbol, target in transitions:
            self._forward.setdefault(source, {}).setdefault(symbol, set()).add(target)
            self._transitions.append((source, symbol, target))

    # ------------------------------------------------------------------ #
    def transitions(self) -> Iterator[Tuple[int, Symbol, int]]:
        """Iterate over all transitions ``(source, symbol, target)``."""
        return iter(self._transitions)

    def transitions_from(self, state: int) -> Iterator[Tuple[Symbol, int]]:
        """Iterate over ``(symbol, target)`` pairs leaving *state*."""
        for symbol, targets in self._forward.get(state, {}).items():
            for target in targets:
                yield symbol, target

    def step(self, states: Iterable[int], symbol: Symbol) -> FrozenSet[int]:
        """Set of states reachable from *states* by reading *symbol*."""
        result: Set[int] = set()
        for state in states:
            result |= self._forward.get(state, {}).get(symbol, set())
        return frozenset(result)

    def accepts(self, word: Sequence[Symbol]) -> bool:
        """``True`` when the automaton accepts the given word."""
        current: FrozenSet[int] = self.initial
        for symbol in word:
            current = self.step(current, symbol)
            if not current:
                return False
        return bool(current & self.final)

    def alphabet(self) -> FrozenSet[Symbol]:
        """The symbols that label at least one transition."""
        return frozenset(symbol for _, symbol, _ in self._transitions)

    def accepts_epsilon(self) -> bool:
        """``True`` when the empty word is accepted."""
        return bool(self.initial & self.final)

    def is_empty_language(self) -> bool:
        """``True`` when no word at all is accepted (reachability check)."""
        reachable = set(self.initial)
        frontier = list(self.initial)
        while frontier:
            state = frontier.pop()
            if state in self.final:
                return False
            for _, target in self.transitions_from(state):
                if target not in reachable:
                    reachable.add(target)
                    frontier.append(target)
        return not (reachable & self.final)

    def state_count(self) -> int:
        """Number of states."""
        return len(self.states)

    def reverse(self) -> "NFA":
        """The automaton for the reversed language with inverted edge steps."""
        transitions = []
        for source, symbol, target in self._transitions:
            reversed_symbol: Symbol
            if isinstance(symbol, EdgeStep):
                reversed_symbol = EdgeStep(symbol.signed.inverse())
            else:
                reversed_symbol = symbol
            transitions.append((target, reversed_symbol, source))
        return NFA(self.states, self.final, self.initial, transitions)

    def trim(self) -> "NFA":
        """Remove states that are unreachable from the initial states or cannot
        reach a final state; renumber densely."""
        return _trimmed(self.initial, self.final, self._transitions)

    # ------------------------------------------------------------------ #
    # word enumeration (pumped normal form)
    # ------------------------------------------------------------------ #
    def enumerate_words(
        self,
        max_length: int = 12,
        max_state_repeats: int = 2,
        max_words: int = 10_000,
    ) -> Iterator[Tuple[Symbol, ...]]:
        """Enumerate accepted words in pumped normal form.

        Words are produced in order of non-decreasing length.  A run may visit
        each automaton state at most *max_state_repeats* times, which bounds
        the unrolling of cycles (the satisfiability engine's completeness
        bound, see docs/ARCHITECTURE.md, stage 5 "Chase"); *max_length* and
        *max_words* are additional hard caps.

        The search runs on the kernel
        (:func:`repro.core.kernels.enumerate_nfa_words`), which keeps one
        byte per state for the visit counts: a *max_state_repeats* outside
        0..255 raises ``ValueError``.
        """
        if not 0 <= max_state_repeats <= 255:
            raise ValueError(f"max_state_repeats must lie in 0..255, got {max_state_repeats}")
        from ..core.kernels import enumerate_nfa_words  # deferred: core builds on this module

        return enumerate_nfa_words(self, max_length, max_state_repeats, max_words)

    def shortest_word(self) -> Tuple[Symbol, ...]:
        """Return one shortest accepted word (raises ``ValueError`` if none)."""
        for word in self.enumerate_words(max_length=2 * len(self.states) + 2, max_state_repeats=1):
            return word
        for word in self.enumerate_words(max_length=2 * len(self.states) + 2, max_state_repeats=2):
            return word
        raise ValueError("the automaton accepts no word")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NFA(states={len(self.states)}, initial={sorted(self.initial)}, "
            f"final={sorted(self.final)}, transitions={len(self._transitions)})"
        )


# --------------------------------------------------------------------------- #
# Thompson construction with ε-elimination
# --------------------------------------------------------------------------- #
class _Fragment:
    """A fragment of the ε-NFA under construction."""

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int) -> None:
        self.start = start
        self.end = end


class _Builder:
    def __init__(self) -> None:
        self.counter = 0
        self.epsilon: Dict[int, Set[int]] = {}
        self.labelled: List[Tuple[int, Symbol, int]] = []

    def fresh(self) -> int:
        self.counter += 1
        return self.counter - 1

    def add_epsilon(self, source: int, target: int) -> None:
        self.epsilon.setdefault(source, set()).add(target)

    def add_symbol(self, source: int, symbol: Symbol, target: int) -> None:
        self.labelled.append((source, symbol, target))

    def build(self, expr: Regex) -> _Fragment:
        # post-order, as a recursive build would number the states
        return fold(expr, self._fragment)

    def _fragment(self, expr: Regex, children: Sequence[_Fragment]) -> _Fragment:
        if isinstance(expr, EmptyLanguage):
            return _Fragment(self.fresh(), self.fresh())
        if isinstance(expr, Epsilon):
            start, end = self.fresh(), self.fresh()
            self.add_epsilon(start, end)
            return _Fragment(start, end)
        if isinstance(expr, (NodeTest, EdgeStep)):
            start, end = self.fresh(), self.fresh()
            self.add_symbol(start, expr, end)
            return _Fragment(start, end)
        if isinstance(expr, Concat):
            left, right = children
            self.add_epsilon(left.end, right.start)
            return _Fragment(left.start, right.end)
        if isinstance(expr, Union):
            left, right = children
            start, end = self.fresh(), self.fresh()
            self.add_epsilon(start, left.start)
            self.add_epsilon(start, right.start)
            self.add_epsilon(left.end, end)
            self.add_epsilon(right.end, end)
            return _Fragment(start, end)
        if isinstance(expr, Star):
            (inner,) = children
            start, end = self.fresh(), self.fresh()
            self.add_epsilon(start, inner.start)
            self.add_epsilon(start, end)
            self.add_epsilon(inner.end, inner.start)
            self.add_epsilon(inner.end, end)
            return _Fragment(start, end)
        raise TypeError(f"unknown regex node: {expr!r}")


def build_nfa(expr: Regex) -> NFA:
    """Compile a two-way regular expression to an ε-free NFA.

    The result has O(|expr|) states, as required by the rolling-up lemma.
    """
    from ..core.kernels import bitset_closure  # deferred: core builds on this module

    builder = _Builder()
    fragment = builder.build(expr)
    labelled = builder.labelled
    # all ε-closures at once as int bitsets (bit j of closures[i] ⇔ j is in
    # the closure of i)
    closures = bitset_closure(
        builder.counter,
        (
            (source, target)
            for source, targets in builder.epsilon.items()
            for target in targets
        ),
    )

    # The ε-free automaton enters a state only as the start state or as the
    # target of a labelled transition, so only those states are origins the
    # trim can keep.  origins[state] lists them, ascending, when their
    # ε-closure contains *state*: each labelled transition is copied to
    # exactly its reachable origins, in ascending origin order, and the
    # final states are the ones whose closure contains the fragment's end.
    entered = sorted({fragment.start}.union(target for _, _, target in labelled))
    sources = 0
    for source, _, _ in labelled:
        sources |= 1 << source
    origins: Dict[int, List[int]] = {}
    for origin in entered:
        mask = closures[origin] & sources
        while mask:
            low = mask & -mask
            origins.setdefault(low.bit_length() - 1, []).append(origin)
            mask ^= low
    end = 1 << fragment.end
    final = [origin for origin in entered if closures[origin] & end]

    transitions = [
        (origin, symbol, target)
        for source, symbol, target in labelled
        for origin in origins.get(source, ())
    ]
    # keep only useful states to stay small; no untrimmed NFA is built
    return _trimmed((fragment.start,), final, transitions)


def _trimmed(
    initial: Iterable[int], final: Iterable[int], transitions: Sequence[Tuple[int, Symbol, int]]
) -> NFA:
    """The NFA on the states reachable from *initial* that reach *final*,
    renumbered densely in ascending order, with the surviving transitions
    in their given order.  An empty language gives the one-state NFA with
    no final state.

    Reachability runs over int adjacency lists, so no symbol is hashed
    until the result is built.
    """
    successors: Dict[int, List[int]] = {}
    predecessors: Dict[int, List[int]] = {}
    for source, _, target in transitions:
        successors.setdefault(source, []).append(target)
        predecessors.setdefault(target, []).append(source)
    useful = _reachable(initial, successors) & _reachable(final, predecessors)
    if not useful:
        # empty language: keep a single initial state so the object stays valid
        return NFA({0}, {0}, set(), [])
    renumber = {state: index for index, state in enumerate(sorted(useful))}
    return NFA(
        renumber.values(),
        {renumber[s] for s in initial if s in useful},
        {renumber[s] for s in final if s in useful},
        [
            (renumber[s], symbol, renumber[t])
            for s, symbol, t in transitions
            if s in useful and t in useful
        ],
    )


def _reachable(start: Iterable[int], adjacency: Dict[int, List[int]]) -> Set[int]:
    """The states reachable from *start* along *adjacency*, *start* included."""
    reached = set(start)
    frontier = list(reached)
    while frontier:
        for target in adjacency.get(frontier.pop(), ()):
            if target not in reached:
                reached.add(target)
                frontier.append(target)
    return reached
