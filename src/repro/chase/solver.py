"""Unrestricted satisfiability of Boolean (U)C2RPQs modulo Horn-ALCIF TBoxes.

This is the implementation counterpart of Theorem 6.1 of the paper.
:func:`search_witnesses` enumerates *witness patterns* for the query — one
concrete word per atom, drawn from the atom's automaton in pumped normal
form — materialises each pattern as a small labeled graph and hands it to
the chase engine (:mod:`repro.chase.engine`).  A consistent pattern proves
satisfiability and is returned as a witness; if every enumerated pattern is
inconsistent the query is reported unsatisfiable.  It is the one stage-5
search: :class:`SatisfiabilitySolver` and the containment solver both call it.

Completeness regimes
--------------------
The result records under which regime the verdict was obtained:

``exact``
    every atom's automaton is acyclic and neither ``max_words_per_atom`` nor
    ``max_word_length`` was reached, so every word was enumerated — the
    verdict is unconditional;
``pumped``
    some atom's automaton has a productive cycle and neither cap was reached:
    the enumeration covered all words whose automaton runs repeat no state
    more than ``max_state_repeats`` times (the pumping bound discussed in
    docs/ARCHITECTURE.md, stage 5 "Chase");
``truncated``
    ``max_words_per_atom`` was reached, or a word reached
    ``max_word_length``, or a non-empty language yielded no word, or
    ``max_patterns`` was hit, or the pattern hook left patterns out, so an
    UNSAT verdict only means "no witness within the explored bound".  A finite language whose longest word reaches
    the length cap is truncated too: a longer word could have been cut off.

All containment instances generated by the paper's own reductions in the test
suite and benchmarks are decided in the ``exact`` or ``pumped`` regimes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core import CompiledAutomaton, compile_regex
from ..dl.tbox import TBox
from ..exceptions import SolverError
from ..graph.graph import Graph, NodeId
from ..rpq.queries import Atom, C2RPQ, UC2RPQ
from ..rpq.regex import EdgeStep, NodeTest, Regex, Symbol
from .engine import ChaseEngine

__all__ = [
    "SatisfiabilityConfig",
    "SatisfiabilityResult",
    "SatisfiabilitySolver",
    "is_satisfiable",
    "search_witnesses",
]


@dataclass(frozen=True)
class SatisfiabilityConfig:
    """Resource bounds of the satisfiability solver.

    ``max_state_repeats`` must lie in 0..255: the enumeration kernel keeps
    one byte per automaton state for its visit counts.
    """

    max_word_length: int = 14
    max_state_repeats: int = 2
    max_words_per_atom: int = 200
    max_patterns: int = 50_000


@dataclass
class SatisfiabilityResult:
    """Outcome of a satisfiability check."""

    satisfiable: bool
    regime: str
    witness: Optional[Graph] = None
    witness_assignment: Dict[str, NodeId] = field(default_factory=dict)
    disjunct: Optional[C2RPQ] = None
    patterns_checked: int = 0
    reason: str = ""

    def __bool__(self) -> bool:
        return self.satisfiable

    @property
    def conclusive(self) -> bool:
        """``True`` unless an UNSAT verdict was obtained in the truncated regime."""
        return self.satisfiable or self.regime in ("exact", "pumped")


class SatisfiabilitySolver:
    """Decides unrestricted satisfiability of Boolean (U)C2RPQs modulo a Horn TBox."""

    def __init__(self, tbox: TBox, config: Optional[SatisfiabilityConfig] = None) -> None:
        self.tbox = tbox
        self.config = config or SatisfiabilityConfig()
        self.engine = ChaseEngine(tbox)

    def is_satisfiable(self, query) -> SatisfiabilityResult:
        """Check satisfiability of a Boolean C2RPQ or UC2RPQ modulo the TBox."""
        if isinstance(query, C2RPQ):
            query = UC2RPQ.from_query(query)
        if not isinstance(query, UC2RPQ):
            raise SolverError(f"expected a C2RPQ or UC2RPQ, got {type(query).__name__}")
        if not query.is_boolean():
            raise SolverError("satisfiability is defined for Boolean queries; call .boolean() first")
        return search_witnesses(query, self.engine, self.config)


def weakest_regime(left: str, right: str) -> str:
    """The weaker of two completeness regimes (``exact`` < ``pumped`` < ``truncated``)."""
    order = {"exact": 0, "pumped": 1, "truncated": 2}
    return left if order[left] >= order[right] else right


Word = Tuple[Symbol, ...]
Pattern = Tuple[Graph, Dict[str, NodeId]]


def _one_pattern(disjunct: C2RPQ, words: Sequence[Word]) -> Iterable[Pattern]:
    """The default :func:`search_witnesses` hook: one pattern per word choice."""
    return (build_pattern(disjunct.atoms, words),)


def search_witnesses(
    query: UC2RPQ,
    engine: ChaseEngine,
    config: SatisfiabilityConfig,
    automaton: Callable[[Regex], CompiledAutomaton] = compile_regex,
    patterns: Callable[[C2RPQ, Sequence[Word]], Iterable[Optional[Pattern]]] = _one_pattern,
) -> SatisfiabilityResult:
    """Search the witness patterns of a Boolean UC2RPQ for one *engine* accepts.

    Per disjunct, each atom's regex is compiled by *automaton* and its pumped
    words enumerated under *config*; every combination of one word per atom
    is turned into patterns by *patterns* (the containment solver adds its
    label branching there) and each is chased.  The hook yields ``None``
    where it leaves patterns out (the containment solver's cap on label
    branching), which makes the regime ``truncated``.  ``max_patterns``
    bounds the patterns chased across the whole union.  The regime follows
    the rule in this module's docstring.
    """
    regime = "exact"
    checked = 0
    for disjunct in query:
        word_lists: List[Tuple[Word, ...]] = []
        for atom in disjunct.atoms:
            compiled = automaton(atom.regex)
            words = compiled.words(
                max_length=config.max_word_length,
                max_state_repeats=config.max_state_repeats,
                max_words=config.max_words_per_atom,
            )
            if not words:
                if not compiled.is_empty():
                    regime = "truncated"
                break
            if len(words) >= config.max_words_per_atom or any(
                len(word) >= config.max_word_length for word in words
            ):
                regime = "truncated"
            elif compiled.has_productive_cycle():
                regime = weakest_regime(regime, "pumped")
            word_lists.append(words)
        else:
            for combination in itertools.product(*word_lists):
                if checked >= config.max_patterns:
                    return SatisfiabilityResult(
                        False,
                        "truncated",
                        patterns_checked=checked,
                        reason=f"no consistent witness among the first {checked} patterns",
                    )
                for found in patterns(disjunct, combination):
                    if found is None:
                        regime = "truncated"  # the hook left patterns out
                        continue
                    checked += 1
                    chase = engine.check_pattern(*found)
                    if chase.consistent:
                        return SatisfiabilityResult(
                            True,
                            regime,
                            chase.pattern,
                            chase.assignment,
                            disjunct,
                            checked,
                            "found a consistent witness pattern",
                        )
    return SatisfiabilityResult(
        False,
        regime,
        patterns_checked=checked,
        reason="every enumerated witness pattern is inconsistent with the TBox",
    )


# --------------------------------------------------------------------------- #
# pattern construction
# --------------------------------------------------------------------------- #
def build_pattern(atoms: Sequence[Atom], words: Sequence[Word]) -> Pattern:
    """Materialise one witness pattern from a word choice per atom.

    Variables become pattern nodes (variables connected by edge-free words are
    merged); each word becomes a concrete path of fresh internal nodes between
    the images of the atom's variables, with node-label symbols attached to
    the node at the corresponding position.  The empty conjunction is
    witnessed by a single unconstrained node ``n0``.
    """
    if not atoms:
        graph = Graph()
        graph.add_node("n0")
        return graph, {}
    # union-find over variables: atoms whose word contains no edge step force
    # their endpoints to coincide
    parent: Dict[str, str] = {}

    def find(variable: str) -> str:
        parent.setdefault(variable, variable)
        while parent[variable] != variable:
            parent[variable] = parent[parent[variable]]
            variable = parent[variable]
        return variable

    def union(left: str, right: str) -> None:
        parent[find(left)] = find(right)

    for atom, word in zip(atoms, words):
        find(atom.source)
        find(atom.target)
        if not any(isinstance(symbol, EdgeStep) for symbol in word):
            union(atom.source, atom.target)

    graph = Graph()
    assignment: Dict[str, NodeId] = {}
    for atom in atoms:
        for variable in (atom.source, atom.target):
            representative = find(variable)
            node_id = f"var:{representative}"
            graph.add_node(node_id)
            assignment[variable] = node_id

    fresh_counter = itertools.count()
    for atom, word in zip(atoms, words):
        source_node = assignment[atom.source]
        target_node = assignment[atom.target]
        edge_positions = [i for i, symbol in enumerate(word) if isinstance(symbol, EdgeStep)]
        current = source_node
        edges_seen = 0
        for index, symbol in enumerate(word):
            if isinstance(symbol, NodeTest):
                graph.add_label(current, symbol.label)
            elif isinstance(symbol, EdgeStep):
                edges_seen += 1
                is_last_edge = edges_seen == len(edge_positions)
                next_node = target_node if is_last_edge else f"p{next(fresh_counter)}"
                graph.add_node(next_node)
                if symbol.signed.is_inverse:
                    graph.add_edge(next_node, symbol.signed.label, current)
                else:
                    graph.add_edge(current, symbol.signed.label, next_node)
                current = next_node
    return graph, assignment


def is_satisfiable(
    query, tbox: TBox, config: Optional[SatisfiabilityConfig] = None
) -> SatisfiabilityResult:
    """Module-level convenience wrapper around :class:`SatisfiabilitySolver`."""
    return SatisfiabilitySolver(tbox, config).is_satisfiable(query)
