"""Unrestricted satisfiability of Boolean (U)C2RPQs modulo Horn-ALCIF TBoxes.

This is the implementation counterpart of Theorem 6.1 of the paper.  The
solver enumerates *witness patterns* for the query — one concrete word per
atom, drawn from the atom's automaton in pumped normal form — materialises
each pattern as a small labeled graph and hands it to the chase engine
(:mod:`repro.chase.engine`).  A consistent pattern proves satisfiability and
is returned as a witness; if every enumerated pattern is inconsistent the
query is reported unsatisfiable.

Completeness regimes
--------------------
The result records under which regime the verdict was obtained:

``exact``
    every atom's language is finite and was enumerated completely — the
    verdict is unconditional;
``pumped``
    the enumeration covered all words whose automaton runs repeat no state
    more than ``max_state_repeats`` times (the pumping bound discussed in
    docs/ARCHITECTURE.md, stage 5 "Chase") without hitting the hard caps;
``truncated``
    a hard cap (word length, word count or pattern count) was reached, so an
    UNSAT verdict only means "no witness within the explored bound".

All containment instances generated by the paper's own reductions in the test
suite and benchmarks are decided in the ``exact`` or ``pumped`` regimes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import compile_regex
from ..dl.tbox import TBox
from ..exceptions import SolverError
from ..graph.graph import Graph, NodeId
from ..rpq.queries import Atom, C2RPQ, UC2RPQ
from ..rpq.regex import EdgeStep, NodeTest, Symbol
from .engine import ChaseEngine

__all__ = ["SatisfiabilityConfig", "SatisfiabilityResult", "SatisfiabilitySolver", "is_satisfiable"]


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

    # ------------------------------------------------------------------ #
    def is_satisfiable(self, query) -> SatisfiabilityResult:
        """Check satisfiability of a Boolean C2RPQ or UC2RPQ modulo the TBox."""
        if isinstance(query, C2RPQ):
            query = UC2RPQ.from_query(query)
        if not isinstance(query, UC2RPQ):
            raise SolverError(f"expected a C2RPQ or UC2RPQ, got {type(query).__name__}")
        if not query.is_boolean():
            raise SolverError("satisfiability is defined for Boolean queries; call .boolean() first")

        overall_regime = "exact"
        patterns_checked = 0
        if query.is_empty():
            return SatisfiabilityResult(False, "exact", reason="the union has no disjunct")
        for disjunct in query:
            result = self._check_disjunct(disjunct)
            patterns_checked += result.patterns_checked
            if result.satisfiable:
                result.patterns_checked = patterns_checked
                return result
            overall_regime = _weakest_regime(overall_regime, result.regime)
        return SatisfiabilityResult(
            False,
            overall_regime,
            patterns_checked=patterns_checked,
            reason="every witness pattern of every disjunct is inconsistent with the TBox",
        )

    # ------------------------------------------------------------------ #
    def _check_disjunct(self, disjunct: C2RPQ) -> SatisfiabilityResult:
        config = self.config
        atoms = list(disjunct.atoms)
        if not atoms:
            # the empty conjunction is satisfied by the empty match; a single
            # unconstrained node suffices as a witness provided ⊤ is satisfiable
            empty = Graph()
            empty.add_node("n0")
            chase = self.engine.check_pattern(empty)
            return SatisfiabilityResult(
                chase.consistent, "exact", chase.pattern, {}, disjunct, 1, chase.reason
            )

        word_lists: List[List[Tuple[Symbol, ...]]] = []
        regime = "exact"
        for atom in atoms:
            words, atom_regime = self._atom_words(atom)
            if not words:
                return SatisfiabilityResult(
                    False,
                    atom_regime,
                    disjunct=disjunct,
                    reason=f"atom {atom} has an empty language within the explored bound",
                )
            regime = _weakest_regime(regime, atom_regime)
            word_lists.append(words)

        patterns_checked = 0
        for combination in itertools.product(*word_lists):
            if patterns_checked >= config.max_patterns:
                regime = "truncated"
                break
            patterns_checked += 1
            pattern, assignment = build_pattern(atoms, combination)
            chase = self.engine.check_pattern(pattern, assignment)
            if chase.consistent:
                return SatisfiabilityResult(
                    True,
                    regime,
                    chase.pattern,
                    chase.assignment,
                    disjunct,
                    patterns_checked,
                    "found a consistent witness pattern",
                )
        return SatisfiabilityResult(
            False,
            regime,
            disjunct=disjunct,
            patterns_checked=patterns_checked,
            reason="all enumerated witness patterns are inconsistent",
        )

    # ------------------------------------------------------------------ #
    def _atom_words(self, atom: Atom) -> Tuple[List[Tuple[Symbol, ...]], str]:
        automaton = compile_regex(atom.regex)
        config = self.config
        words = list(
            automaton.words(
                max_length=config.max_word_length,
                max_state_repeats=config.max_state_repeats,
                max_words=config.max_words_per_atom,
            )
        )
        if not automaton.has_productive_cycle() and len(words) < config.max_words_per_atom:
            longest = max((len(w) for w in words), default=0)
            regime = "exact" if longest < config.max_word_length else "pumped"
        elif len(words) >= config.max_words_per_atom or any(
            len(w) >= config.max_word_length for w in words
        ):
            regime = "truncated"
        else:
            regime = "pumped"
        return words, regime


def _weakest_regime(left: str, right: str) -> str:
    order = {"exact": 0, "pumped": 1, "truncated": 2}
    return left if order[left] >= order[right] else right


# --------------------------------------------------------------------------- #
# pattern construction
# --------------------------------------------------------------------------- #
def build_pattern(
    atoms: Sequence[Atom], words: Sequence[Tuple[Symbol, ...]]
) -> Tuple[Graph, Dict[str, NodeId]]:
    """Materialise one witness pattern from a word choice per atom.

    Variables become pattern nodes (variables connected by edge-free words are
    merged); each word becomes a concrete path of fresh internal nodes between
    the images of the atom's variables, with node-label symbols attached to
    the node at the corresponding position.
    """
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
        if not edge_positions:
            # endpoints coincide; nothing to connect
            continue
    return graph, assignment


def is_satisfiable(
    query, tbox: TBox, config: Optional[SatisfiabilityConfig] = None
) -> SatisfiabilityResult:
    """Module-level convenience wrapper around :class:`SatisfiabilitySolver`."""
    return SatisfiabilitySolver(tbox, config).is_satisfiable(query)
