"""Concept inclusions of (Horn-)ALCIF in the normal forms used by the paper.

The paper only ever manipulates Horn-ALCIF TBoxes in normal form (Section 3):

    K ⊑ A        K ⊑ ⊥        K ⊑ ∀R.K'
    K ⊑ ∃R.K'    K ⊑ ¬∃R.K'   K ⊑ ∃≤1 R.K'

where ``K``, ``K'`` are (possibly empty) conjunctions of concept names and
``R ∈ Σ±``.  Full ALCIF is recovered by additionally allowing disjunctive
inclusions ``K ⊑ A₁ ⊔ … ⊔ A_n`` — which the paper needs only for the single
statement ``⊤ ⊑ ⊔Γ`` ("every node has a label").  This module defines the
normal-form statements directly as small frozen dataclasses; conjunctions of
concept names are plain ``frozenset``\\ s of strings (the empty set is ⊤).

Every statement knows how to check itself over a finite graph
(:meth:`ConceptInclusion.holds_in`), which implements the interpretation
function of Section 3 for the fragment the paper uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Tuple, Union

from ..graph.graph import Graph
from ..graph.labels import SignedLabel

__all__ = [
    "ConceptNames",
    "conj",
    "TOP",
    "ConceptInclusion",
    "SubclassOf",
    "SubclassOfBottom",
    "ForAllCI",
    "ExistsCI",
    "NoExistsCI",
    "AtMostOneCI",
    "DisjunctionCI",
    "format_conjunction",
]

# A conjunction of concept names; the empty conjunction is ⊤.
ConceptNames = FrozenSet[str]

TOP: ConceptNames = frozenset()


def conj(*names: Union[str, Iterable[str]]) -> ConceptNames:
    """Build a conjunction of concept names from strings and/or iterables."""
    result = set()
    for name in names:
        if isinstance(name, str):
            result.add(name)
        else:
            result.update(name)
    return frozenset(result)


def format_conjunction(names: ConceptNames) -> str:
    """Human-readable rendering of a conjunction (⊤ for the empty one)."""
    if not names:
        return "⊤"
    return " ⊓ ".join(sorted(names))


def _nodes_satisfying(graph: Graph, names: ConceptNames):
    """Nodes of *graph* whose label set includes all of *names*."""
    for node in graph.nodes():
        if names <= graph.labels(node):
            yield node


class ConceptInclusion:
    """Base class of all concept inclusions."""

    def holds_in(self, graph: Graph) -> bool:
        """``G ⊨ CI`` over a finite graph."""
        raise NotImplementedError

    def concept_names(self) -> ConceptNames:
        """All concept names mentioned by the statement."""
        raise NotImplementedError

    def role_names(self) -> FrozenSet[str]:
        """All base role (edge-label) names mentioned by the statement."""
        return frozenset()

    def __getstate__(self):
        # drop the token repro.dl.tbox.canonical_statement_token caches here,
        # so pickles (store rows, worker transfers) do not grow with it
        state = self.__dict__
        if "_canonical_token" in state:
            state = dict(state)
            del state["_canonical_token"]
        return state


@dataclass(frozen=True)
class SubclassOf(ConceptInclusion):
    """``K ⊑ A`` — every node satisfying K carries concept name A."""

    body: ConceptNames
    head: str

    def holds_in(self, graph: Graph) -> bool:
        return all(graph.has_label(node, self.head) for node in _nodes_satisfying(graph, self.body))

    def concept_names(self) -> ConceptNames:
        return self.body | {self.head}

    def __str__(self) -> str:
        return f"{format_conjunction(self.body)} ⊑ {self.head}"


@dataclass(frozen=True)
class SubclassOfBottom(ConceptInclusion):
    """``K ⊑ ⊥`` — no node satisfies K."""

    body: ConceptNames

    def holds_in(self, graph: Graph) -> bool:
        return not any(True for _ in _nodes_satisfying(graph, self.body))

    def concept_names(self) -> ConceptNames:
        return self.body

    def __str__(self) -> str:
        return f"{format_conjunction(self.body)} ⊑ ⊥"


@dataclass(frozen=True)
class ForAllCI(ConceptInclusion):
    """``K ⊑ ∀R.K'`` — every R-successor of a K-node satisfies K'."""

    body: ConceptNames
    role: SignedLabel
    head: ConceptNames

    def holds_in(self, graph: Graph) -> bool:
        for node in _nodes_satisfying(graph, self.body):
            for successor in graph.successors(node, self.role):
                if not self.head <= graph.labels(successor):
                    return False
        return True

    def concept_names(self) -> ConceptNames:
        return self.body | self.head

    def role_names(self) -> FrozenSet[str]:
        return frozenset({self.role.label})

    def __str__(self) -> str:
        return f"{format_conjunction(self.body)} ⊑ ∀{self.role}.{format_conjunction(self.head)}"


@dataclass(frozen=True)
class ExistsCI(ConceptInclusion):
    """``K ⊑ ∃R.K'`` — every K-node has an R-successor satisfying K'."""

    body: ConceptNames
    role: SignedLabel
    head: ConceptNames

    def holds_in(self, graph: Graph) -> bool:
        for node in _nodes_satisfying(graph, self.body):
            if not any(
                self.head <= graph.labels(successor)
                for successor in graph.successors(node, self.role)
            ):
                return False
        return True

    def concept_names(self) -> ConceptNames:
        return self.body | self.head

    def role_names(self) -> FrozenSet[str]:
        return frozenset({self.role.label})

    def __str__(self) -> str:
        return f"{format_conjunction(self.body)} ⊑ ∃{self.role}.{format_conjunction(self.head)}"


@dataclass(frozen=True)
class NoExistsCI(ConceptInclusion):
    """``K ⊑ ¬∃R.K'`` — no K-node has an R-successor satisfying K'."""

    body: ConceptNames
    role: SignedLabel
    head: ConceptNames

    def holds_in(self, graph: Graph) -> bool:
        for node in _nodes_satisfying(graph, self.body):
            if any(
                self.head <= graph.labels(successor)
                for successor in graph.successors(node, self.role)
            ):
                return False
        return True

    def concept_names(self) -> ConceptNames:
        return self.body | self.head

    def role_names(self) -> FrozenSet[str]:
        return frozenset({self.role.label})

    def __str__(self) -> str:
        return f"{format_conjunction(self.body)} ⊑ ¬∃{self.role}.{format_conjunction(self.head)}"


@dataclass(frozen=True)
class AtMostOneCI(ConceptInclusion):
    """``K ⊑ ∃≤1 R.K'`` — every K-node has at most one R-successor satisfying K'."""

    body: ConceptNames
    role: SignedLabel
    head: ConceptNames

    def holds_in(self, graph: Graph) -> bool:
        for node in _nodes_satisfying(graph, self.body):
            count = sum(
                1
                for successor in graph.successors(node, self.role)
                if self.head <= graph.labels(successor)
            )
            if count > 1:
                return False
        return True

    def concept_names(self) -> ConceptNames:
        return self.body | self.head

    def role_names(self) -> FrozenSet[str]:
        return frozenset({self.role.label})

    def __str__(self) -> str:
        return f"{format_conjunction(self.body)} ⊑ ∃≤1{self.role}.{format_conjunction(self.head)}"


@dataclass(frozen=True)
class DisjunctionCI(ConceptInclusion):
    """``K ⊑ A₁ ⊔ … ⊔ A_n`` — the non-Horn statement needed for ⊤ ⊑ ⊔Γ."""

    body: ConceptNames
    alternatives: Tuple[str, ...]

    def holds_in(self, graph: Graph) -> bool:
        for node in _nodes_satisfying(graph, self.body):
            if not any(graph.has_label(node, name) for name in self.alternatives):
                return False
        return True

    def concept_names(self) -> ConceptNames:
        return self.body | frozenset(self.alternatives)

    def __str__(self) -> str:
        alternatives = " ⊔ ".join(sorted(self.alternatives)) or "⊥"
        return f"{format_conjunction(self.body)} ⊑ {alternatives}"
