"""Concept inclusions of (Horn-)ALCIF in the normal forms used by the paper.

The paper only ever manipulates Horn-ALCIF TBoxes in normal form (Section 3):

    K ⊑ A        K ⊑ ⊥        K ⊑ ∀R.K'
    K ⊑ ∃R.K'    K ⊑ ¬∃R.K'   K ⊑ ∃≤1 R.K'

where ``K``, ``K'`` are (possibly empty) conjunctions of concept names and
``R ∈ Σ±``.  Full ALCIF is recovered by additionally allowing disjunctive
inclusions ``K ⊑ A₁ ⊔ … ⊔ A_n`` — which the paper needs only for the single
statement ``⊤ ⊑ ⊔Γ`` ("every node has a label").  This module defines the
normal-form statements directly as small immutable values; conjunctions of
concept names are plain ``frozenset``\\ s of strings (the empty set is ⊤).

Each statement is a tuple ``(kind, field, …)`` whose first item is its class
name, read through read-only field properties: TBoxes and their indexes hash
and compare statements on every lookup, and a tuple does both in C, while the
kind tag keeps statements of different kinds with the same fields unequal.

Every statement knows how to check itself over a finite graph
(:meth:`ConceptInclusion.holds_in`), which implements the interpretation
function of Section 3 for the fragment the paper uses.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from operator import itemgetter
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
    if len(names) == 1 and isinstance(names[0], str):
        return frozenset(names)
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


_new = tuple.__new__


class ConceptInclusion(tuple):
    """Base class of all concept inclusions.

    A statement is the tuple ``(kind, *fields)``; ``_fields`` names its fields
    in order, for :func:`repr`.  Statements are immutable: assigning any
    attribute raises :class:`dataclasses.FrozenInstanceError`.  The only
    instance attribute is the token that
    :func:`repro.dl.tbox.canonical_statement_token` caches.
    """

    _fields: Tuple[str, ...] = ("body",)

    body = property(itemgetter(1), doc="The conjunction ``K`` on the left.")

    def holds_in(self, graph: Graph) -> bool:
        """``G ⊨ CI`` over a finite graph."""
        raise NotImplementedError

    def concept_names(self) -> ConceptNames:
        """All concept names mentioned by the statement."""
        raise NotImplementedError

    def role_names(self) -> FrozenSet[str]:
        """All base role (edge-label) names mentioned by the statement."""
        return frozenset()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getnewargs__(self):
        return self[1:]

    def __getstate__(self):
        # the fields travel as __new__ arguments; the token
        # repro.dl.tbox.canonical_statement_token caches here stays out, so
        # pickles (store rows, worker transfers) do not grow with it
        return None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self[1:]))
        return f"{type(self).__qualname__}({fields})"


class SubclassOf(ConceptInclusion):
    """``K ⊑ A`` — every node satisfying K carries concept name A."""

    _fields = ("body", "head")

    def __new__(cls, body: ConceptNames, head: str) -> "SubclassOf":
        return _new(cls, ("SubclassOf", body, head))

    head = property(itemgetter(2), doc="The concept name ``A``.")

    def holds_in(self, graph: Graph) -> bool:
        return all(graph.has_label(node, self.head) for node in _nodes_satisfying(graph, self.body))

    def concept_names(self) -> ConceptNames:
        return self.body | {self.head}

    def __str__(self) -> str:
        return f"{format_conjunction(self.body)} ⊑ {self.head}"


class SubclassOfBottom(ConceptInclusion):
    """``K ⊑ ⊥`` — no node satisfies K."""

    def __new__(cls, body: ConceptNames) -> "SubclassOfBottom":
        return _new(cls, ("SubclassOfBottom", body))

    def holds_in(self, graph: Graph) -> bool:
        return not any(True for _ in _nodes_satisfying(graph, self.body))

    def concept_names(self) -> ConceptNames:
        return self.body

    def __str__(self) -> str:
        return f"{format_conjunction(self.body)} ⊑ ⊥"


class _RoleInclusion(ConceptInclusion):
    """The four kinds ``K ⊑ Q R.K'`` over a role ``R ∈ Σ±``."""

    _fields = ("body", "role", "head")
    # the quantifier as __str__ prints it
    _quantifier = ""

    role = property(itemgetter(2), doc="The role ``R``.")
    head = property(itemgetter(3), doc="The conjunction ``K'``.")

    def concept_names(self) -> ConceptNames:
        return self.body | self.head

    def role_names(self) -> FrozenSet[str]:
        return frozenset((self.role.label,))

    def __str__(self) -> str:
        return (
            f"{format_conjunction(self.body)} ⊑ "
            f"{self._quantifier}{self.role}.{format_conjunction(self.head)}"
        )


class ForAllCI(_RoleInclusion):
    """``K ⊑ ∀R.K'`` — every R-successor of a K-node satisfies K'."""

    _quantifier = "∀"

    def __new__(cls, body: ConceptNames, role: SignedLabel, head: ConceptNames) -> "ForAllCI":
        return _new(cls, ("ForAllCI", body, role, head))

    def holds_in(self, graph: Graph) -> bool:
        for node in _nodes_satisfying(graph, self.body):
            for successor in graph.successors(node, self.role):
                if not self.head <= graph.labels(successor):
                    return False
        return True


class ExistsCI(_RoleInclusion):
    """``K ⊑ ∃R.K'`` — every K-node has an R-successor satisfying K'."""

    _quantifier = "∃"

    def __new__(cls, body: ConceptNames, role: SignedLabel, head: ConceptNames) -> "ExistsCI":
        return _new(cls, ("ExistsCI", body, role, head))

    def holds_in(self, graph: Graph) -> bool:
        for node in _nodes_satisfying(graph, self.body):
            if not any(
                self.head <= graph.labels(successor)
                for successor in graph.successors(node, self.role)
            ):
                return False
        return True


class NoExistsCI(_RoleInclusion):
    """``K ⊑ ¬∃R.K'`` — no K-node has an R-successor satisfying K'."""

    _quantifier = "¬∃"

    def __new__(cls, body: ConceptNames, role: SignedLabel, head: ConceptNames) -> "NoExistsCI":
        return _new(cls, ("NoExistsCI", body, role, head))

    def holds_in(self, graph: Graph) -> bool:
        for node in _nodes_satisfying(graph, self.body):
            if any(
                self.head <= graph.labels(successor)
                for successor in graph.successors(node, self.role)
            ):
                return False
        return True


class AtMostOneCI(_RoleInclusion):
    """``K ⊑ ∃≤1 R.K'`` — every K-node has at most one R-successor satisfying K'."""

    _quantifier = "∃≤1"

    def __new__(cls, body: ConceptNames, role: SignedLabel, head: ConceptNames) -> "AtMostOneCI":
        return _new(cls, ("AtMostOneCI", body, role, head))

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


class DisjunctionCI(ConceptInclusion):
    """``K ⊑ A₁ ⊔ … ⊔ A_n`` — the non-Horn statement needed for ⊤ ⊑ ⊔Γ."""

    _fields = ("body", "alternatives")

    def __new__(cls, body: ConceptNames, alternatives: Tuple[str, ...]) -> "DisjunctionCI":
        return _new(cls, ("DisjunctionCI", body, alternatives))

    alternatives = property(itemgetter(2), doc="The concept names ``A₁ … A_n``.")

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
