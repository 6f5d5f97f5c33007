"""Fusing the schema into the containment instance (Theorem 5.6, Lemma D.3).

The participation constraints of a schema ``S`` translate to the Horn TBox
``T̂_S`` (see :func:`repro.dl.schema_to_extended_tbox`), but the requirement
that *every node carries at least one label of Γ_S* is not Horn.  Following
the paper, that requirement is pushed into the left-hand-side query instead:

* every edge step ``R`` occurring in an atom of ``P`` is surrounded by the
  disjunction ``(A₁+…+A_n)`` of the schema's node labels, so that a witnessing
  path can only pass through labeled nodes;
* every node or edge label of ``P`` outside ``Γ_S ∪ Σ±_S`` is replaced by
  ``∅`` (such an atom can never be satisfied in a conforming graph).

The resulting query ``P̂`` satisfies  ``P ⊆_S Q  iff  P̂ ⊆_{T̂_S} Q``  over
finite graphs (Lemma D.3).
"""

from __future__ import annotations

from typing import FrozenSet, Sequence

from ..rpq.queries import Atom, C2RPQ, UC2RPQ
from ..rpq.regex import (
    EMPTY,
    Concat,
    EdgeStep,
    NodeTest,
    Regex,
    Star,
    Union,
    fold,
    union as regex_union,
    node,
)
from ..schema.schema import Schema

__all__ = [
    "interleave_regex",
    "filter_foreign_labels",
    "encode_query",
    "encode_uc2rpq",
    "filter_query",
    "filter_uc2rpq",
]


def _label_disjunction(node_labels: FrozenSet[str]) -> Regex:
    """The disjunction ``A₁ + … + A_n`` of the schema's node labels."""
    return regex_union(*(node(label) for label in sorted(node_labels)))


def interleave_regex(regex: Regex, schema: Schema) -> Regex:
    """Rewrite one regular expression as described by Theorem 5.6."""
    labels = schema.node_labels
    guard = _label_disjunction(labels)

    def rewrite(expr: Regex, children: Sequence[Regex]) -> Regex:
        if isinstance(expr, NodeTest):
            return expr if expr.label in labels else EMPTY
        if isinstance(expr, EdgeStep):
            if expr.signed.label not in schema.edge_labels:
                return EMPTY
            return Concat(Concat(guard, expr), guard)
        return _rebuilt(expr, children)

    if not labels:
        return EMPTY
    return fold(regex, rewrite)


def filter_foreign_labels(regex: Regex, schema: Schema) -> Regex:
    """Replace labels outside ``Γ_S ∪ Σ±_S`` by ``∅`` without adding guards.

    This is the part of the Theorem 5.6 rewriting that restricts the query to
    the schema's alphabet.  The containment solver uses it instead of the full
    interleaving and enforces the "at least one label per node" requirement on
    witness patterns directly (see :mod:`repro.containment.solver`), which is
    equivalent but avoids blowing up the regular expressions.  A regex with
    no foreign label is returned as it is.
    """

    node_labels, edge_labels = schema.node_labels, schema.edge_labels

    def known(symbol) -> bool:
        if isinstance(symbol, NodeTest):
            return symbol.label in node_labels
        return symbol.signed.label in edge_labels

    def rewrite(expr: Regex, children: Sequence[Regex]) -> Regex:
        if isinstance(expr, (NodeTest, EdgeStep)):
            return expr if known(expr) else EMPTY
        return _rebuilt(expr, children)

    if all(map(known, regex.symbols())):
        return regex  # nothing to replace
    return fold(regex, rewrite)


def _rebuilt(expr: Regex, children: Sequence[Regex]) -> Regex:
    """*expr* over its rewritten *children* (∅ and ε stay as they are)."""
    if not children:
        return expr
    if isinstance(expr, Concat):
        return Concat(*children)
    if isinstance(expr, Union):
        return Union(*children)
    if isinstance(expr, Star):
        return Star(*children)
    raise TypeError(f"unknown regex node: {expr!r}")  # pragma: no cover


def filter_query(query: C2RPQ, schema: Schema) -> C2RPQ:
    """Apply :func:`filter_foreign_labels` to every atom of a C2RPQ."""
    atoms = [
        Atom(filter_foreign_labels(atom.regex, schema), atom.source, atom.target)
        for atom in query.atoms
    ]
    return C2RPQ(atoms, query.free_variables, name=query.name)


def filter_uc2rpq(query: UC2RPQ, schema: Schema) -> UC2RPQ:
    """Apply :func:`filter_foreign_labels` to every disjunct of a UC2RPQ."""
    return UC2RPQ([filter_query(disjunct, schema) for disjunct in query], name=query.name)


def encode_query(query: C2RPQ, schema: Schema) -> C2RPQ:
    """Apply the Theorem 5.6 rewriting to every atom of a C2RPQ."""
    atoms = [
        Atom(interleave_regex(atom.regex, schema), atom.source, atom.target)
        for atom in query.atoms
    ]
    return C2RPQ(atoms, query.free_variables, name=f"{query.name}̂")


def encode_uc2rpq(query: UC2RPQ, schema: Schema) -> UC2RPQ:
    """Apply the rewriting to every disjunct of a UC2RPQ."""
    return UC2RPQ([encode_query(disjunct, schema) for disjunct in query], name=f"{query.name}̂")
