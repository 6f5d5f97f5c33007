"""The schema ↔ L0-TBox correspondence (Appendix B of the paper).

For a schema ``S`` the corresponding L0 TBox ``T_S`` over ``Γ_S`` and ``Σ_S``
is (Appendix B)::

    T_S = { A ⊑ ∃R.B    | δ_S(A,R,B) ∈ {1,+} }
        ∪ { A ⊑ ∃≤1R.B  | δ_S(A,R,B) ∈ {1,?,0} }
        ∪ { A ⊑ ¬∃R.B   | δ_S(A,R,B) = 0 }

Proposition B.1: a graph conforms to ``S`` iff it satisfies ``T_S``, the
disjunction ``⊤ ⊑ ⊔Γ_S`` and the pairwise-disjointness statements
``A ⊓ B ⊑ ⊥``.  The *extended* TBox ``T̂_S`` of Theorem 5.6 adds the
disjointness statements (the disjunction is pushed into the query instead,
because it is not Horn).

The correspondence is a bijection between schemas over (Γ₀, Σ₀) and coherent
L0 TBoxes over (Γ₀, Σ₀); :func:`schema_from_l0` is the inverse direction and
is the workhorse of schema elicitation (Lemma B.5).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, List, Set, Tuple

from ..exceptions import TBoxError
from ..graph.labels import SignedLabel, signed_closure
from ..schema.schema import Multiplicity, Schema
from .concepts import AtMostOneCI, ConceptInclusion, DisjunctionCI, ExistsCI, NoExistsCI, SubclassOfBottom, conj
from .tbox import TBox, is_l0_statement

__all__ = [
    "schema_to_l0",
    "schema_to_extended_tbox",
    "disjointness_statements",
    "label_coverage_statement",
    "schema_from_l0",
]


def _l0_statements(schema: Schema) -> List[ConceptInclusion]:
    """The statements of ``T_S``, triple by triple in sorted order.

    Each triple yields its own (distinct) statements, and every label comes
    from the schema, so δ is read directly and nothing is re-validated.
    """
    names = {label: conj(label) for label in schema.node_labels}
    nodes = sorted(names)
    roles = list(signed_closure(sorted(schema.edge_labels)))
    delta = schema.delta.get
    zero = Multiplicity.ZERO
    at_least_one = (Multiplicity.ONE, Multiplicity.PLUS)
    at_most_one = (Multiplicity.ONE, Multiplicity.OPTIONAL, Multiplicity.ZERO)
    statements: List[ConceptInclusion] = []
    append = statements.append
    for source in nodes:
        body = names[source]
        for signed in roles:
            for target in nodes:
                multiplicity = delta((source, signed, target), zero)
                head = names[target]
                if multiplicity in at_least_one:
                    append(ExistsCI(body, signed, head))
                if multiplicity in at_most_one:
                    append(AtMostOneCI(body, signed, head))
                if multiplicity is zero:
                    append(NoExistsCI(body, signed, head))
    return statements


def schema_to_l0(schema: Schema) -> TBox:
    """The L0 TBox ``T_S`` expressing the participation constraints of *S*."""
    return TBox.from_distinct(_l0_statements(schema), name=f"T_{schema.name}")


def disjointness_statements(node_labels: Iterable[str]) -> Tuple[SubclassOfBottom, ...]:
    """The statements ``A ⊓ B ⊑ ⊥`` for all distinct node labels."""
    return tuple(
        SubclassOfBottom(conj(a, b)) for a, b in combinations(sorted(node_labels), 2)
    )


def label_coverage_statement(node_labels: Iterable[str]) -> DisjunctionCI:
    """The non-Horn statement ``⊤ ⊑ ⊔Γ`` ("every node has a label")."""
    return DisjunctionCI(conj(), tuple(sorted(node_labels)))


def schema_to_extended_tbox(schema: Schema) -> TBox:
    """The Horn TBox ``T̂_S = T_S ∪ {A ⊓ B ⊑ ⊥}`` of Theorem 5.6."""
    statements = _l0_statements(schema)
    statements.extend(disjointness_statements(schema.node_labels))
    return TBox.from_distinct(statements, name=f"T̂_{schema.name}")


def schema_from_l0(
    statements: Iterable[ConceptInclusion],
    node_labels: Iterable[str],
    edge_labels: Iterable[str],
    name: str = "S",
) -> Schema:
    """Reconstruct the schema corresponding to a coherent L0 TBox.

    The multiplicity of a triple ``(A, R, B)`` is read off the statements
    present for it::

        ∃ and ∃≤1       →  1
        ∃ only          →  +
        ∃≤1 and ¬∃      →  0
        ∃≤1 only        →  ?
        nothing         →  *

    Raises :class:`TBoxError` when the statement set is not a coherent L0
    TBox over the given labels.
    """
    node_labels = frozenset(node_labels)
    edge_labels = frozenset(edge_labels)
    exists: Set[Tuple[str, SignedLabel, str]] = set()
    at_most: Set[Tuple[str, SignedLabel, str]] = set()
    no_exists: Set[Tuple[str, SignedLabel, str]] = set()
    for statement in statements:
        if not is_l0_statement(statement):
            raise TBoxError(f"not an L0 statement: {statement}")
        (source,) = statement.body  # type: ignore[attr-defined]
        (target,) = statement.head  # type: ignore[attr-defined]
        role: SignedLabel = statement.role  # type: ignore[attr-defined]
        if source not in node_labels or target not in node_labels or role.label not in edge_labels:
            raise TBoxError(f"statement {statement} uses labels outside the given alphabets")
        key = (source, role, target)
        if isinstance(statement, ExistsCI):
            exists.add(key)
        elif isinstance(statement, AtMostOneCI):
            at_most.add(key)
        elif isinstance(statement, NoExistsCI):
            no_exists.add(key)
    if exists & no_exists:
        raise TBoxError("incoherent L0 TBox: contradictory ∃ and ¬∃ statements")

    schema = Schema(node_labels, edge_labels, name=name)
    for source in sorted(node_labels):
        for signed in signed_closure(sorted(edge_labels)):
            for target in sorted(node_labels):
                key = (source, signed, target)
                has_exists = key in exists
                has_at_most = key in at_most or key in no_exists
                has_no_exists = key in no_exists
                if has_no_exists:
                    multiplicity = Multiplicity.ZERO
                elif has_exists and has_at_most:
                    multiplicity = Multiplicity.ONE
                elif has_exists:
                    multiplicity = Multiplicity.PLUS
                elif has_at_most:
                    multiplicity = Multiplicity.OPTIONAL
                else:
                    multiplicity = Multiplicity.STAR
                # unmentioned triples default to 0 in Schema, but the L0
                # reading is "unconstrained", so every triple is set explicitly
                schema.set(source, signed, target, multiplicity)
    return schema
