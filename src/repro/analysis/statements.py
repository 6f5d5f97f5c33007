"""Entailment of L0 statements by a transformation and a source schema
(Lemma B.7): the building block of type checking and schema elicitation.

For a transformation ``T`` (assumed trimmed and label-covering) and a source
schema ``S``, the entailments reduce to containment tests over the grouped
queries ``Q_A`` and ``Q_{A,R,B}``:

* ``(T,S) ⊨ A ⊑ ∃R.B``    iff ``Q_A(x̄) ⊆_S ∃ȳ.Q_{A,R,B}(x̄,ȳ)``;
* ``(T,S) ⊨ A ⊑ ¬∃R.B``   iff ``Q_A(x̄) ∧ Q_{A,R,B}(x̄,ȳ)`` is unsatisfiable
  modulo ``S``;
* ``(T,S) ⊨ A ⊑ ∃≤1R.B``  iff every answer of
  ``∃x̄.(Q_A(x̄) ∧ Q_{A,R,B}(x̄,ȳ) ∧ Q_{A,R,B}(x̄,z̄))`` satisfies ``ȳ = z̄``
  (a containment in a conjunction of ε-atoms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..containment.solver import ContainmentResult, ContainmentSolver
from ..dl.concepts import AtMostOneCI, ConceptInclusion, ExistsCI, NoExistsCI, conj
from ..graph.labels import SignedLabel
from ..schema.schema import Schema
from ..transform.grouping import (
    conjoin_unions,
    edge_query,
    equality_query,
    node_query,
)
from ..transform.transformation import Transformation

__all__ = ["StatementEntailment", "StatementChecker"]


@dataclass
class StatementEntailment:
    """The outcome of one Lemma B.7 entailment test."""

    statement: ConceptInclusion
    entailed: bool
    containment: Optional[ContainmentResult] = None

    def __bool__(self) -> bool:
        return self.entailed

    def __str__(self) -> str:
        status = "entailed" if self.entailed else "not entailed"
        return f"{self.statement}: {status}"


class StatementChecker:
    """Answers the Lemma B.7 entailment questions for one transformation
    and source schema; the grouped queries come from the transformation's
    memo (:mod:`repro.transform.grouping`)."""

    def __init__(
        self,
        transformation: Transformation,
        schema: Schema,
        solver: Optional[ContainmentSolver] = None,
    ) -> None:
        self.transformation = transformation
        self.schema = schema
        self.solver = solver or ContainmentSolver(schema)

    # ------------------------------------------------------------------ #
    def entails_exists(self, source: str, role: SignedLabel, target: str) -> StatementEntailment:
        """``(T,S) ⊨ A ⊑ ∃R.B``."""
        statement = ExistsCI(conj(source), role, conj(target))
        q_node = node_query(self.transformation, source)
        q_edge = edge_query(self.transformation, source, role, target)
        if q_node.is_empty():
            # no A-node is ever produced: the statement holds vacuously
            return StatementEntailment(statement, True)
        if q_edge.is_empty():
            # A-nodes may be produced but never with an outgoing R-edge to B
            return StatementEntailment(statement, False)
        projected = q_edge.map(
            lambda disjunct: disjunct.project(
                [v for v in disjunct.free_variables if v.startswith("x")]
            )
        )
        containment = self.solver.contains(q_node, projected)
        return StatementEntailment(statement, bool(containment), containment)

    def entails_no_exists(self, source: str, role: SignedLabel, target: str) -> StatementEntailment:
        """``(T,S) ⊨ A ⊑ ¬∃R.B``."""
        statement = NoExistsCI(conj(source), role, conj(target))
        q_node = node_query(self.transformation, source)
        q_edge = edge_query(self.transformation, source, role, target)
        if q_node.is_empty() or q_edge.is_empty():
            return StatementEntailment(statement, True)
        conjunction = conjoin_unions(q_node, q_edge).boolean()
        satisfiability = self.solver.satisfiable(conjunction)
        return StatementEntailment(statement, bool(satisfiability.contained), satisfiability)

    def entails_at_most(self, source: str, role: SignedLabel, target: str) -> StatementEntailment:
        """``(T,S) ⊨ A ⊑ ∃≤1R.B``."""
        statement = AtMostOneCI(conj(source), role, conj(target))
        q_node = node_query(self.transformation, source)
        q_edge = edge_query(self.transformation, source, role, target)
        if q_node.is_empty() or q_edge.is_empty():
            return StatementEntailment(statement, True)
        y_vars = [v for v in q_edge.disjuncts[0].free_variables if v.startswith("y")]
        z_vars = [f"z{index + 1}" for index in range(len(y_vars))]
        second_copy = q_edge.map(
            lambda disjunct: disjunct.rename(
                {
                    **{v: f"z{v[1:]}" for v in disjunct.free_variables if v.startswith("y")},
                    **{
                        v: f"_second_{v}"
                        for v in disjunct.existential_variables()
                    },
                }
            )
        )
        left = conjoin_unions(conjoin_unions(q_node, q_edge), second_copy)
        left = left.map(lambda disjunct: disjunct.project(y_vars + z_vars))
        right = equality_query(y_vars, z_vars)
        containment = self.solver.contains(left, right)
        return StatementEntailment(statement, bool(containment), containment)

    # ------------------------------------------------------------------ #
    def entails(self, statement: ConceptInclusion) -> StatementEntailment:
        """Dispatch on an L0 statement (single labels on both sides)."""
        (source,) = statement.body  # type: ignore[attr-defined]
        (target,) = statement.head  # type: ignore[attr-defined]
        role: SignedLabel = statement.role  # type: ignore[attr-defined]
        if isinstance(statement, ExistsCI):
            return self.entails_exists(source, role, target)
        if isinstance(statement, NoExistsCI):
            return self.entails_no_exists(source, role, target)
        if isinstance(statement, AtMostOneCI):
            return self.entails_at_most(source, role, target)
        raise TypeError(f"not an L0 statement: {statement}")
