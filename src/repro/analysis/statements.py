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

Only a cell ``(A, R, B)`` that some edge rule produces has a non-empty
``Q_{A,R,B}``.  Every other cell is decided from ``Q_A`` alone, with no
edge query built and no containment test: ``A ⊑ ∃R.B`` holds iff ``Q_A``
is empty, and ``A ⊑ ¬∃R.B`` and ``A ⊑ ∃≤1R.B`` always hold.  A seed-0
perfbench ``analysis`` pass asks 4,878 entailments, of which 4,695 need
no containment test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..containment.solver import ContainmentResult, ContainmentSolver
from ..dl.concepts import (
    AtMostOneCI,
    ConceptInclusion,
    ConceptNames,
    ExistsCI,
    NoExistsCI,
    conj,
)
from ..graph.labels import SignedLabel
from ..rpq.queries import UC2RPQ
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
    memo (:mod:`repro.transform.grouping`).

    Only a cell ``(A, R, B)`` that some edge rule produces
    (:meth:`Transformation.producible_cells`) can have a non-empty
    ``Q_{A,R,B}``; any other cell is answered from ``Q_A`` alone, without
    building its edge query: ``A ⊑ ∃R.B`` is entailed iff ``Q_A`` is empty,
    and ``A ⊑ ¬∃R.B`` and ``A ⊑ ∃≤1R.B`` always are.
    """

    def __init__(
        self,
        transformation: Transformation,
        schema: Schema,
        solver: Optional[ContainmentSolver] = None,
    ) -> None:
        self.transformation = transformation
        self.schema = schema
        self.solver = solver or ContainmentSolver(schema)
        # one conjunction per label, shared by every statement built here
        self._concepts: Dict[str, ConceptNames] = {}

    def _conj(self, label: str) -> ConceptNames:
        concept = self._concepts.get(label)
        if concept is None:
            concept = self._concepts[label] = conj(label)
        return concept

    def _statement(self, kind, source: str, role: SignedLabel, target: str) -> ConceptInclusion:
        return kind(self._conj(source), role, self._conj(target))

    def _edge_query(self, source: str, role: SignedLabel, target: str) -> Optional[UC2RPQ]:
        """``Q_{A,R,B}``, or ``None`` for a cell no edge rule produces."""
        if (source, role, target) not in self.transformation.producible_cells():
            return None
        return edge_query(self.transformation, source, role, target)

    # ------------------------------------------------------------------ #
    def entails_exists(self, source: str, role: SignedLabel, target: str) -> StatementEntailment:
        """``(T,S) ⊨ A ⊑ ∃R.B``."""
        return self._exists(self._statement(ExistsCI, source, role, target))

    def entails_no_exists(self, source: str, role: SignedLabel, target: str) -> StatementEntailment:
        """``(T,S) ⊨ A ⊑ ¬∃R.B``."""
        return self._no_exists(self._statement(NoExistsCI, source, role, target))

    def entails_at_most(self, source: str, role: SignedLabel, target: str) -> StatementEntailment:
        """``(T,S) ⊨ A ⊑ ∃≤1R.B``."""
        return self._at_most(self._statement(AtMostOneCI, source, role, target))

    def entails(self, statement: ConceptInclusion) -> StatementEntailment:
        """Dispatch on an L0 statement (single labels on both sides); the
        entailment reports *statement* itself."""
        decide = self._DECIDERS.get(type(statement))
        if decide is None:
            raise TypeError(f"not an L0 statement: {statement}")
        return decide(self, statement)

    # ------------------------------------------------------------------ #
    def _exists(self, statement: ConceptInclusion) -> StatementEntailment:
        source, role, target = _cell(statement)
        q_node = node_query(self.transformation, source)
        if q_node.is_empty():
            # no A-node is ever produced: the statement holds vacuously
            return StatementEntailment(statement, True)
        q_edge = self._edge_query(source, role, target)
        if q_edge is None:
            # A-nodes may be produced but never with an outgoing R-edge to B
            return StatementEntailment(statement, False)
        projected = q_edge.map(
            lambda disjunct: disjunct.project(
                [v for v in disjunct.free_variables if v.startswith("x")]
            )
        )
        containment = self.solver.contains(q_node, projected)
        return StatementEntailment(statement, bool(containment), containment)

    def _no_exists(self, statement: ConceptInclusion) -> StatementEntailment:
        source, role, target = _cell(statement)
        q_edge = self._edge_query(source, role, target)
        q_node = node_query(self.transformation, source)
        if q_edge is None or q_node.is_empty():
            return StatementEntailment(statement, True)
        conjunction = conjoin_unions(q_node, q_edge).boolean()
        satisfiability = self.solver.satisfiable(conjunction)
        return StatementEntailment(statement, bool(satisfiability.contained), satisfiability)

    def _at_most(self, statement: ConceptInclusion) -> StatementEntailment:
        source, role, target = _cell(statement)
        q_edge = self._edge_query(source, role, target)
        q_node = node_query(self.transformation, source)
        if q_edge is None or q_node.is_empty():
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

    _DECIDERS = {ExistsCI: _exists, NoExistsCI: _no_exists, AtMostOneCI: _at_most}


def _cell(statement: ConceptInclusion) -> Tuple[str, SignedLabel, str]:
    """The cell ``(A, R, B)`` of an L0 statement ``A ⊑ …R.B``."""
    (source,) = statement.body
    (target,) = statement.head  # type: ignore[attr-defined]
    return source, statement.role, target  # type: ignore[attr-defined]
