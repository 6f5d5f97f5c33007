"""Target schema elicitation (Section 4, Lemma B.5).

When the target schema of a transformation is unknown, elicitation constructs
the containment-minimal schema over ``(Γ_T, Σ_T)`` that captures every output
``T(G)`` for ``G`` conforming to the source schema.  By Lemma B.5 it suffices
to collect all L0 statements over ``(Γ_T, Σ_T)`` entailed by ``(T, S)``; the
coherent L0 TBox obtained this way corresponds to the desired schema
(Proposition B.4).  Elicitation fails — like type checking would — when some
output node may lack a label.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from ..containment.solver import ContainmentConfig
from ..dl.concepts import ConceptInclusion
from ..engine import ContainmentEngine, default_engine
from ..dl.schema_tbox import schema_from_l0
from ..exceptions import ElicitationError
from ..graph.labels import signed_closure
from ..schema.schema import Schema
from ..transform.grouping import trim
from ..transform.transformation import Transformation
from .coverage import CoverageResult, check_label_coverage
from .statements import StatementChecker, StatementEntailment

__all__ = ["ElicitationResult", "elicit_schema"]


@dataclass
class ElicitationResult:
    """The elicited schema together with the entailment evidence."""

    schema: Schema
    coverage: CoverageResult
    statements: List[StatementEntailment] = field(default_factory=list)
    containment_calls: int = 0
    elapsed_seconds: float = 0.0

    def entailed_statements(self) -> List[ConceptInclusion]:
        """The L0 statements that hold on every output graph."""
        return [entailment.statement for entailment in self.statements if entailment.entailed]


def elicit_schema(
    transformation: Transformation,
    source_schema: Schema,
    name: Optional[str] = None,
    config: Optional[ContainmentConfig] = None,
    pre_trimmed: bool = False,
    engine: Optional[ContainmentEngine] = None,
) -> ElicitationResult:
    """Construct the containment-minimal target schema of a transformation.

    Raises :class:`ElicitationError` when some output node may lack a label
    (in that case no schema captures the outputs, as every conforming graph
    labels every node).  Elicitation sweeps ``|Γ_T|² · |Σ±_T|`` candidate
    statements, each a containment test — the densest batch workload in the
    repo — so the tests run through *engine* (the process-wide default when
    not given).
    """
    started = time.perf_counter()
    solver = (engine or default_engine()).solver(source_schema, config)
    trimmed = transformation if pre_trimmed else trim(transformation, source_schema, solver)

    coverage = check_label_coverage(trimmed, source_schema, solver)
    if not coverage.covered:
        raise ElicitationError(
            "schema elicitation is impossible: some output node may lack a label\n"
            + coverage.summary()
        )

    node_labels = sorted(trimmed.node_labels())
    edge_labels = sorted(trimmed.edge_labels())
    checker = StatementChecker(trimmed, source_schema, solver)
    entailments: List[StatementEntailment] = []
    statements: List[ConceptInclusion] = []
    for source_label in node_labels:
        for role in signed_closure(edge_labels):
            for target_label in node_labels:
                for check in (
                    checker.entails_exists,
                    checker.entails_at_most,
                    checker.entails_no_exists,
                ):
                    entailment = check(source_label, role, target_label)
                    entailments.append(entailment)
                    if entailment.entailed:
                        statements.append(entailment.statement)

    schema = schema_from_l0(
        statements,
        node_labels,
        edge_labels,
        name=name or f"elicited({transformation.name})",
    )
    result = ElicitationResult(
        schema=schema,
        coverage=coverage,
        statements=entailments,
        containment_calls=solver.contains_calls,
        elapsed_seconds=time.perf_counter() - started,
    )
    return result
