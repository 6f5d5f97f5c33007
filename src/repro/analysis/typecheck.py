"""Type checking of graph transformations (Section 4, Lemma B.2).

``type_check(T, S, S')`` decides whether ``T(G)`` conforms to the target
schema ``S'`` for *every* graph ``G`` conforming to the source schema ``S``.
Following Lemma B.2 the check decomposes into:

1. trimming ``T`` modulo ``S`` (unproductive rules are irrelevant);
2. the syntactic inclusion of the output signature: ``Γ_T ⊆ Γ_{S'}`` and
   ``Σ_T ⊆ Σ_{S'}``;
3. label coverage ``(T,S) ⊨ ⊤ ⊑ ⊔Γ_T`` (Lemma B.6);
4. entailment of every statement of the L0 TBox ``T_{S'}`` (Lemma B.7).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from ..containment.solver import ContainmentConfig
from ..dl.schema_tbox import schema_to_l0
from ..engine import ContainmentEngine, default_engine
from ..schema.schema import Schema
from ..transform.grouping import trim
from ..transform.transformation import Transformation
from .coverage import CoverageResult, check_label_coverage
from .statements import StatementChecker, StatementEntailment

__all__ = ["TypeCheckResult", "type_check"]


@dataclass
class TypeCheckResult:
    """Outcome of type checking a transformation against a target schema."""

    well_typed: bool
    transformation_name: str
    source_schema: str
    target_schema: str
    signature_errors: List[str] = field(default_factory=list)
    coverage: Optional[CoverageResult] = None
    statement_results: List[StatementEntailment] = field(default_factory=list)
    containment_calls: int = 0
    elapsed_seconds: float = 0.0

    def __bool__(self) -> bool:
        return self.well_typed

    def failed_statements(self) -> List[StatementEntailment]:
        """The target-schema constraints that the transformation may violate."""
        return [entailment for entailment in self.statement_results if not entailment.entailed]

    def summary(self) -> str:
        header = (
            f"type checking {self.transformation_name}: {self.source_schema} → {self.target_schema}: "
            f"{'WELL-TYPED' if self.well_typed else 'NOT WELL-TYPED'}"
        )
        lines = [header]
        lines.extend(f"  signature: {error}" for error in self.signature_errors)
        if self.coverage is not None and not self.coverage.covered:
            lines.append("  " + self.coverage.summary().replace("\n", "\n  "))
        lines.extend(f"  violates {entailment.statement}" for entailment in self.failed_statements())
        return "\n".join(lines)


def type_check(
    transformation: Transformation,
    source_schema: Schema,
    target_schema: Schema,
    config: Optional[ContainmentConfig] = None,
    pre_trimmed: bool = False,
    engine: Optional[ContainmentEngine] = None,
) -> TypeCheckResult:
    """Decide whether ``T(G)`` conforms to *target_schema* for every
    ``G ∈ L(source_schema)`` (Theorem 4.2).

    The many containment tests of the Turing reduction are routed through
    *engine* (the process-wide :func:`repro.engine.default_engine` when not
    given), so the schema encoding, completions and NFAs are built once per
    schema rather than once per test.
    """
    started = time.perf_counter()
    solver = (engine or default_engine()).solver(source_schema, config)
    result = TypeCheckResult(
        well_typed=True,
        transformation_name=transformation.name,
        source_schema=source_schema.name,
        target_schema=target_schema.name,
    )

    trimmed = transformation if pre_trimmed else trim(transformation, source_schema, solver)

    # (2) signature inclusion
    foreign_nodes = sorted(trimmed.node_labels() - target_schema.node_labels)
    foreign_edges = sorted(trimmed.edge_labels() - target_schema.edge_labels)
    for label in foreign_nodes:
        result.signature_errors.append(f"output node label {label!r} is not allowed by {target_schema.name}")
    for label in foreign_edges:
        result.signature_errors.append(f"output edge label {label!r} is not allowed by {target_schema.name}")
    if result.signature_errors:
        result.well_typed = False

    # (3) label coverage
    result.coverage = check_label_coverage(trimmed, source_schema, solver)
    if not result.coverage.covered:
        result.well_typed = False

    # (4) the participation constraints of the target schema
    if result.well_typed:
        checker = StatementChecker(trimmed, source_schema, solver)
        target_tbox = schema_to_l0(target_schema)
        for statement in target_tbox:
            # constraints that mention labels the transformation never produces
            # are vacuously satisfied (there are no such nodes in any output)
            (body_label,) = statement.body  # type: ignore[attr-defined]
            if body_label not in trimmed.node_labels():
                continue
            entailment = checker.entails(statement)
            result.statement_results.append(entailment)
            if not entailment.entailed:
                result.well_typed = False

    result.containment_calls = solver.contains_calls
    result.elapsed_seconds = time.perf_counter() - started
    return result
