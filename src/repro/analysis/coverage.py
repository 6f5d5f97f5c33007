"""Label coverage: the entailment ``(T, S) ⊨ ⊤ ⊑ ⊔Γ_T`` (Lemma B.6).

Every node of every output graph ``T(G)`` (for ``G`` conforming to ``S``) must
carry a label.  Nodes are created by node rules (which label them) and by
edge rules (which do not), so the check amounts to: whenever an edge rule
creates a node with constructor ``f_A``, the same argument tuple also
satisfies some ``A``-node rule.  Lemma B.6 phrases this as the containments

    ∃ȳ. Q_{A,R,B}(x̄, ȳ)  ⊆_S  Q_A(x̄)      for all A, B ∈ Γ_T, R ∈ Σ±_T.

The containment holds trivially when ``Q_{A,R,B}`` is empty, which is the
case exactly for the cells no edge rule produces
(:meth:`~repro.transform.transformation.Transformation.producible_cells`):
the sweep skips those without building their queries and tests the others
in the same ``(A, R, B)`` order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..containment.solver import ContainmentResult, ContainmentSolver
from ..graph.labels import SignedLabel, signed_closure
from ..schema.schema import Schema
from ..transform.grouping import edge_query, node_query
from ..transform.transformation import Transformation

__all__ = ["CoverageCheck", "CoverageResult", "check_label_coverage"]


@dataclass
class CoverageCheck:
    """One containment test performed during coverage checking."""

    source_label: str
    role: SignedLabel
    target_label: str
    holds: bool
    result: Optional[ContainmentResult] = None

    def __str__(self) -> str:
        status = "ok" if self.holds else "FAILS"
        return f"∃ȳ.Q_{self.source_label},{self.role},{self.target_label} ⊆ Q_{self.source_label}: {status}"


@dataclass
class CoverageResult:
    """Outcome of the label-coverage analysis."""

    covered: bool
    checks: List[CoverageCheck] = field(default_factory=list)
    unassociated_constructors: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.covered

    def failures(self) -> List[CoverageCheck]:
        """The containment tests that failed."""
        return [check for check in self.checks if not check.holds]

    def summary(self) -> str:
        if self.covered:
            return "every output node carries exactly one label"
        lines = ["label coverage fails:"]
        lines.extend(f"  constructor {name} is not dedicated to any node label"
                     for name in self.unassociated_constructors)
        lines.extend(f"  {check}" for check in self.failures())
        return "\n".join(lines)


def check_label_coverage(
    transformation: Transformation,
    schema: Schema,
    solver: Optional[ContainmentSolver] = None,
) -> CoverageResult:
    """Decide ``(T, S) ⊨ ⊤ ⊑ ⊔Γ_T`` via the containments of Lemma B.6."""
    solver = solver or ContainmentSolver(schema)
    result = CoverageResult(covered=True)

    # every constructor used by an edge rule must be dedicated to a node label
    for rule in transformation.edge_rules:
        for constructor in (rule.source_constructor, rule.target_constructor):
            label = transformation.label_of_constructor(constructor.name)
            if label is None and constructor.name not in result.unassociated_constructors:
                result.unassociated_constructors.append(constructor.name)
                result.covered = False
    if result.unassociated_constructors:
        return result

    node_labels = sorted(transformation.node_labels())
    edge_labels = sorted(transformation.edge_labels())
    producible = transformation.producible_cells()
    for source_label in node_labels:
        for role in signed_closure(edge_labels):
            for target_label in node_labels:
                if (source_label, role, target_label) not in producible:
                    continue  # no edge rule creates such edges; nothing to check
                lhs = edge_query(transformation, source_label, role, target_label)
                projected = lhs.map(
                    lambda disjunct: disjunct.project(
                        [v for v in disjunct.free_variables if v.startswith("x")]
                    )
                )
                containment = solver.contains(projected, node_query(transformation, source_label))
                check = CoverageCheck(source_label, role, target_label, bool(containment), containment)
                result.checks.append(check)
                if not containment:
                    result.covered = False
    return result
