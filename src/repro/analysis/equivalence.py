"""Equivalence of graph transformations modulo a source schema (Lemma B.8).

Two transformations are equivalent modulo ``S`` when they produce the same
output on every graph conforming to ``S``.  After trimming, this holds iff

1. they use the same output node and edge labels;
2. for every node label ``A``: ``Q^{T₁}_A ≡_S Q^{T₂}_A``;
3. for every ``A, B ∈ Γ`` and ``r ∈ Σ``: ``Q^{T₁}_{A,r,B} ≡_S Q^{T₂}_{A,r,B}``.

Equivalence of unions of (acyclic) queries is decided as two containments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..containment.solver import ContainmentConfig, ContainmentResult, ContainmentSolver
from ..engine import ContainmentEngine, default_engine
from ..graph.labels import forward
from ..rpq.queries import UC2RPQ
from ..schema.schema import Schema
from ..transform.grouping import edge_query, node_query, trim
from ..transform.transformation import Transformation

__all__ = ["EquivalenceDifference", "EquivalenceResult", "check_equivalence"]


@dataclass
class EquivalenceDifference:
    """One reason why the transformations differ."""

    kind: str
    description: str
    left_result: Optional[ContainmentResult] = None
    right_result: Optional[ContainmentResult] = None

    def __str__(self) -> str:
        return f"[{self.kind}] {self.description}"


@dataclass
class EquivalenceResult:
    """Outcome of the equivalence analysis."""

    equivalent: bool
    left_name: str
    right_name: str
    differences: List[EquivalenceDifference] = field(default_factory=list)
    containment_calls: int = 0
    elapsed_seconds: float = 0.0

    def __bool__(self) -> bool:
        return self.equivalent

    def summary(self) -> str:
        if self.equivalent:
            return f"{self.left_name} and {self.right_name} are equivalent"
        lines = [f"{self.left_name} and {self.right_name} differ:"]
        lines.extend(f"  {difference}" for difference in self.differences)
        return "\n".join(lines)


def _queries_equivalent(
    solver: ContainmentSolver, left: UC2RPQ, right: UC2RPQ
) -> Tuple[bool, Optional[ContainmentResult], Optional[ContainmentResult]]:
    if left.is_empty() and right.is_empty():
        return True, None, None
    if left.is_empty() or right.is_empty():
        # one side never produces the object, the other might (trimmed rules do)
        return False, None, None
    forward_result = solver.contains(left, right)
    if not forward_result:
        return False, forward_result, None
    backward_result = solver.contains(right, left)
    return bool(backward_result), forward_result, backward_result


def check_equivalence(
    left: Transformation,
    right: Transformation,
    schema: Schema,
    config: Optional[ContainmentConfig] = None,
    pre_trimmed: bool = False,
    engine: Optional[ContainmentEngine] = None,
) -> EquivalenceResult:
    """Decide whether two transformations agree on every graph in ``L(S)``.

    All containment tests run through *engine* (the process-wide default
    when not given), sharing the per-schema caches across the per-label and
    per-edge query comparisons.
    """
    started = time.perf_counter()
    solver = (engine or default_engine()).solver(schema, config)
    left_trimmed = left if pre_trimmed else trim(left, schema, solver)
    right_trimmed = right if pre_trimmed else trim(right, schema, solver)

    result = EquivalenceResult(True, left.name, right.name)

    # (1) identical output signatures
    if left_trimmed.node_labels() != right_trimmed.node_labels():
        symmetric = left_trimmed.node_labels() ^ right_trimmed.node_labels()
        result.differences.append(
            EquivalenceDifference("signature", f"node labels differ on {sorted(symmetric)}")
        )
    if left_trimmed.edge_labels() != right_trimmed.edge_labels():
        symmetric = left_trimmed.edge_labels() ^ right_trimmed.edge_labels()
        result.differences.append(
            EquivalenceDifference("signature", f"edge labels differ on {sorted(symmetric)}")
        )
    if result.differences:
        result.equivalent = False
        result.containment_calls = solver.contains_calls
        result.elapsed_seconds = time.perf_counter() - started
        return result

    node_labels = sorted(left_trimmed.node_labels())
    edge_labels = sorted(left_trimmed.edge_labels())

    # (2) node queries agree
    for label in node_labels:
        left_query = node_query(left_trimmed, label)
        right_query = node_query(right_trimmed, label)
        equivalent, forward_result, backward_result = _queries_equivalent(
            solver, left_query, right_query
        )
        if not equivalent:
            result.equivalent = False
            result.differences.append(
                EquivalenceDifference(
                    "node-rule",
                    f"the {label}-nodes produced by the two transformations differ",
                    forward_result,
                    backward_result,
                )
            )

    # (3) edge queries agree
    for source_label in node_labels:
        for edge_label in edge_labels:
            for target_label in node_labels:
                left_query = edge_query(left_trimmed, source_label, forward(edge_label), target_label)
                right_query = edge_query(right_trimmed, source_label, forward(edge_label), target_label)
                equivalent, forward_result, backward_result = _queries_equivalent(
                    solver, left_query, right_query
                )
                if not equivalent:
                    result.equivalent = False
                    result.differences.append(
                        EquivalenceDifference(
                            "edge-rule",
                            (
                                f"the {edge_label}-edges from {source_label}- to {target_label}-nodes "
                                f"produced by the two transformations differ"
                            ),
                            forward_result,
                            backward_result,
                        )
                    )

    result.containment_calls = solver.contains_calls
    result.elapsed_seconds = time.perf_counter() - started
    return result
