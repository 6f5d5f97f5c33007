"""Grouping the rule bodies of a transformation into the queries Q_A and
Q_{A,R,B} (Section 4), plus trimming.

For a transformation ``T``, a node label ``A``, an edge label ``r`` and node
labels ``A, B``:

* ``Q^T_A(x̄)`` is the union of the bodies of the ``A``-node rules — the
  tuples of the input graph that yield an ``A``-labeled node ``f_A(x̄)``;
* ``Q^T_{A,r,B}(x̄, ȳ)`` is the union of the bodies of the edge rules
  ``r(f_A(x̄), f_B(ȳ)) ← q``;
* ``Q^T_{A,r⁻,B}(x̄, ȳ)`` reads the edge rules ``r(f_B(ȳ), f_A(x̄)) ← q`` in
  the other direction.

All groupings use the canonical free-variable names ``x1,…,xk`` (and
``y1,…,ym``), so queries of different rules can be combined and compared.
``Q_{A,R,B}`` reads its rules from the transformation's edge-rule index
(:meth:`~repro.transform.transformation.Transformation.edge_rules_between`),
so an empty one costs one lookup rather than a scan of every edge rule.
``Q_{A,R,B}`` is non-empty exactly for the cells ``(A, R, B)`` in
:meth:`~repro.transform.transformation.Transformation.producible_cells`,
and the analyses in :mod:`repro.analysis` ask for no other: they decide
the other cells without a query, so a seed-0 perfbench ``analysis`` pass
builds 162 edge queries where sweeping every cell built 3,237.
Both groupings are memoised on the transformation
(:attr:`~repro.transform.transformation.Transformation.grouped_queries`,
keyed by ``A`` and by ``(A, R, B)``), so the coverage check, the statement
entailments and the equivalence sweep of one transformation share each
query, and a repeat costs one dict lookup.  Callers share the returned
unions, so they treat them as read-only and derive new ones
(:meth:`UC2RPQ.map`, :func:`conjoin_unions`).
The module also provides the variable-capture-safe conjunction of such
unions, needed for the entailment tests of Lemma B.7, and trimming modulo a
schema (Appendix B).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import TransformationError
from ..graph.labels import SignedLabel
from ..rpq.queries import Atom, C2RPQ, UC2RPQ, equality_atom
from ..schema.schema import Schema
from .transformation import Transformation

__all__ = [
    "canonical_variables",
    "node_query",
    "edge_query",
    "conjoin_unions",
    "equality_query",
    "unsatisfiable_query",
    "trim",
]


def canonical_variables(prefix: str, arity: int) -> Tuple[str, ...]:
    """The canonical variable tuple ``(prefix1, …, prefix_arity)``."""
    return tuple(f"{prefix}{index + 1}" for index in range(arity))


def _canonicalise(body: C2RPQ, head_variables: Sequence[str], canonical: Sequence[str], tag: str) -> C2RPQ:
    """Rename *body* so its free variables are exactly *canonical* (in order)
    and its existential variables cannot clash with other rules' variables."""
    projected = body.project(list(head_variables))
    mapping: Dict[str, str] = {}
    for variable in projected.variables():
        mapping[variable] = f"_{tag}_{variable}"
    for head_variable, canonical_variable in zip(head_variables, canonical):
        mapping[head_variable] = canonical_variable
    return projected.rename(mapping)


def node_query(transformation: Transformation, label: str) -> UC2RPQ:
    """``Q^T_A(x̄)`` — the union of the bodies of the ``A``-node rules."""
    memo = transformation.grouped_queries
    if label not in memo:
        memo[label] = _node_query(transformation, label)
    return memo[label]


def edge_query(
    transformation: Transformation, source_label: str, role: SignedLabel, target_label: str
) -> UC2RPQ:
    """``Q^T_{A,R,B}(x̄, ȳ)`` for ``R ∈ Σ±`` (Section 4)."""
    memo = transformation.grouped_queries
    key = (source_label, role, target_label)
    if key not in memo:
        memo[key] = _edge_query(transformation, source_label, role, target_label)
    return memo[key]


def _node_query(transformation: Transformation, label: str) -> UC2RPQ:
    rules = [rule for rule in transformation.node_rules if rule.label == label]
    if not rules:
        return UC2RPQ([], name=f"Q_{label}")
    arity = rules[0].constructor.arity
    canonical = canonical_variables("x", arity)
    disjuncts = [
        _canonicalise(rule.body, rule.variables, canonical, f"n{index}")
        for index, rule in enumerate(rules)
    ]
    return UC2RPQ(disjuncts, name=f"Q_{label}")


def _edge_query(
    transformation: Transformation, source_label: str, role: SignedLabel, target_label: str
) -> UC2RPQ:
    source_constructor = transformation.constructor_for_label(source_label)
    target_constructor = transformation.constructor_for_label(target_label)
    name = f"Q_{source_label},{role},{target_label}"
    if source_constructor is None or target_constructor is None:
        return UC2RPQ([], name=name)
    inverse = role.is_inverse
    names = (source_constructor.name, target_constructor.name)
    if inverse:
        names = names[::-1]
    rules = transformation.edge_rules_between(role.label, *names)
    if not rules:
        return UC2RPQ([], name=name)
    canonical = canonical_variables("x", source_constructor.arity) + canonical_variables(
        "y", target_constructor.arity
    )
    disjuncts: List[C2RPQ] = []
    for index, rule in rules:
        if inverse:
            # r(f_B(ȳ), f_A(x̄)) ← q(ȳ, x̄): the A-side is the rule's target
            head_variables = rule.target_variables + rule.source_variables
        else:
            head_variables = rule.source_variables + rule.target_variables
        disjuncts.append(_canonicalise(rule.body, head_variables, canonical, f"e{index}"))
    return UC2RPQ(disjuncts, name=name)


def conjoin_unions(left: UC2RPQ, right: UC2RPQ, name: Optional[str] = None) -> UC2RPQ:
    """The conjunction of two unions, distributed into a union of conjunctions.

    Shared free-variable names are shared variables; existential variables of
    the right disjuncts are renamed so they cannot capture variables of the
    left disjuncts.
    """
    if left.is_empty() or right.is_empty():
        return UC2RPQ([], name=name or f"{left.name}∧{right.name}")
    disjuncts: List[C2RPQ] = []
    for left_index, left_disjunct in enumerate(left.disjuncts):
        for right_index, right_disjunct in enumerate(right.disjuncts):
            safe_right = right_disjunct.rename(
                {
                    variable: f"_c{left_index}_{right_index}_{variable}"
                    for variable in right_disjunct.existential_variables()
                }
            )
            disjuncts.append(
                left_disjunct.conjoin(safe_right, name=f"{left_disjunct.name}&{safe_right.name}")
            )
    return UC2RPQ(disjuncts, name=name or f"{left.name}∧{right.name}")


def equality_query(
    left_variables: Sequence[str], right_variables: Sequence[str], name: str = "Eq"
) -> UC2RPQ:
    """The query ``⋀ᵢ ε(leftᵢ, rightᵢ)`` used in the at-most test of Lemma B.7."""
    if len(left_variables) != len(right_variables):
        raise TransformationError("equality query requires tuples of equal length")
    atoms = [
        equality_atom(left, right) for left, right in zip(left_variables, right_variables)
    ]
    free = list(left_variables) + list(right_variables)
    return UC2RPQ([C2RPQ(atoms, free, name=name)], name=name)


def unsatisfiable_query(variables: Sequence[str], name: str = "∅") -> UC2RPQ:
    """The query ``⋀ᵢ ∅(xᵢ)`` (always false) used in the ¬∃ test of Lemma B.7."""
    from ..rpq.regex import EMPTY

    atoms = [Atom(EMPTY, variable, variable) for variable in variables]
    return UC2RPQ([C2RPQ(atoms, list(variables), name=name)], name=name)


def trim(
    transformation: Transformation,
    schema: Schema,
    containment_solver=None,
) -> Transformation:
    """Remove the rules whose bodies are unsatisfiable modulo *schema*.

    A rule ``ρ ← q(x̄)`` is *productive* modulo ``S`` when ``q`` is satisfiable
    on some graph conforming to ``S``; trimming removes unproductive rules and
    (implicitly) the head labels that no longer occur (Appendix B).
    """
    from ..containment.solver import ContainmentSolver

    solver = containment_solver or ContainmentSolver(schema)
    productive = []
    for rule in transformation.rules():
        body = UC2RPQ.from_query(rule.projected_body().boolean(), name="body")
        if not solver.satisfiable(body).contained:
            productive.append(rule)
    return transformation.restricted_to(productive, name=f"trim({transformation.name})")
