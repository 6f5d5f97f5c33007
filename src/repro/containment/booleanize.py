"""Reduction from containment of queries with free variables to containment
of Boolean queries (Lemma D.1).

Given a schema ``S`` and UC2RPQs ``P(x̄)`` and ``Q(x̄)`` over the free
variables ``x̄ = (x₁,…,x_n)``, the construction introduces fresh *marker*
node labels ``X₁,…,X_n`` and fresh edge labels ``r₁,…,r_n``:

* the schema ``S°`` extends ``S`` so that an ``Xᵢ``-node may have at most one
  outgoing ``rᵢ``-edge to a node with a label of ``Γ_S`` and nothing else;
* both queries are extended with the atoms ``∃y.(Xᵢ·rᵢ)(y, xᵢ)`` and then all
  variables are existentially quantified.

Because the original regular expressions cannot traverse the fresh labels,
``P(x̄) ⊆_S Q(x̄)`` holds iff ``P° ⊆_{S°} Q°`` holds for the Boolean queries.

``S°`` depends only on ``S`` and ``x̄``, so it is memoised on the schema
(:meth:`repro.schema.Schema.derived`) and every call with the same free
variables shares it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..exceptions import QueryError
from ..rpq.queries import Atom, C2RPQ, UC2RPQ
from ..rpq.regex import concat, edge, node
from ..schema.schema import Multiplicity, Schema

__all__ = ["Booleanization", "booleanize"]

MARKER_NODE_PREFIX = "FreeVarMarker_"
MARKER_EDGE_PREFIX = "answers_"


@dataclass
class Booleanization:
    """The outcome of the Lemma D.1 reduction."""

    schema: Schema
    left: UC2RPQ
    right: UC2RPQ
    marker_node_labels: Tuple[str, ...]
    marker_edge_labels: Tuple[str, ...]
    free_variables: Tuple[str, ...]


def _marker_labels(free_variables: Sequence[str]) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    nodes = tuple(f"{MARKER_NODE_PREFIX}{variable}" for variable in free_variables)
    edges = tuple(f"{MARKER_EDGE_PREFIX}{variable}" for variable in free_variables)
    return nodes, edges


def _extended_schema(schema: Schema, free_variables: Tuple[str, ...]) -> Schema:
    """The schema ``S°``, built once per free-variable tuple and shared by
    every call (with its fingerprint memo); keyed by the schema's name too,
    which ``S°``'s name repeats."""
    return schema.derived(
        ("booleanize.S°", schema.name, free_variables),
        lambda: _build_extended_schema(schema, free_variables),
    )


def _build_extended_schema(schema: Schema, free_variables: Sequence[str]) -> Schema:
    marker_nodes, marker_edges = _marker_labels(free_variables)
    clash = (set(marker_nodes) & schema.node_labels) | (set(marker_edges) & schema.edge_labels)
    if clash:
        raise QueryError(f"marker labels clash with schema labels: {sorted(clash)}")
    extended = Schema(
        schema.node_labels | set(marker_nodes),
        schema.edge_labels | set(marker_edges),
        name=f"{schema.name}°",
    )
    for source, signed, target, multiplicity in schema.declared_constraints():
        extended.set(source, signed, target, multiplicity)
    for marker_node, marker_edge in zip(marker_nodes, marker_edges):
        for label in sorted(schema.node_labels):
            extended.set(marker_node, marker_edge, label, Multiplicity.OPTIONAL)
            extended.set(label, f"{marker_edge}-", marker_node, Multiplicity.OPTIONAL)
    return extended


def _add_marker_atoms(query: C2RPQ, free_variables: Sequence[str]) -> C2RPQ:
    marker_nodes, marker_edges = _marker_labels(free_variables)
    atoms: List[Atom] = list(query.atoms)
    for index, variable in enumerate(free_variables):
        witness = f"__marker_{variable}"
        atoms.append(Atom(concat(node(marker_nodes[index]), edge(marker_edges[index])), witness, variable))
    return C2RPQ(atoms, [], name=f"{query.name}°")


def booleanize(schema: Schema, left: UC2RPQ, right: UC2RPQ) -> Booleanization:
    """Apply the Lemma D.1 reduction to a containment instance.

    Both queries must have the same free variables (the paper assumes a shared
    answer tuple ``x̄``); queries supplied as single C2RPQs may be wrapped with
    :meth:`UC2RPQ.from_query` first.
    """
    if not left.is_empty() and not right.is_empty() and left.arity() != right.arity():
        raise QueryError(
            f"containment requires equal arities, got {left.arity()} and {right.arity()}"
        )
    if left.is_empty():
        free_variables: Tuple[str, ...] = tuple(
            right.disjuncts[0].free_variables if right.disjuncts else ()
        )
    else:
        free_variables = tuple(left.disjuncts[0].free_variables)

    # align the right-hand side's free-variable names with the left's
    def align(query: C2RPQ) -> C2RPQ:
        if tuple(query.free_variables) == free_variables:
            return query
        mapping: Dict[str, str] = dict(zip(query.free_variables, free_variables))
        # avoid accidental capture of existential variables
        safe = query.with_fresh_variables("_rhs") if set(mapping.values()) & query.existential_variables() else query
        mapping = dict(zip(safe.free_variables, free_variables))
        return safe.rename(mapping)

    aligned_right = right.map(align) if free_variables else right

    extended_schema = _extended_schema(schema, free_variables)
    boolean_left = left.map(lambda q: _add_marker_atoms(q, free_variables))
    boolean_right = aligned_right.map(lambda q: _add_marker_atoms(q, free_variables))
    marker_nodes, marker_edges = _marker_labels(free_variables)
    return Booleanization(
        schema=extended_schema,
        left=UC2RPQ(boolean_left.disjuncts, name=f"{left.name}°"),
        right=UC2RPQ(boolean_right.disjuncts, name=f"{right.name}°"),
        marker_node_labels=marker_nodes,
        marker_edge_labels=marker_edges,
        free_variables=free_variables,
    )
