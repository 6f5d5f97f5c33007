"""The EXPTIME-hardness reduction (Theorem F.1 and Lemma F.2, Appendix F).

Given an ATM ``M`` with a polynomial space bound and an input word ``w``, the
reduction produces a schema ``S`` and two Boolean 2RPQs — a *positive* query
``p`` and a *negative* query ``q`` — of polynomial size such that

    M accepts w   iff   p ⊄_S q,

the counterexample graphs being exactly the (tree-shaped) accepting runs of
``M`` on ``w``.  The construction uses three devices described in Appendix F:
nested queries ``p[q] = p·q·q⁻``, disjunction encoded with the schema plus the
positive/negative query pair, and the tree-enforcing traversal pattern of
Figure 6 (generalised in the conceptual automaton of Figure 8).

This module builds the schema and both queries faithfully; it also exposes the
devices (:func:`nest`, :func:`tree_device_schema`, …) separately because they
are reusable and independently testable.  Lemma F.2's reductions from 2RPQ
containment to type checking, equivalence and schema elicitation are provided
as :func:`containment_to_typechecking` etc.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..rpq.queries import Atom, C2RPQ
from ..rpq.regex import Regex, concat, edge, node, star, union
from ..schema.schema import Schema
from ..transform.constructors import NodeConstructor
from ..transform.rules import EdgeRule, NodeRule
from ..transform.transformation import Transformation
from .atm import ATM, BLANK

__all__ = [
    "nest",
    "HardnessInstance",
    "build_instance",
    "tree_device_schema",
    "tree_device_queries",
    "containment_to_typechecking",
    "containment_to_equivalence",
]


def nest(outer: Regex, inner: Regex) -> Regex:
    """The nesting device ``p[q] := p · q · q⁻`` (Appendix F)."""
    return concat(outer, inner, inner.reverse())


# --------------------------------------------------------------------------- #
# Figure 6: the tree-enforcing device (standalone, used in tests/benchmarks)
# --------------------------------------------------------------------------- #
def tree_device_schema() -> Schema:
    """The schema of Figure 6: inner nodes with two child edges, leaves."""
    schema = Schema(["Node", "Leaf"], ["a1", "a2"], name="TreeDevice")
    for child_edge in ("a1", "a2"):
        schema.set_edge("Node", child_edge, "Node", "?", "?")
        schema.set_edge("Node", child_edge, "Leaf", "?", "?")
    return schema


def tree_device_queries() -> Tuple[C2RPQ, C2RPQ]:
    """The positive traversal query and the negative query of Figure 6."""
    a1, a2 = edge("a1"), edge("a2")
    a1_inv, a2_inv = edge("a1-"), edge("a2-")
    node_label, leaf = node("Node"), node("Leaf")
    positive_regex = concat(
        star(
            concat(
                star(concat(nest(node_label, a1), nest(node_label, a2), a1)),
                leaf,
                star(a2_inv),
                a1_inv,
                a2,
            )
        ),
        star(concat(nest(node_label, a1), nest(node_label, a2), a1)),
        leaf,
        star(a2_inv),
    )
    positive = C2RPQ([Atom(positive_regex, "x", "x")], [], name="p_tree")
    negative_regex = union(
        nest(nest(node_label, concat(a1, node_label)), concat(a1, leaf)),
        nest(nest(node_label, concat(a2, node_label)), concat(a2, leaf)),
        nest(nest(concat(), a1_inv), a2_inv),
    )
    negative = C2RPQ([Atom(negative_regex, "y", "z")], [], name="q_tree")
    return positive, negative


# --------------------------------------------------------------------------- #
# the main reduction
# --------------------------------------------------------------------------- #
@dataclass
class HardnessInstance:
    """The output of the Theorem F.1 reduction."""

    schema: Schema
    positive: C2RPQ
    negative: C2RPQ
    atm: ATM
    word: str
    space: int

    def sizes(self) -> Dict[str, int]:
        """Size statistics (the reduction must stay polynomial)."""
        return {
            "schema_node_labels": len(self.schema.node_labels),
            "schema_edge_labels": len(self.schema.edge_labels),
            "positive_size": self.positive.size(),
            "negative_size": self.negative.size(),
        }


def _position_edges(space: int) -> List[str]:
    return [f"pos{i}" for i in range(1, space + 1)]


def build_instance(atm: ATM, word: str, space: Optional[int] = None) -> HardnessInstance:
    """Build the schema and the positive/negative queries of Theorem F.1."""
    space = space if space is not None else max(1, len(word))
    positions = list(range(1, space + 1))
    pos_edges = _position_edges(space)
    sym_edges = {symbol: f"sym_{symbol}" for symbol in atm.work_alphabet}
    state_edges = {state: f"st_{state}" for state in atm.states}
    transition_edges = ["all1", "all2", "any1", "any2"]

    # ----------------------------------------------------------------- #
    # the schema of Figure 7
    # ----------------------------------------------------------------- #
    schema = Schema(
        ["Config", "Pos", "Symb", "St"],
        pos_edges + list(sym_edges.values()) + list(state_edges.values()) + transition_edges,
        name=f"S_{atm.name}_{word or 'ε'}",
    )
    for transition_edge in transition_edges:
        schema.set_edge("Config", transition_edge, "Config", "?", "?")
    for pos_edge in pos_edges:
        schema.set_edge("Config", pos_edge, "Pos", "?", "?")
    for sym_edge in sym_edges.values():
        schema.set_edge("Pos", sym_edge, "Symb", "?", "?")
    for state_edge in state_edges.values():
        schema.set_edge("Pos", state_edge, "St", "?", "?")

    config = node("Config")

    # ----------------------------------------------------------------- #
    # the macros of Appendix F
    # ----------------------------------------------------------------- #
    def symbol_at(position: int, symbol: str) -> Regex:
        return nest(config, concat(edge(pos_edges[position - 1]), edge(sym_edges[symbol])))

    def state_at(position: int, state: str) -> Regex:
        return nest(config, concat(edge(pos_edges[position - 1]), edge(state_edges[state])))

    def state_somewhere(state: str) -> Regex:
        return nest(
            config,
            union(*(concat(edge(pos_edges[i - 1]), edge(state_edges[state])) for i in positions)),
        )

    def head_at(position: int) -> Regex:
        return nest(
            config,
            union(*(concat(edge(pos_edges[position - 1]), edge(state_edges[s])) for s in atm.states)),
        )

    forward_edges = union(*(edge(e) for e in transition_edges))
    backward_edges = union(*(edge(f"{e}-") for e in transition_edges))

    # ----------------------------------------------------------------- #
    # the negative query: structural violations of a run
    # ----------------------------------------------------------------- #
    negative_parts: List[Regex] = []
    # two different symbols at the same position
    for position in positions:
        for left_symbol in atm.work_alphabet:
            for right_symbol in atm.work_alphabet:
                if left_symbol < right_symbol:
                    negative_parts.append(
                        concat(symbol_at(position, left_symbol), symbol_at(position, right_symbol))
                    )
    # two heads (different positions or different states)
    state_list = list(atm.states)
    for position in positions:
        for other in positions:
            for left_state in state_list:
                for right_state in state_list:
                    if (position, left_state) < (other, right_state):
                        negative_parts.append(
                            concat(state_at(position, left_state), state_at(other, right_state))
                        )
    # transition edges that do not match the state kind (the state frozensets
    # are iterated sorted: union branch order decides automaton state numbering
    # and hence result fingerprints, which must not depend on the hash seed)
    for state in sorted(atm.universal_states):
        negative_parts.append(nest(state_somewhere(state), union(edge("any1"), edge("any2"))))
    for state in sorted(atm.existential_states):
        negative_parts.append(nest(state_somewhere(state), union(edge("all1"), edge("all2"))))
    for final in (atm.accept_state, atm.reject_state):
        negative_parts.append(nest(state_somewhere(final), forward_edges))
    # existential configurations with both existential edges
    for state in sorted(atm.existential_states):
        negative_parts.append(nest(nest(state_somewhere(state), edge("any1")), edge("any2")))
    # the initial configuration must be the root of the run
    negative_parts.append(nest(state_somewhere(atm.initial_state), backward_edges))
    # no configuration has two incoming transition edges
    for left_index, left_edge in enumerate(transition_edges):
        for right_edge in transition_edges[left_index + 1:]:
            negative_parts.append(
                nest(nest(config, edge(f"{left_edge}-")), edge(f"{right_edge}-"))
            )
    # no tape position, symbol or state node shared by two configurations
    shared_checks = (
        [("Pos", f"{e}-") for e in pos_edges]
        + [("Symb", f"{e}-") for e in sym_edges.values()]
        + [("St", f"{e}-") for e in state_edges.values()]
    )
    for label, inverse_edge in shared_checks:
        for other_label, other_edge in shared_checks:
            if label == other_label and inverse_edge < other_edge:
                negative_parts.append(
                    nest(nest(node(label), edge(inverse_edge)), edge(other_edge))
                )
    negative_regex = union(*negative_parts)
    negative = C2RPQ([Atom(negative_regex, "u", "v")], [], name=f"q_{atm.name}")

    # ----------------------------------------------------------------- #
    # the positive query: local correctness of every configuration
    # ----------------------------------------------------------------- #
    p_head = nest(config, union(*(head_at(i) for i in positions)))
    p_tape = concat(
        *(
            nest(config, union(*(symbol_at(i, symbol) for symbol in atm.work_alphabet)))
            for i in positions
        )
    )
    transition_parts: List[Regex] = []
    for state in sorted(atm.universal_states):
        transition_parts.append(
            nest(nest(state_somewhere(state), edge("all1")), edge("all2"))
        )
    for state in sorted(atm.existential_states):
        transition_parts.append(
            nest(state_somewhere(state), union(edge("any1"), edge("any2")))
        )
    transition_parts.append(state_somewhere(atm.accept_state))
    transition_parts.append(state_somewhere(atm.reject_state))
    p_transition = nest(config, union(*transition_parts))

    def move(position: int, state: str, symbol: str) -> Regex:
        """The Move_{i,q,a} macro: the children configurations implement δ."""
        if atm.is_final(state):
            return concat(state_somewhere(state), symbol_at(position, symbol))
        branches = []
        tables = (
            (("any1", atm.delta1), ("any2", atm.delta2))
            if state in atm.existential_states
            else (("all1", atm.delta1), ("all2", atm.delta2))
        )
        for edge_name, table in tables:
            transition = table.get((state, symbol))
            if transition is None:
                continue
            next_state, written, direction = transition
            next_position = position + direction
            if not 1 <= next_position <= space:
                continue
            branches.append(
                concat(
                    state_at(position, state),
                    symbol_at(position, symbol),
                    edge(edge_name),
                    state_at(next_position, next_state),
                    symbol_at(position, written),
                )
            )
        if not branches:
            return concat(state_at(position, state), symbol_at(position, symbol))
        if state in atm.existential_states:
            return union(*branches)
        return concat(*branches)

    p_execution = nest(
        config,
        union(
            *(
                move(i, state, symbol)
                for i in positions
                for state in atm.states
                for symbol in atm.work_alphabet
            )
        ),
    )

    def init_tape() -> Regex:
        cells = []
        padded = list(word) + [BLANK] * (space - len(word))
        for index, symbol in enumerate(padded, start=1):
            cells.append(symbol_at(index, symbol))
        return concat(*cells) if cells else concat()

    pos_copy = {
        i: nest(
            config,
            union(
                *(
                    concat(
                        symbol_at(i, symbol),
                        backward_edges,
                        symbol_at(i, symbol),
                    )
                    for symbol in atm.work_alphabet
                )
            ),
        )
        for i in positions
    }

    def tape_copy() -> Regex:
        branches = []
        for i in positions:
            others = [pos_copy[j] for j in positions if j != i]
            branches.append(
                concat(nest(config, concat(backward_edges, head_at(i))), *others)
            )
        return union(*branches) if branches else concat()

    p_tape_copy = nest(config, union(concat(state_at(1, atm.initial_state), init_tape()), tape_copy()))

    p_config = concat(p_head, p_tape, p_transition, p_execution, p_tape_copy)
    p_accept = concat(p_config, state_somewhere(atm.accept_state))
    p_start = concat(p_config, state_somewhere(atm.initial_state))

    down = union(edge("all1"), edge("any1"), edge("any2"))
    up = union(edge("all2-"), edge("any1-"), edge("any2-"))
    positive_regex = concat(
        p_start,
        star(
            concat(
                star(concat(p_config, down)),
                p_accept,
                star(up),
                edge("all1-"),
                edge("all2"),
            )
        ),
        star(concat(p_config, down)),
        p_accept,
        star(up),
        p_start,
    )
    positive = C2RPQ([Atom(positive_regex, "u", "v")], [], name=f"p_{atm.name}")

    return HardnessInstance(schema, positive, negative, atm, word, space)


# --------------------------------------------------------------------------- #
# Lemma F.2: containment reduces to the static-analysis problems
# --------------------------------------------------------------------------- #
def _as_unary(query: C2RPQ, canonical: str = "x") -> C2RPQ:
    """Rename a unary query so its single free variable is *canonical*."""
    if query.arity() != 1:
        raise ValueError(f"Lemma F.2 reductions expect unary queries, got arity {query.arity()}")
    (free,) = query.free_variables
    safe = query.with_fresh_variables("_lf2") if canonical in query.existential_variables() else query
    (free,) = safe.free_variables
    return safe.rename({free: canonical})


def containment_to_typechecking(
    schema: Schema, left: C2RPQ, right: C2RPQ
) -> Tuple[Transformation, Schema, Schema]:
    """Reduce ``p(x) ⊆_S q(x)`` to a type-checking instance (Lemma F.2).

    The transformation labels ``f_A(x)`` for witnesses of either query and
    adds an ``a``-self-loop exactly for witnesses of ``q``; the target schema
    requires every ``A``-node to have exactly one outgoing ``a``-edge, so type
    checking succeeds iff every ``p``-witness is a ``q``-witness.
    """
    constructor = NodeConstructor("fA", 1, "A")
    left_unary, right_unary = _as_unary(left), _as_unary(right)
    transformation = Transformation(name="T_containment")
    transformation.add(NodeRule("A", constructor, ("x",), left_unary))
    transformation.add(NodeRule("A", constructor, ("x",), right_unary))
    # a(f_A(x), f_A(x)) ← q(x), written with an ε-atom so the head tuples stay
    # disjoint as the paper requires
    copy_variable = "x__selfloop"
    loop_body = C2RPQ(
        list(right_unary.atoms) + [Atom(concat(), "x", copy_variable)],
        ["x", copy_variable],
        name="loop_body",
    )
    transformation.add(
        EdgeRule("a", constructor, ("x",), NodeConstructor("fA", 1, "A"), (copy_variable,), loop_body)
    )
    target = Schema(["A"], ["a"], name="S_target")
    target.set_edge("A", "a", "A", "1", "*")
    return transformation, schema, target


def containment_to_equivalence(
    schema: Schema, left: C2RPQ, right: C2RPQ
) -> Tuple[Transformation, Transformation, Schema]:
    """Reduce ``p(x) ⊆_S q(x)`` to transformation equivalence (Lemma F.2)."""
    constructor = NodeConstructor("fA", 1, "A")
    left_unary, right_unary = _as_unary(left), _as_unary(right)
    first = Transformation(name="T1_containment")
    first.add(NodeRule("A", constructor, ("x",), right_unary))
    second = Transformation(name="T2_containment")
    second.add(NodeRule("A", constructor, ("x",), right_unary))
    second.add(NodeRule("A", constructor, ("x",), left_unary))
    return first, second, schema
