"""Graph transformations and their application semantics (Section 4).

A transformation is a finite set of node rules and edge rules.  Applying a
transformation ``T`` to a graph ``G`` yields the graph ``T(G)`` whose

* ``A``-nodes are the terms ``f_A(t̄)`` for every node rule
  ``A(f_A(x̄)) ← q(x̄)`` and every answer ``t̄ ∈ [q(x̄)]_G``;
* ``r``-edges are the pairs ``(f(t̄), f'(t̄'))`` for every edge rule
  ``r(f(x̄), f'(ȳ)) ← q(x̄, ȳ)`` and every answer ``(t̄, t̄') ∈ [q]_G``.

Note that edge rules may create nodes that no node rule labels; such nodes
are unlabeled in ``T(G)`` (they make type checking fail and schema
elicitation report an error, exactly as discussed in the paper).

The analyses ask a transformation for its edge rules between two
constructors thousands of times per run, so it indexes its edge rules by
(edge label, source constructor, target constructor) on first use, derives
from that index the cells ``(A, R, B)`` some edge rule produces, and
memoises its node labels Γ_T.  It also holds the memo of its grouped queries
``Q_A`` and ``Q_{A,R,B}``, which :mod:`repro.transform.grouping` fills, so
every analysis of the same transformation object builds each query once.
:meth:`Transformation.add` drops all four.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..exceptions import TransformationError
from ..graph.graph import Graph
from ..graph.labels import SignedLabel, forward, inverse
from ..rpq.evaluation import eval_c2rpq
from ..rpq.queries import UC2RPQ
from .constructors import ConstructorRegistry, NodeConstructor
from .rules import EdgeRule, NodeRule

__all__ = ["Transformation"]

Rule = Union[NodeRule, EdgeRule]

# (edge label, source constructor name, target constructor name)
EdgeKey = Tuple[str, str, str]

# (A, R, B): a cell of Γ_T × Σ±_T × Γ_T
Cell = Tuple[str, SignedLabel, str]

# a node label A for Q_A, or a cell (A, R, B) for Q_{A,R,B}
GroupKey = Union[str, Cell]


class Transformation:
    """A finite set of node and edge rules."""

    def __init__(self, rules: Iterable[Rule] = (), name: str = "T") -> None:
        self.name = name
        self.node_rules: List[NodeRule] = []
        self.edge_rules: List[EdgeRule] = []
        self.registry = ConstructorRegistry()
        # built on first use, dropped by add()
        self._edge_index: Optional[Dict[EdgeKey, List[Tuple[int, EdgeRule]]]] = None
        self._producible_cells: Optional[FrozenSet[Cell]] = None
        self._node_labels: Optional[FrozenSet[str]] = None
        #: Q_A and Q_{A,R,B} by GroupKey, filled by repro.transform.grouping
        self.grouped_queries: Dict[GroupKey, UC2RPQ] = {}
        for rule in rules:
            self.add(rule)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add(self, rule: Rule) -> None:
        """Add a rule, enforcing the constructor discipline of the paper."""
        self._edge_index = None
        self._producible_cells = None
        self._node_labels = None
        self.grouped_queries = {}
        if isinstance(rule, NodeRule):
            registered = self.registry.register(
                NodeConstructor(rule.constructor.name, rule.constructor.arity, rule.label)
            )
            self.node_rules.append(
                NodeRule(rule.label, registered, rule.variables, rule.body)
            )
        elif isinstance(rule, EdgeRule):
            self.registry.register(rule.source_constructor)
            self.registry.register(rule.target_constructor)
            self.edge_rules.append(rule)
        else:
            raise TransformationError(f"not a rule: {rule!r}")

    def rules(self) -> List[Rule]:
        """All rules (node rules first)."""
        return list(self.node_rules) + list(self.edge_rules)

    # ------------------------------------------------------------------ #
    # the signature of the transformation
    # ------------------------------------------------------------------ #
    def node_labels(self) -> FrozenSet[str]:
        """Γ_T — node labels used in rule heads."""
        if self._node_labels is None:
            self._node_labels = frozenset(rule.label for rule in self.node_rules)
        return self._node_labels

    def edge_labels(self) -> FrozenSet[str]:
        """Σ_T — edge labels used in rule heads."""
        return frozenset(rule.edge_label for rule in self.edge_rules)

    def _edge_rule_index(self) -> Dict[EdgeKey, List[Tuple[int, EdgeRule]]]:
        index = self._edge_index
        if index is None:
            index = {}
            for position, rule in enumerate(self.edge_rules):
                key = (rule.edge_label, rule.source_constructor.name, rule.target_constructor.name)
                index.setdefault(key, []).append((position, rule))
            self._edge_index = index
        return index

    def edge_rules_between(
        self, edge_label: str, source_constructor: str, target_constructor: str
    ) -> Sequence[Tuple[int, EdgeRule]]:
        """The edge rules ``r(f(x̄), f'(ȳ)) ← q`` with ``r`` = *edge_label* and
        ``f``, ``f'`` named *source_constructor*, *target_constructor*, as
        ``(position in edge_rules, rule)`` pairs in rule order."""
        return self._edge_rule_index().get((edge_label, source_constructor, target_constructor), ())

    def producible_cells(self) -> FrozenSet[Cell]:
        """The cells ``(A, R, B)`` whose ``Q_{A,R,B}`` has a disjunct.

        A cell is producible when some edge rule links the dedicated
        constructors ``f_A`` and ``f_B``: a rule ``r(f_A(x̄), f_B(ȳ)) ← q``
        produces ``(A, r, B)`` and, read backwards, ``(B, r⁻, A)``.  A rule
        whose constructor is dedicated to no label produces no cell.
        """
        if self._producible_cells is None:
            cells = set()
            for edge_label, source_name, target_name in self._edge_rule_index():
                source = self.label_of_constructor(source_name)
                target = self.label_of_constructor(target_name)
                if source is not None and target is not None:
                    cells.add((source, forward(edge_label), target))
                    cells.add((target, inverse(edge_label), source))
            self._producible_cells = frozenset(cells)
        return self._producible_cells

    def constructor_for_label(self, label: str) -> Optional[NodeConstructor]:
        """The dedicated constructor f_A of a node label, if any rule defines it."""
        return self.registry.for_label(label)

    def label_of_constructor(self, name: str) -> Optional[str]:
        """The node label associated with a constructor name, if any."""
        constructor = self.registry.by_name(name)
        return constructor.label if constructor else None

    def input_node_labels(self) -> FrozenSet[str]:
        """Node labels mentioned in rule bodies (over the *input* signature)."""
        labels: Set[str] = set()
        for rule in self.rules():
            labels |= rule.body.node_labels()
        return frozenset(labels)

    def input_edge_labels(self) -> FrozenSet[str]:
        """Edge labels mentioned in rule bodies (over the *input* signature)."""
        labels: Set[str] = set()
        for rule in self.rules():
            labels |= rule.body.edge_labels()
        return frozenset(labels)

    def size(self) -> int:
        """Total size of the rule bodies (complexity parameter |T|)."""
        return sum(rule.body.size() for rule in self.rules())

    def is_empty(self) -> bool:
        """``True`` when the transformation has no rule."""
        return not self.node_rules and not self.edge_rules

    # ------------------------------------------------------------------ #
    # application semantics
    # ------------------------------------------------------------------ #
    def apply(self, graph: Graph) -> Graph:
        """Compute ``T(G)``."""
        output = Graph()
        for rule in self.node_rules:
            query = rule.projected_body()
            for answer in eval_c2rpq(query, graph):
                node = rule.constructor(*answer)
                output.add_node(node, [rule.label])
        for rule in self.edge_rules:
            query = rule.projected_body()
            split = len(rule.source_variables)
            for answer in eval_c2rpq(query, graph):
                source = rule.source_constructor(*answer[:split])
                target = rule.target_constructor(*answer[split:])
                output.add_node(source)
                output.add_node(target)
                output.add_edge(source, rule.edge_label, target)
        return output

    def __call__(self, graph: Graph) -> Graph:
        return self.apply(graph)

    # ------------------------------------------------------------------ #
    def restricted_to(self, rules: Sequence[Rule], name: Optional[str] = None) -> "Transformation":
        """A new transformation containing only the given rules."""
        return Transformation(rules, name=name or self.name)

    def describe(self) -> str:
        """Human-readable listing of the rules."""
        lines = [f"transformation {self.name} ({len(self.node_rules)} node rules, "
                 f"{len(self.edge_rules)} edge rules)"]
        lines.extend(f"  {rule}" for rule in self.rules())
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Transformation({self.name!r}, node_rules={len(self.node_rules)}, "
            f"edge_rules={len(self.edge_rules)})"
        )
