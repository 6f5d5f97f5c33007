"""The Horn-ALCIF chase over finite witness patterns.

Given a Horn-ALCIF TBox ``T`` and a finite *pattern* — a labeled graph whose
node labels are concept names, typically obtained by materialising witnessing
words of a C2RPQ — the chase decides whether the pattern can be extended
(homomorphically) to a possibly infinite model of ``T``.  The procedure is
the canonical-model construction for Horn description logics:

1. *saturation*: close node label sets under ``K ⊑ A``; propagate
   ``K ⊑ ∀R.K'`` along existing edges; detect violations of ``K ⊑ ⊥`` and
   ``K ⊑ ¬∃R.K'`` (these can never be repaired, because labels only grow and
   edges are never removed).  It runs on a worklist: every node is visited
   once, and again only after a ``∀`` role pushed labels onto it.  The
   Horn least fixpoint is unique, so the saturated pattern does not depend
   on the visiting order;
2. *functionality*: when ``K ⊑ ∃≤1R.K'`` applies and two pattern successors
   match, merge them (without the unique-name assumption, merging is the
   canonical repair);
3. *forced reuse*: when ``K ⊑ ∃R.K'`` applies, no pattern successor matches
   and a functionality constraint forbids creating a fresh successor because
   an existing one already occupies the functional slot, the requirement is
   absorbed by that successor (this is the propagation that makes the
   cycle-reversal argument of Example 5.5 go through);
4. *tree-extendability*: all remaining existential requirements are
   discharged by attaching fresh trees, checked coinductively by
   :class:`repro.chase.tree.TreeChecker`; labels that the trees force back
   onto pattern nodes are added and the saturation is re-run.

The chase is deterministic (Horn) and terminates because label sets only grow
within a finite lattice and merges only decrease the number of nodes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from ..dl.tbox import TBox
from ..exceptions import SolverError
from ..graph.graph import Graph, NodeId
from ..graph.labels import SignedLabel, forward, inverse
from .labelsets import TBoxIndex
from .tree import TreeChecker

__all__ = ["ChaseResult", "ChaseEngine", "WorkingPattern"]

_NO_NODES: FrozenSet[NodeId] = frozenset()


@dataclass
class ChaseResult:
    """Outcome of chasing one pattern."""

    consistent: bool
    reason: str
    pattern: Optional[Graph] = None
    assignment: Dict[str, NodeId] = field(default_factory=dict)
    merges: int = 0
    iterations: int = 0

    def __bool__(self) -> bool:
        return self.consistent


class WorkingPattern:
    """The chase's private copy of a pattern.

    ``labels`` maps each node, in the input graph's node order, to one
    frozenset of labels; growth replaces the set and never mutates it, so
    the :class:`TBoxIndex` memos keyed by it keep their cached hash.
    ``adjacency`` maps each node to its successors per signed role, so the
    ``R``-successors of a node are one dict lookup; an ``r``-edge from ``u``
    to ``v`` appears as ``v`` under ``r`` at ``u`` and as ``u`` under ``r⁻``
    at ``v``.  Each successor set is a frozenset built from a set filled in
    the order :meth:`Graph.copy` fills its own, so it iterates like
    ``Graph.successors`` on a copy of the input.
    """

    __slots__ = ("labels", "adjacency", "_edge_labels")

    def __init__(self, graph: Graph) -> None:
        self.labels: Dict[NodeId, FrozenSet[str]] = {
            node: graph.labels(node) for node in graph.nodes()
        }
        grouped: Dict[NodeId, Dict[SignedLabel, Set[NodeId]]] = {node: {} for node in self.labels}
        for source, label, target in graph.edges():
            grouped[source].setdefault(forward(label), set()).add(target)
            grouped[target].setdefault(inverse(label), set()).add(source)
        self.adjacency: Dict[NodeId, Dict[SignedLabel, FrozenSet[NodeId]]] = {
            node: {role: frozenset(nodes) for role, nodes in by_role.items()}
            for node, by_role in grouped.items()
        }
        # merges rewire edges but never drop one, so this set is fixed
        self._edge_labels = frozenset(
            role.label for by_role in self.adjacency.values() for role in by_role
        )

    def edge_labels(self) -> FrozenSet[str]:
        """The edge labels occurring in the pattern."""
        return self._edge_labels

    def add_labels(self, node: NodeId, labels: FrozenSet[str]) -> bool:
        """Give *node* the *labels* too; ``True`` when it had not all of them."""
        current = self.labels[node]
        if labels <= current:
            return False
        self.labels[node] = current | labels
        return True

    def merge(self, keep: NodeId, drop: NodeId) -> None:
        """Merge *drop* into *keep* exactly as :meth:`Graph.merge_nodes` does:
        labels and edges are unioned, an edge between the two or a self-loop
        on *drop* becomes a self-loop on *keep*, and *drop* is removed."""
        labels, adjacency = self.labels, self.adjacency
        labels[keep] = labels[keep] | labels.pop(drop)
        for role, neighbours in adjacency.pop(drop).items():
            back = role.inverse()
            for neighbour in neighbours:
                if neighbour == drop:
                    neighbour = keep
                else:
                    self._unlink(neighbour, back, drop)
                self._link(keep, role, neighbour)
                self._link(neighbour, back, keep)

    def _link(self, node: NodeId, role: SignedLabel, successor: NodeId) -> None:
        by_role = self.adjacency[node]
        by_role[role] = by_role.get(role, _NO_NODES) | {successor}

    def _unlink(self, node: NodeId, role: SignedLabel, successor: NodeId) -> None:
        by_role = self.adjacency[node]
        remaining = by_role[role] - {successor}
        if remaining:
            by_role[role] = remaining
        else:
            del by_role[role]

    def to_graph(self) -> Graph:
        """The pattern as a :class:`Graph`, nodes in this pattern's order."""
        graph = Graph()
        for node, labels in self.labels.items():
            graph.add_node(node, labels)
        for node, by_role in self.adjacency.items():
            for role, successors in by_role.items():
                if not role.is_inverse:
                    for successor in successors:
                        graph.add_edge(node, role.label, successor)
        return graph


class ChaseEngine:
    """Chases finite patterns modulo a fixed Horn-ALCIF TBox.

    *tbox* is a Horn TBox, whose memoised index (:meth:`TBoxIndex.of`) the
    engine uses, or a prepared :class:`TBoxIndex` of one (indexing a TBox
    raises :class:`SolverError` when it is not Horn).  Each engine has its
    own tree-extendability memo, so engines sharing one index never share
    tree outcomes.
    """

    def __init__(self, tbox: Union[TBox, TBoxIndex], max_rounds: int = 100_000) -> None:
        self.index = tbox if isinstance(tbox, TBoxIndex) else TBoxIndex.of(tbox)
        self.tree = TreeChecker(self.index)
        self.max_rounds = max_rounds

    # ------------------------------------------------------------------ #
    def check_pattern(
        self,
        pattern: Graph,
        assignment: Optional[Dict[str, NodeId]] = None,
    ) -> ChaseResult:
        """Chase *pattern* and report whether it extends to a model of the TBox.

        *assignment* optionally maps query variables to pattern nodes; the
        returned result carries the assignment transported through merges.
        The chase runs on a :class:`WorkingPattern` copy; a consistent
        result carries it as a :class:`Graph`.
        """
        working = WorkingPattern(pattern)
        variable_map: Dict[str, NodeId] = dict(assignment or {})
        merges = 0
        iterations = 0

        while True:
            iterations += 1
            if iterations > self.max_rounds:  # pragma: no cover - safety net
                raise SolverError("chase did not converge within the configured bound")

            verdict = self._saturate(working, variable_map)
            if verdict is not None:
                return ChaseResult(False, verdict, None, variable_map, merges, iterations)
            merge_happened, verdict = self._apply_functionality(working, variable_map)
            merges += merge_happened
            if verdict is not None:
                return ChaseResult(False, verdict, None, variable_map, merges, iterations)
            if merge_happened:
                continue
            absorbed, verdict = self._absorb_forced_requirements(working)
            if verdict is not None:
                return ChaseResult(False, verdict, None, variable_map, merges, iterations)
            if absorbed:
                continue
            grew, verdict = self._check_tree_requirements(working)
            if verdict is not None:
                return ChaseResult(False, verdict, None, variable_map, merges, iterations)
            if grew:
                continue
            return ChaseResult(
                True, "pattern extends to a model", working.to_graph(), variable_map,
                merges, iterations,
            )

    # ------------------------------------------------------------------ #
    # phase 1: saturation and unrepairable violations
    # ------------------------------------------------------------------ #
    def _saturate(self, pattern: WorkingPattern, variable_map: Dict[str, NodeId]) -> Optional[str]:
        index = self.index
        labels, adjacency = pattern.labels, pattern.adjacency
        forall_by_role = index.forall_by_role
        # saturation only adds node labels, so a role whose base label labels
        # no edge now has no successor anywhere for the whole pass
        no_exists_roles = _roles_on_edges(index.no_exists_by_role, pattern)
        # a node's closure and its ∀ pushes depend only on its own labels, so
        # a node needs another visit only after a ∀ role pushed labels onto it
        pending = deque(labels)
        queued = set(pending)
        while pending:
            node = pending.popleft()
            queued.discard(node)
            closed = labels[node] = index.close(labels[node])
            if index.violates_bottom(closed):
                return f"node {node!r} violates a ⊥-statement (labels {sorted(closed)})"
            # ∀-propagation along existing edges
            for role, successors in adjacency[node].items():
                if role not in forall_by_role:
                    continue
                forced = index.forall_targets(closed, role)
                if not forced:
                    continue
                for successor in successors:
                    if pattern.add_labels(successor, forced) and successor not in queued:
                        queued.add(successor)
                        pending.append(successor)
        # ¬∃ violations are final
        if no_exists_roles:
            for node, node_labels in labels.items():
                by_role = adjacency[node]
                for role in no_exists_roles:
                    for successor in by_role.get(role, _NO_NODES):
                        conflict = index.no_exists_conflicts(node_labels, role, labels[successor])
                        if conflict is not None:
                            return (
                                f"edge {node!r} -{role}-> {successor!r} violates {conflict}"
                            )
        return None

    # ------------------------------------------------------------------ #
    # phase 2: functionality merging
    # ------------------------------------------------------------------ #
    def _apply_functionality(
        self, pattern: WorkingPattern, variable_map: Dict[str, NodeId]
    ) -> Tuple[int, Optional[str]]:
        index = self.index
        labels, adjacency = pattern.labels, pattern.adjacency
        # merging never adds an edge label, so this filter holds for every restart
        at_most_roles = _roles_on_edges(index.at_most_by_role, pattern)
        merges = 0
        restart = bool(at_most_roles)
        while restart:
            restart = False
            for node in list(labels):
                by_role = adjacency[node]
                for role in at_most_roles:
                    successors = by_role.get(role)
                    # one successor or none: no statement can ask for a merge
                    if successors is None or len(successors) < 2:
                        continue
                    for statement in index.applicable_at_most(labels[node], role):
                        matching = [
                            successor
                            for successor in successors
                            if statement.head <= labels[successor]
                        ]
                        if len(matching) >= 2:
                            matching.sort(key=repr)
                            keep, rest = matching[0], matching[1:]
                            for drop in rest:
                                pattern.merge(keep, drop)
                                for variable, target in variable_map.items():
                                    if target == drop:
                                        variable_map[variable] = keep
                                merges += 1
                            restart = True
                            break
                    if restart:
                        break
                if restart:
                    break
        return merges, None

    # ------------------------------------------------------------------ #
    # phase 3: forced reuse of existing successors
    # ------------------------------------------------------------------ #
    def _absorb_forced_requirements(self, pattern: WorkingPattern) -> Tuple[bool, Optional[str]]:
        index = self.index
        labels, adjacency = pattern.labels, pattern.adjacency
        changed = False
        for node in list(labels):
            node_labels = labels[node]
            by_role = adjacency[node]
            for statement in index.required_successors(node_labels):
                role, head = statement.role, statement.head
                successors = by_role.get(role, _NO_NODES)
                if any(head <= labels[successor] for successor in successors):
                    continue  # witnessed inside the pattern
                child_seed = index.child_seed(node_labels, role, head)
                conflict = index.no_exists_conflicts(node_labels, role, child_seed)
                if conflict is not None:
                    return changed, (
                        f"requirement {statement} at node {node!r} cannot be witnessed: "
                        f"any witness would violate {conflict}"
                    )
                if not successors:
                    continue  # no successor can occupy a functional slot
                # functionality blocking: an existing successor occupies the slot
                for at_most in index.applicable_at_most(node_labels, role):
                    if not at_most.head <= child_seed:
                        continue
                    witnesses = [
                        successor
                        for successor in successors
                        if at_most.head <= labels[successor]
                    ]
                    if witnesses:
                        absorber = sorted(witnesses, key=repr)[0]
                        changed |= pattern.add_labels(absorber, head)
                        break
        return changed, None

    # ------------------------------------------------------------------ #
    # phase 4: tree-extendability of the remaining requirements
    # ------------------------------------------------------------------ #
    def _check_tree_requirements(self, pattern: WorkingPattern) -> Tuple[bool, Optional[str]]:
        index = self.index
        labels, adjacency = pattern.labels, pattern.adjacency
        for node in list(labels):
            node_labels = labels[node]
            by_role = adjacency[node]
            unwitnessed = [
                statement
                for statement in index.required_successors(node_labels)
                if not any(
                    statement.head <= labels[successor]
                    for successor in by_role.get(statement.role, _NO_NODES)
                )
            ]
            grew = False
            for role, seeds in self.tree.fresh_children(node_labels, unwitnessed):
                for seed in seeds:
                    outcome = self.tree.check(seed, role.inverse(), node_labels)
                    if not outcome.ok:
                        return grew, (
                            f"node {node!r} cannot satisfy ∃{role} requirements "
                            f"(labels {sorted(node_labels)}): no witnessing tree exists"
                        )
                    grew |= pattern.add_labels(node, outcome.parent_needs)
            if grew:
                return True, None
        return False, None

    # ------------------------------------------------------------------ #
    def label_set_is_satisfiable(self, labels) -> bool:
        """``True`` when a single node with the given labels extends to a model.

        This is the building block of CI entailment (Corollary E.7): the
        triple/label-set satisfiability tests reduce to chasing tiny patterns.
        """
        graph = Graph()
        graph.add_node("n0", labels)
        return self.check_pattern(graph).consistent


def _roles_on_edges(roles: Iterable[SignedLabel], pattern) -> List[SignedLabel]:
    """The *roles*, in order, whose base label labels some edge of *pattern*
    (a :class:`Graph` or a :class:`WorkingPattern`).

    Any other role has no successor at any node, so a loop over roles that
    only acts on successors can skip it without changing what it does.
    """
    present = pattern.edge_labels()
    return [role for role in roles if role.label in present]
