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
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..dl.tbox import TBox
from ..exceptions import SolverError
from ..graph.graph import Graph, NodeId
from ..graph.labels import SignedLabel
from .labelsets import TBoxIndex
from .tree import TreeChecker

__all__ = ["ChaseResult", "ChaseEngine"]


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
        """
        graph = pattern.copy()
        variable_map: Dict[str, NodeId] = dict(assignment or {})
        merges = 0
        iterations = 0

        while True:
            iterations += 1
            if iterations > self.max_rounds:  # pragma: no cover - safety net
                raise SolverError("chase did not converge within the configured bound")

            verdict = self._saturate(graph, variable_map)
            if verdict is not None:
                return ChaseResult(False, verdict, None, variable_map, merges, iterations)
            merge_happened, verdict = self._apply_functionality(graph, variable_map)
            merges += merge_happened
            if verdict is not None:
                return ChaseResult(False, verdict, None, variable_map, merges, iterations)
            if merge_happened:
                continue
            absorbed, verdict = self._absorb_forced_requirements(graph)
            if verdict is not None:
                return ChaseResult(False, verdict, None, variable_map, merges, iterations)
            if absorbed:
                continue
            grew, verdict = self._check_tree_requirements(graph)
            if verdict is not None:
                return ChaseResult(False, verdict, None, variable_map, merges, iterations)
            if grew:
                continue
            return ChaseResult(True, "pattern extends to a model", graph, variable_map, merges, iterations)

    # ------------------------------------------------------------------ #
    # phase 1: saturation and unrepairable violations
    # ------------------------------------------------------------------ #
    def _saturate(self, graph: Graph, variable_map: Dict[str, NodeId]) -> Optional[str]:
        index = self.index
        # saturation only adds node labels, so a role whose base label labels
        # no edge now has no successor anywhere for the whole pass
        forall_roles = _roles_on_edges(index.forall_by_role, graph)
        no_exists_roles = _roles_on_edges(index.no_exists_by_role, graph)
        # a node's closure and its ∀ pushes depend only on its own labels, so
        # a node needs another visit only after a ∀ role pushed labels onto it
        pending = deque(graph.nodes())
        queued = set(pending)
        while pending:
            node = pending.popleft()
            queued.discard(node)
            labels = graph.labels(node)
            closed = index.close(labels)
            for label in closed - labels:
                graph.add_label(node, label)
            if index.violates_bottom(closed):
                return f"node {node!r} violates a ⊥-statement (labels {sorted(closed)})"
            # ∀-propagation along existing edges
            for role in forall_roles:
                successors = graph.successors(node, role)
                if not successors:
                    continue
                forced = index.forall_targets(closed, role)
                if not forced:
                    continue
                for successor in successors:
                    missing = forced - graph.labels(successor)
                    if missing:
                        for label in missing:
                            graph.add_label(successor, label)
                        if successor not in queued:
                            queued.add(successor)
                            pending.append(successor)
        # ¬∃ violations are final
        for node in graph.nodes():
            labels = graph.labels(node)
            for role in no_exists_roles:
                for successor in graph.successors(node, role):
                    conflict = index.no_exists_conflicts(labels, role, graph.labels(successor))
                    if conflict is not None:
                        return (
                            f"edge {node!r} -{role}-> {successor!r} violates {conflict}"
                        )
        return None

    # ------------------------------------------------------------------ #
    # phase 2: functionality merging
    # ------------------------------------------------------------------ #
    def _apply_functionality(
        self, graph: Graph, variable_map: Dict[str, NodeId]
    ) -> Tuple[int, Optional[str]]:
        index = self.index
        # merging never adds an edge label, so this filter holds for every restart
        at_most_roles = _roles_on_edges(index.at_most_by_role, graph)
        merges = 0
        restart = True
        while restart:
            restart = False
            for node in list(graph.nodes()):
                labels = graph.labels(node)
                for role in at_most_roles:
                    for statement in index.applicable_at_most(labels, role):
                        matching = [
                            successor
                            for successor in graph.successors(node, role)
                            if statement.head <= graph.labels(successor)
                        ]
                        if len(matching) >= 2:
                            matching.sort(key=repr)
                            keep, rest = matching[0], matching[1:]
                            for drop in rest:
                                if keep == drop:
                                    continue
                                graph.merge_nodes(keep, drop)
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
    def _absorb_forced_requirements(self, graph: Graph) -> Tuple[bool, Optional[str]]:
        index = self.index
        changed = False
        for node in list(graph.nodes()):
            labels = graph.labels(node)
            for statement in index.required_successors(labels):
                role, head = statement.role, statement.head
                successors = graph.successors(node, role)
                if any(head <= graph.labels(successor) for successor in successors):
                    continue  # witnessed inside the pattern
                child_seed = index.child_seed(labels, role, head)
                conflict = index.no_exists_conflicts(labels, role, child_seed)
                if conflict is not None:
                    return changed, (
                        f"requirement {statement} at node {node!r} cannot be witnessed: "
                        f"any witness would violate {conflict}"
                    )
                # functionality blocking: an existing successor occupies the slot
                for at_most in index.applicable_at_most(labels, role):
                    if not at_most.head <= child_seed:
                        continue
                    witnesses = [
                        successor
                        for successor in successors
                        if at_most.head <= graph.labels(successor)
                    ]
                    if witnesses:
                        absorber = sorted(witnesses, key=repr)[0]
                        missing = head - graph.labels(absorber)
                        if missing:
                            for label in missing:
                                graph.add_label(absorber, label)
                            changed = True
                        break
        return changed, None

    # ------------------------------------------------------------------ #
    # phase 4: tree-extendability of the remaining requirements
    # ------------------------------------------------------------------ #
    def _check_tree_requirements(self, graph: Graph) -> Tuple[bool, Optional[str]]:
        index = self.index
        grew = False
        for node in list(graph.nodes()):
            labels = graph.labels(node)
            unwitnessed = [
                statement
                for statement in index.required_successors(labels)
                if not any(
                    statement.head <= graph.labels(successor)
                    for successor in graph.successors(node, statement.role)
                )
            ]
            for role, seeds in self.tree.fresh_children(labels, unwitnessed):
                for seed in seeds:
                    outcome = self.tree.check(seed, role.inverse(), labels)
                    if not outcome.ok:
                        return grew, (
                            f"node {node!r} cannot satisfy ∃{role} requirements "
                            f"(labels {sorted(labels)}): no witnessing tree exists"
                        )
                    missing = outcome.parent_needs - graph.labels(node)
                    if missing:
                        for label in missing:
                            graph.add_label(node, label)
                        grew = True
            if grew:
                return True, None
        return grew, None

    # ------------------------------------------------------------------ #
    def label_set_is_satisfiable(self, labels) -> bool:
        """``True`` when a single node with the given labels extends to a model.

        This is the building block of CI entailment (Corollary E.7): the
        triple/label-set satisfiability tests reduce to chasing tiny patterns.
        """
        graph = Graph()
        graph.add_node("n0", labels)
        return self.check_pattern(graph).consistent


def _roles_on_edges(roles: Iterable[SignedLabel], graph: Graph) -> List[SignedLabel]:
    """The *roles*, in order, whose base label labels some edge of *graph*.

    Any other role has no successor at any node, so a loop over roles that
    only acts on successors can skip it without changing what it does.
    """
    present = graph.edge_labels()
    return [role for role in roles if role.label in present]
