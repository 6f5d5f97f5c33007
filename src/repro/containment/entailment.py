"""Unrestricted entailment of concept inclusions modulo Horn-ALCIF TBoxes.

Corollary E.7 of the paper reduces entailment of the two kinds of concept
inclusions needed by the cycle-reversing procedure to unsatisfiability of
tiny patterns modulo the TBox extended by fresh marker names.  Horn-ALCIF has
universal models, so the chase of the unmarked pattern already shows what
the markers would detect, and both queries run on the TBox itself:

* ``T ⊨ K ⊑ ∃R.K'`` holds iff chasing a lone ``K``-node is inconsistent, or
  some ``R``-child of that node ends with labels ``⊇ K'``.  The children are
  the node's fresh children (:meth:`repro.chase.TreeChecker.fresh_children`)
  and their labels are the ones their tree check reaches, so one chase
  answers the query for every ``R`` and every ``K'``;
* ``T ⊨ K ⊑ ∃≤1R.K'`` holds iff chasing a ``K``-node with two
  ``R``-successors satisfying ``K'`` is inconsistent or merges the two.
  When the TBox states some ``A ⊑ ∃≤1R.B`` with ``A ⊆ K`` and ``B ⊆ K'``,
  the inclusion follows from it directly and no chase is run.

The chase decides both patterns exactly, so entailment checking is exact.
Every function takes a TBox or a prepared :class:`repro.chase.TBoxIndex` of
one.  :class:`EntailmentChecker` asks many queries of one TBox on one chase
engine, chases each ``∃`` body once and chases only the ``≤1`` queries that
no ``≤1`` statement implies; the completion builds one per round.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

from ..dl.concepts import ConceptNames
from ..dl.tbox import TBox
from ..graph.graph import Graph
from ..graph.labels import SignedLabel
from ..chase.engine import ChaseEngine
from ..chase.labelsets import TBoxIndex

__all__ = [
    "EntailmentChecker",
    "entails_exists",
    "entails_at_most",
    "label_set_satisfiable",
    "triple_satisfiable",
]

TBoxLike = Union[TBox, TBoxIndex]


def label_set_satisfiable(tbox: TBoxLike, labels: Iterable[str]) -> bool:
    """``True`` when some (possibly infinite) model of *tbox* has a node whose
    label set includes *labels*."""
    engine = ChaseEngine(tbox)
    return engine.label_set_is_satisfiable(frozenset(labels))


def _edge(pattern: Graph, source: str, role: SignedLabel, target: str) -> None:
    """Add an edge making *target* a *role*-successor of *source*."""
    if role.is_inverse:
        pattern.add_edge(target, role.label, source)
    else:
        pattern.add_edge(source, role.label, target)


def triple_satisfiable(
    tbox: TBoxLike, body: Iterable[str], role: SignedLabel, head: Iterable[str]
) -> bool:
    """Satisfiability of the triple ``(K, R, K')`` (Section 5): some model has
    an ``R``-edge from a ``K``-node to a ``K'``-node."""
    pattern = Graph()
    pattern.add_node("u", body)
    pattern.add_node("v", head)
    _edge(pattern, "u", role, "v")
    engine = ChaseEngine(tbox)
    return engine.check_pattern(pattern).consistent


class EntailmentChecker:
    """Answers ``∃`` and ``≤1`` entailment queries of one TBox on one chase
    engine.

    The chase of each lone ``∃`` body is memoised, so all ``∃`` queries
    about one body cost one chase, and a ``≤1`` query that a ``≤1``
    statement implies costs none; ``chases`` counts the chases run.  The
    queries may share the engine's tree memo because a tree outcome does not
    depend on which contexts were checked before it (:mod:`repro.chase.tree`).
    """

    def __init__(self, tbox: TBoxLike) -> None:
        self.engine = ChaseEngine(tbox)
        self.chases = 0
        self._children: Dict[ConceptNames, Optional[Dict[SignedLabel, List[ConceptNames]]]] = {}

    def entails_exists(self, body: Iterable[str], role: SignedLabel, head: Iterable[str]) -> bool:
        """``T ⊨ K ⊑ ∃R.K'``: the lone ``K``-node is unsatisfiable or has an
        ``R``-child whose labels include ``K'``."""
        body = frozenset(body)
        if body not in self._children:
            self._children[body] = self._chase_children(body)
        children = self._children[body]
        head = frozenset(head)
        return children is None or any(head <= labels for labels in children.get(role, ()))

    def _chase_children(self, body: ConceptNames) -> Optional[Dict[SignedLabel, List[ConceptNames]]]:
        """The final labels of a lone *body*-node's fresh children, per role,
        or ``None`` when no model has a *body*-node."""
        self.chases += 1
        pattern = Graph()
        pattern.add_node("u", body)
        chased = self.engine.check_pattern(pattern)
        if not chased.consistent:
            return None
        labels = chased.pattern.labels("u")
        tree = self.engine.tree
        requirements = self.engine.index.required_successors(labels)
        # the chase's last phase 4 checked these contexts: memo hits
        return {
            role: [tree.check(seed, role.inverse(), labels).labels for seed in seeds]
            for role, seeds in tree.fresh_children(labels, requirements)
        }

    def entails_at_most(self, body: Iterable[str], role: SignedLabel, head: Iterable[str]) -> bool:
        """``T ⊨ K ⊑ ∃≤1R.K'``: some statement ``A ⊑ ∃≤1R.B`` of the TBox
        has ``A ⊆ K`` and ``B ⊆ K'``, or else a ``K``-node with two
        ``R``-successors in ``K'`` is unsatisfiable or the chase merges the
        two."""
        body, head = frozenset(body), frozenset(head)
        stated = self.engine.index.applicable_at_most(body, role)
        if any(statement.head <= head for statement in stated):
            return True
        return self._chase_at_most(body, role, head)

    def _chase_at_most(self, body: ConceptNames, role: SignedLabel, head: ConceptNames) -> bool:
        """The exact ``≤1`` check by one chase: do two ``R``-successors in
        ``K'`` of a ``K``-node merge (or is the pattern unsatisfiable)?"""
        self.chases += 1
        pattern = Graph()
        pattern.add_node("u", body)
        for successor in ("v1", "v2"):
            pattern.add_node(successor, head)
            _edge(pattern, "u", role, successor)
        chased = self.engine.check_pattern(pattern, {"a": "v1", "b": "v2"})
        return not chased.consistent or chased.assignment["a"] == chased.assignment["b"]


def entails_exists(
    tbox: TBoxLike, body: Iterable[str], role: SignedLabel, head: Iterable[str]
) -> bool:
    """``T ⊨ K ⊑ ∃R.K'``, by one chase of a lone ``K``-node (see the module
    docstring for why it agrees with the Corollary E.7 reduction)."""
    return EntailmentChecker(tbox).entails_exists(body, role, head)


def entails_at_most(
    tbox: TBoxLike, body: Iterable[str], role: SignedLabel, head: Iterable[str]
) -> bool:
    """``T ⊨ K ⊑ ∃≤1R.K'``, read off a ``≤1`` statement that implies it or
    else by chasing a ``K``-node with two ``R``-successors in ``K'`` and
    checking whether they merge."""
    return EntailmentChecker(tbox).entails_at_most(body, role, head)
