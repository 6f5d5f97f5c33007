"""Closed label sets for the Horn-ALCIF chase.

Because the TBoxes produced by the paper's reductions are Horn, the set of
concept names that a node must carry is obtained by *closing* a seed set
under the statements ``K ⊑ A``.  This module provides that closure, the
⊥-check and an index over a TBox that the chase engine and the
tree-extendability check share.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..dl.concepts import (
    AtMostOneCI,
    ConceptInclusion,
    ConceptNames,
    ExistsCI,
    ForAllCI,
    NoExistsCI,
    SubclassOf,
    SubclassOfBottom,
)
from ..dl.tbox import TBox
from ..exceptions import SolverError
from ..graph.labels import SignedLabel

__all__ = ["TBoxIndex"]


class TBoxIndex:
    """A view of a Horn TBox grouped by statement kind, with a closure cache.

    The index is the single object shared by the pattern chase and the
    tree-extendability procedure.  It memoises, per label set, the closure
    (which dominates the running time on larger inputs), the ``⊥`` test,
    the triggered ``∃``-statements, and per label set and role the
    applicable at-most statements and the labels the ``∀``-statements
    force; the chase asks these of closed label sets, so few keys recur.
    Building an index from a TBox is where the chase checks that the TBox
    is Horn.

    ``TBoxIndex(tbox)`` always builds from scratch; :meth:`of` builds once
    per TBox and keeps the index on it until the TBox changes, and
    :meth:`extended` derives the index of a union from the index of its
    left operand.
    """

    def __init__(self, tbox: TBox) -> None:
        self.subclass: List[SubclassOf] = []
        self.bottoms: List[SubclassOfBottom] = []
        self.forall: List[ForAllCI] = []
        self.exists: List[ExistsCI] = []
        self.no_exists: List[NoExistsCI] = []
        self.at_most: List[AtMostOneCI] = []
        # role-guarded statements are also grouped by role for quick lookup
        self.forall_by_role: Dict[SignedLabel, List[ForAllCI]] = {}
        self.exists_by_role: Dict[SignedLabel, List[ExistsCI]] = {}
        self.no_exists_by_role: Dict[SignedLabel, List[NoExistsCI]] = {}
        self.at_most_by_role: Dict[SignedLabel, List[AtMostOneCI]] = {}
        self._file(tbox)

    @classmethod
    def of(cls, tbox: TBox) -> "TBoxIndex":
        """The index of *tbox*, built on first use and kept on the TBox.

        Threads racing on a TBox's first use may each build an index; they
        are equal, and the last one stays.
        """
        index = tbox._index  # noqa: SLF001 - the memo slot TBox keeps for this class
        if index is None:
            index = tbox._index = cls(tbox)  # noqa: SLF001
        return index

    def extended(self, added: Iterable[ConceptInclusion]) -> "TBoxIndex":
        """The index of this TBox plus the new statements *added*.

        Each bucket is a copy of this index's with the added statements
        appended, so it lists the statements in the order an index built
        from scratch over the union would.  The memos start empty, since
        added statements can change every answer.
        """
        result = TBoxIndex.__new__(TBoxIndex)
        for name in ("subclass", "bottoms", "forall", "exists", "no_exists", "at_most"):
            setattr(result, name, list(getattr(self, name)))
        for name in ("forall_by_role", "exists_by_role", "no_exists_by_role", "at_most_by_role"):
            setattr(result, name, {role: list(bucket) for role, bucket in getattr(self, name).items()})
        result._file(added)
        return result

    def _file(self, statements: Iterable[ConceptInclusion]) -> None:
        """Append *statements* to their buckets and start empty caches."""
        buckets = {
            SubclassOf: (self.subclass, None),
            SubclassOfBottom: (self.bottoms, None),
            ForAllCI: (self.forall, self.forall_by_role),
            ExistsCI: (self.exists, self.exists_by_role),
            NoExistsCI: (self.no_exists, self.no_exists_by_role),
            AtMostOneCI: (self.at_most, self.at_most_by_role),
        }
        # one pass over the statements; a kind without a bucket is not Horn
        for statement in statements:
            found = buckets.get(type(statement))
            if found is None:
                raise SolverError("the chase engine only accepts Horn TBoxes")
            bucket, by_role = found
            bucket.append(statement)
            if by_role is not None:
                by_role.setdefault(statement.role, []).append(statement)
        self._closure_cache: Dict[ConceptNames, ConceptNames] = {}
        self._forall_cache: Dict[Tuple[ConceptNames, SignedLabel], ConceptNames] = {}
        self._bottom_cache: Dict[ConceptNames, bool] = {}
        self._exists_cache: Dict[ConceptNames, Tuple[ExistsCI, ...]] = {}
        self._at_most_cache: Dict[Tuple[ConceptNames, SignedLabel], Tuple[AtMostOneCI, ...]] = {}

    # ------------------------------------------------------------------ #
    def close(self, labels: Iterable[str]) -> ConceptNames:
        """Close a label set under the statements ``K ⊑ A``."""
        seed = frozenset(labels)
        cached = self._closure_cache.get(seed)
        if cached is not None:
            return cached
        current = set(seed)
        changed = True
        while changed:
            changed = False
            for statement in self.subclass:
                if statement.head not in current and statement.body <= current:
                    current.add(statement.head)
                    changed = True
        result = frozenset(current)
        self._closure_cache[seed] = result
        return result

    def violates_bottom(self, labels: ConceptNames) -> bool:
        """``True`` when a closed label set triggers some ``K ⊑ ⊥``."""
        cached = self._bottom_cache.get(labels)
        if cached is None:
            cached = self._bottom_cache[labels] = any(
                statement.body <= labels for statement in self.bottoms
            )
        return cached

    def forall_targets(self, labels: ConceptNames, role: SignedLabel) -> ConceptNames:
        """Labels forced onto every *role*-successor of a node with *labels*."""
        key = (labels, role)
        cached = self._forall_cache.get(key)
        if cached is not None:
            return cached
        forced: set = set()
        for statement in self.forall_by_role.get(role, ()):
            if statement.body <= labels:
                forced |= statement.head
        result = self._forall_cache[key] = frozenset(forced)
        return result

    def no_exists_conflicts(
        self, labels: ConceptNames, role: SignedLabel, successor_labels: ConceptNames
    ) -> Optional[NoExistsCI]:
        """A ``K ⊑ ¬∃R.K'`` statement violated by the given successor, if any."""
        for statement in self.no_exists_by_role.get(role, ()):
            if statement.body <= labels and statement.head <= successor_labels:
                return statement
        return None

    def applicable_at_most(
        self, labels: ConceptNames, role: SignedLabel
    ) -> Tuple[AtMostOneCI, ...]:
        """The at-most constraints on *role* whose body is satisfied by *labels*."""
        key = (labels, role)
        cached = self._at_most_cache.get(key)
        if cached is None:
            cached = self._at_most_cache[key] = tuple(
                s for s in self.at_most_by_role.get(role, ()) if s.body <= labels
            )
        return cached

    def required_successors(self, labels: ConceptNames) -> Tuple[ExistsCI, ...]:
        """The ∃-statements triggered by *labels*."""
        cached = self._exists_cache.get(labels)
        if cached is None:
            cached = self._exists_cache[labels] = tuple(s for s in self.exists if s.body <= labels)
        return cached

    def child_seed(self, labels: ConceptNames, role: SignedLabel, head: ConceptNames) -> ConceptNames:
        """The (closed) minimal label set of a fresh *role*-successor created to
        witness ``labels ⊑ ∃role.head``: the head plus everything forced by the
        ∀-statements of the parent."""
        return self.close(head | self.forall_targets(labels, role))

    def statistics(self) -> Dict[str, int]:
        """Counts per statement kind (used by benchmarks and diagnostics)."""
        return {
            "subclass": len(self.subclass),
            "bottom": len(self.bottoms),
            "forall": len(self.forall),
            "exists": len(self.exists),
            "no_exists": len(self.no_exists),
            "at_most": len(self.at_most),
        }
