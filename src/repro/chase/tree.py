"""Tree-extendability of node contexts (the tree part of Appendix E).

After the finite witness pattern has been chased (see
:mod:`repro.chase.engine`), every node may still have *deferred* existential
requirements ``K ⊑ ∃R.K'`` that are not witnessed inside the pattern.  Such a
requirement is satisfied by attaching a fresh, possibly infinite, finitely
branching tree to the node — exactly the "attached trees" of the paper's
sparse models (Theorem 6.3).  Deciding whether such trees exist is a local,
coinductive computation over *contexts*:

    a context = (closed label set of the node,
                 signed role pointing back to its parent, or None,
                 closed label set of the parent, or None)

A context is *extendable* when all its existential requirements can be
discharged, either by the parent (when the role points back to it and the
parent already carries the required labels), or by fresh children whose
contexts are in turn extendable.  Functionality constraints may *force* a
requirement onto the parent (the cycle-reversal argument of Example 5.5 rests
on exactly this propagation); in that case the outcome reports the labels
that the parent must additionally carry, and the caller re-chases.

Cycles in the context graph are resolved coinductively (a repeated context is
assumed extendable), which is sound for *unrestricted* — finite or infinite —
models: repeating the cycle forever yields an infinite, finitely branching
tree.  This mirrors why the paper first moves from finite to unrestricted
satisfiability via cycle reversing.

The assumption made for a repeated context is confirmed before anything that
rests on it is memoised.  Outcomes computed below a context that read its
assumption stay provisional until the context itself is evaluated; when its
outcome is a failure or forces labels onto the parent that the assumption
left out, the provisional outcomes are dropped and the context is evaluated
again from the joined assumption, until the two agree.  So a memoised
outcome is the same whichever context the checker was first asked about,
and one checker can serve many chases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..dl.concepts import ConceptNames, ExistsCI
from ..graph.labels import SignedLabel
from .labelsets import TBoxIndex

__all__ = ["TreeOutcome", "TreeChecker", "Context"]

Context = Tuple[ConceptNames, Optional[SignedLabel], Optional[ConceptNames]]

#: the stack depth reported by an outcome that read no assumption
_FINAL = 1 << 30


@dataclass(frozen=True)
class TreeOutcome:
    """Result of checking one context.

    ``ok`` is ``False`` when no tree can discharge the requirements;
    ``parent_needs`` lists concept names that the *parent* node must
    additionally carry for the trees below this node to exist (empty when the
    node has no parent or nothing is forced back); ``labels`` is the node's
    final closed label set once its trees are built (empty on failure).
    """

    ok: bool
    parent_needs: ConceptNames = frozenset()
    labels: ConceptNames = frozenset()

    @staticmethod
    def failure() -> "TreeOutcome":
        return TreeOutcome(False, frozenset())

    @staticmethod
    def success(
        parent_needs: ConceptNames = frozenset(), labels: ConceptNames = frozenset()
    ) -> "TreeOutcome":
        return TreeOutcome(True, frozenset(parent_needs), labels)


@dataclass
class _Frame:
    """A context being evaluated: its stack depth, the outcome assumed where
    it recurs below itself, and whether such a recurrence read it."""

    depth: int
    assumed: TreeOutcome
    read: bool = False


class TreeChecker:
    """Decides tree-extendability of contexts for a fixed Horn TBox."""

    def __init__(self, index: TBoxIndex, max_iterations: int = 10_000) -> None:
        self.index = index
        self.max_iterations = max_iterations
        self._memo: Dict[Context, TreeOutcome] = {}
        # the contexts being evaluated, outermost first
        self._stack: Dict[Context, _Frame] = {}
        # outcomes that read the assumption of a context still on the stack,
        # with the shallowest depth read, in the order they were computed
        self._provisional: Dict[Context, Tuple[TreeOutcome, int]] = {}
        self._provisional_order: List[Context] = []

    # ------------------------------------------------------------------ #
    def check(
        self,
        labels: ConceptNames,
        parent_role: Optional[SignedLabel] = None,
        parent_labels: Optional[ConceptNames] = None,
    ) -> TreeOutcome:
        """Check the context ``(labels, parent_role, parent_labels)``.

        *parent_role* is the signed role under which the **parent** is a
        successor of this node (e.g. a node created as an ``r``-successor of
        its parent sees the parent through ``r⁻``).
        """
        return self._check((self.index.close(labels), parent_role, parent_labels))[0]

    # ------------------------------------------------------------------ #
    def _check(self, context: Context) -> Tuple[TreeOutcome, int]:
        """The outcome of *context* and the shallowest stack depth whose
        assumption it read (:data:`_FINAL` when it read none)."""
        outcome = self._memo.get(context)
        if outcome is not None:
            return outcome, _FINAL
        provisional = self._provisional.get(context)
        if provisional is not None:
            return provisional
        frame = self._stack.get(context)
        if frame is not None:
            # coinductive assumption: unfolding the cycle forever builds an
            # infinite tree, which unrestricted models allow
            frame.read = True
            return frame.assumed, frame.depth
        depth = len(self._stack)
        frame = self._stack[context] = _Frame(depth, TreeOutcome.success())
        mark = len(self._provisional_order)
        while True:
            outcome, low = self._evaluate(context)
            if not frame.read:
                break
            # the recurrences below read the assumption: they stand only if
            # it matches the outcome, else re-evaluate from the joined one
            joined = _join(frame.assumed, outcome)
            if joined == frame.assumed:
                break
            frame.assumed, frame.read = joined, False
            self._discard_provisional(mark)
        del self._stack[context]
        if low >= depth:
            # every assumption read below has been confirmed
            for done in self._provisional_order[mark:]:
                self._memo[done] = self._provisional.pop(done)[0]
            del self._provisional_order[mark:]
            self._memo[context] = outcome
        else:
            # what was computed below now rests on the shallower assumption
            for pending in self._provisional_order[mark:]:
                self._provisional[pending] = (self._provisional[pending][0], low)
            self._provisional[context] = (outcome, low)
            self._provisional_order.append(context)
        return outcome, low

    def _discard_provisional(self, mark: int) -> None:
        for stale in self._provisional_order[mark:]:
            del self._provisional[stale]
        del self._provisional_order[mark:]

    def _evaluate(self, context: Context) -> Tuple[TreeOutcome, int]:
        entry_labels, parent_role, parent_labels = context
        index = self.index
        current = index.close(entry_labels)
        parent_needs: Set[str] = set()
        iterations = 0
        low = _FINAL

        while True:
            iterations += 1
            if iterations > self.max_iterations:  # pragma: no cover - safety net
                return TreeOutcome.failure(), low
            if index.violates_bottom(current):
                return TreeOutcome.failure(), low

            # interactions with the parent along parent_role
            if parent_role is not None and parent_labels is not None:
                forced_on_parent = index.forall_targets(current, parent_role)
                parent_needs |= set(forced_on_parent - parent_labels)
                if index.no_exists_conflicts(current, parent_role, parent_labels):
                    return TreeOutcome.failure(), low

            requirements = index.required_successors(current)
            if parent_role is not None and parent_labels is not None:
                # a requirement the parent already witnesses needs no fresh child
                requirements = [
                    statement
                    for statement in requirements
                    if statement.role != parent_role or not statement.head <= parent_labels
                ]

            grew = False
            for role, seeds in self.fresh_children(current, requirements):
                for seed in seeds:
                    conflict = index.no_exists_conflicts(current, role, seed)
                    if conflict is not None:
                        # no fresh child may exist; only the parent could absorb it
                        if parent_role is not None and role == parent_role:
                            parent_needs |= set(seed - (parent_labels or frozenset()))
                            continue
                        return TreeOutcome.failure(), low
                    if self._blocked_by_parent(current, role, seed, parent_role, parent_labels):
                        # functionality forces the requirement onto the parent
                        parent_needs |= set(seed - (parent_labels or frozenset()))
                        continue
                    child_outcome, child_low = self._check((seed, role.inverse(), current))
                    low = min(low, child_low)
                    if not child_outcome.ok:
                        return TreeOutcome.failure(), low
                    new_here = child_outcome.parent_needs - current
                    if new_here:
                        current = index.close(current | new_here)
                        grew = True
                        break
                if grew:
                    break
            if not grew:
                base = parent_labels or frozenset()
                return TreeOutcome.success(frozenset(parent_needs) - base, current), low

    # ------------------------------------------------------------------ #
    def fresh_children(
        self, labels: ConceptNames, requirements: Iterable[ExistsCI]
    ) -> Iterator[Tuple[SignedLabel, List[ConceptNames]]]:
        """The fresh children a node with *labels* creates for *requirements*.

        Yields, role by role in a fixed order, the closed seeds of the
        children: one per requirement (:meth:`TBoxIndex.child_seed`), with
        the seeds an at-most constraint forces to coincide merged.  The
        chase's phase 4 and the tree check both build children this way.
        """
        pending: Dict[SignedLabel, List[ConceptNames]] = {}
        for statement in requirements:
            pending.setdefault(statement.role, []).append(statement.head)
        for role, heads in sorted(pending.items(), key=lambda item: str(item[0])):
            seeds = [self.index.child_seed(labels, role, head) for head in heads]
            yield role, self._merge_functional_seeds(labels, role, seeds)

    def _blocked_by_parent(
        self,
        labels: ConceptNames,
        role: SignedLabel,
        child_seed: ConceptNames,
        parent_role: Optional[SignedLabel],
        parent_labels: Optional[ConceptNames],
    ) -> bool:
        """``True`` when an applicable at-most constraint forbids creating a
        fresh *role*-child because the parent already is a matching successor."""
        if parent_role is None or parent_labels is None or role != parent_role:
            return False
        for statement in self.index.applicable_at_most(labels, role):
            if statement.head <= child_seed and statement.head <= parent_labels:
                return True
        return False

    def _merge_functional_seeds(
        self, labels: ConceptNames, role: SignedLabel, seeds: List[ConceptNames]
    ) -> List[ConceptNames]:
        """Merge fresh-child seeds that an at-most constraint forces to coincide."""
        merged = [self.index.close(seed) for seed in seeds]
        if len(merged) < 2:
            return merged  # an at-most constraint merges two matching seeds or none
        changed = True
        while changed:
            changed = False
            for statement in self.index.applicable_at_most(labels, role):
                matching = [i for i, seed in enumerate(merged) if statement.head <= seed]
                if len(matching) >= 2:
                    keep = matching[0]
                    combined = set(merged[keep])
                    for i in matching[1:]:
                        combined |= merged[i]
                    merged = [
                        seed for i, seed in enumerate(merged) if i not in matching[1:]
                    ]
                    merged[keep] = self.index.close(frozenset(combined))
                    changed = True
                    break
        # deduplicate identical seeds
        unique: List[ConceptNames] = []
        for seed in merged:
            if seed not in unique:
                unique.append(seed)
        return unique

    def cache_size(self) -> int:
        """Number of memoised contexts (exposed for benchmarks)."""
        return len(self._memo)


def _join(assumed: TreeOutcome, outcome: TreeOutcome) -> TreeOutcome:
    """The next assumption: failure wins, otherwise the needs are united."""
    if not (assumed.ok and outcome.ok):
        return TreeOutcome.failure()
    return TreeOutcome.success(assumed.parent_needs | outcome.parent_needs)
