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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..dl.concepts import ConceptNames
from ..graph.labels import SignedLabel
from .labelsets import TBoxIndex

__all__ = ["TreeOutcome", "TreeChecker", "Context"]

Context = Tuple[ConceptNames, Optional[SignedLabel], Optional[ConceptNames]]


@dataclass(frozen=True)
class TreeOutcome:
    """Result of checking one context.

    ``ok`` is ``False`` when no tree can discharge the requirements;
    ``parent_needs`` lists concept names that the *parent* node must
    additionally carry for the trees below this node to exist (empty when the
    node has no parent or nothing is forced back).
    """

    ok: bool
    parent_needs: ConceptNames = frozenset()

    @staticmethod
    def failure() -> "TreeOutcome":
        return TreeOutcome(False, frozenset())

    @staticmethod
    def success(parent_needs: ConceptNames = frozenset()) -> "TreeOutcome":
        return TreeOutcome(True, frozenset(parent_needs))


class TreeChecker:
    """Decides tree-extendability of contexts for a fixed Horn TBox."""

    def __init__(self, index: TBoxIndex, max_iterations: int = 10_000) -> None:
        self.index = index
        self.max_iterations = max_iterations
        self._memo: Dict[Context, TreeOutcome] = {}

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
        return self._check((self.index.close(labels), parent_role, parent_labels), set())

    # ------------------------------------------------------------------ #
    def _check(self, context: Context, stack: Set[Context]) -> TreeOutcome:
        if context in self._memo:
            return self._memo[context]
        if context in stack:
            # coinductive assumption: unfolding the cycle forever builds an
            # infinite tree, which unrestricted models allow
            return TreeOutcome.success()
        stack.add(context)
        outcome = self._evaluate(context, stack)
        stack.discard(context)
        self._memo[context] = outcome
        return outcome

    def _evaluate(self, context: Context, stack: Set[Context]) -> TreeOutcome:
        entry_labels, parent_role, parent_labels = context
        index = self.index
        current = index.close(entry_labels)
        parent_needs: Set[str] = set()
        iterations = 0

        while True:
            iterations += 1
            if iterations > self.max_iterations:  # pragma: no cover - safety net
                return TreeOutcome.failure()
            if index.violates_bottom(current):
                return TreeOutcome.failure()

            # interactions with the parent along parent_role
            if parent_role is not None and parent_labels is not None:
                forced_on_parent = index.forall_targets(current, parent_role)
                parent_needs |= set(forced_on_parent - parent_labels)
                if index.no_exists_conflicts(current, parent_role, parent_labels):
                    return TreeOutcome.failure()

            # group the triggered existential requirements by role
            requirements = index.required_successors(current)
            pending: Dict[SignedLabel, List[ConceptNames]] = {}
            for statement in requirements:
                role, head = statement.role, statement.head
                if (
                    parent_role is not None
                    and parent_labels is not None
                    and role == parent_role
                    and head <= parent_labels
                ):
                    continue  # already witnessed by the parent
                pending.setdefault(role, []).append(head)

            grew = False
            for role, heads in sorted(pending.items(), key=lambda item: str(item[0])):
                seeds = [index.child_seed(current, role, head) for head in heads]
                seeds = self._merge_functional_seeds(current, role, seeds)
                for seed in seeds:
                    conflict = index.no_exists_conflicts(current, role, seed)
                    if conflict is not None:
                        # no fresh child may exist; only the parent could absorb it
                        if parent_role is not None and role == parent_role:
                            parent_needs |= set(seed - (parent_labels or frozenset()))
                            continue
                        return TreeOutcome.failure()
                    if self._blocked_by_parent(current, role, seed, parent_role, parent_labels):
                        # functionality forces the requirement onto the parent
                        parent_needs |= set(seed - (parent_labels or frozenset()))
                        continue
                    child_outcome = self._check((seed, role.inverse(), current), stack)
                    if not child_outcome.ok:
                        return TreeOutcome.failure()
                    new_here = child_outcome.parent_needs - current
                    if new_here:
                        current = index.close(current | new_here)
                        grew = True
                        break
                if grew:
                    break
            if not grew:
                base = parent_labels or frozenset()
                return TreeOutcome.success(frozenset(parent_needs) - base)

    # ------------------------------------------------------------------ #
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
