"""Finmod cycles, cycle reversing and the completion T* (Section 5, App. D).

Finite graphs conforming to a schema can exhibit properties that infinite
graphs do not (Example 5.2: an "at least one outgoing / at most one incoming"
edge label forms disjoint cycles in every finite graph).  Cycle reversing
(Cosmadakis et al.; Ibáñez-García et al.) captures these properties: a
*finmod cycle* in a Horn-ALCIF TBox ``T`` is a sequence

    K₁, R₁, K₂, R₂, …, K_{n-1}, R_{n-1}, K_n = K₁

with ``T ⊨ Kᵢ ⊑ ∃Rᵢ.Kᵢ₊₁`` and ``T ⊨ Kᵢ₊₁ ⊑ ∃≤1Rᵢ⁻.Kᵢ``; *reversing* it adds
``Kᵢ₊₁ ⊑ ∃Rᵢ⁻.Kᵢ`` and ``Kᵢ ⊑ ∃≤1Rᵢ.Kᵢ₊₁``.  The completion ``T*`` reverses
finmod cycles exhaustively; by Theorem 5.4, finite satisfiability modulo ``T``
coincides with unrestricted satisfiability modulo ``T*``.

Implementation notes
--------------------
The paper's completion operates over *all* conjunctions of concept names,
which is purely a proof device — it is astronomically large even for toy
inputs.  This implementation restricts attention to the conjunctions that can
actually label nodes of canonical models: closures of the schema labels, of
schema labels extended with the heads of ∀-statements (the query concepts the
rolling-up propagates), of caller-provided seeds (the label sets appearing in
chased witness patterns), and of the child seeds generated from those — a
lazily grown, capped candidate family.  Entailment of the defining conditions
is checked exactly (:mod:`repro.containment.entailment`), on one chase engine
per round that chases each candidate body once for all its ``∃`` queries and
chases a ``≤1`` query only when no ``≤1`` statement implies it.
Lemma D.6's S-driven invariant is preserved: whenever a reversed cycle
projects to unique schema labels, the corresponding single-label statements
are added as well, and the S-driven simplification of Lemma D.5 keeps the
number of at-most constraints polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from ..chase.labelsets import TBoxIndex
from ..dl.concepts import AtMostOneCI, ConceptNames, ExistsCI
from ..dl.tbox import TBox
from ..graph.labels import SignedLabel
from ..schema.schema import Multiplicity, Schema
from .entailment import EntailmentChecker

__all__ = ["CompletionResult", "CompletionConfig", "complete", "schema_has_finmod_cycle", "simplify_s_driven"]


@dataclass(frozen=True)
class CompletionConfig:
    """Resource bounds for the completion procedure."""

    max_candidates: int = 64
    max_rounds: int = 6
    max_seed_depth: int = 3


@dataclass
class CompletionResult:
    """The completion ``T*`` together with bookkeeping for benchmarks.

    ``entailment_checks`` counts the entailment chases actually run: one
    per (round, candidate body) whose ``∃`` queries needed a chase, plus one
    per ``≤1`` query that no ``≤1`` statement of the round's TBox implies
    (those are answered without a chase).  Answers carried over from an
    earlier round are not counted.
    """

    tbox: TBox
    reversed_cycles: int = 0
    added_statements: int = 0
    candidate_count: int = 0
    rounds: int = 0
    skipped: bool = False
    entailment_checks: int = 0


# --------------------------------------------------------------------------- #
# fast path: does the schema admit any finmod cycle at all?
# --------------------------------------------------------------------------- #
def schema_has_finmod_cycle(schema: Schema) -> bool:
    """``True`` when the single-label graph of the schema has a finmod cycle.

    The nodes are the schema labels; there is an ``R``-edge from ``A`` to
    ``B`` when ``δ(A,R,B)`` requires at least one successor and ``δ(B,R⁻,A)``
    allows at most one.  Because the ∃-statements of the TBoxes produced by
    the paper's reduction all come from the schema (the rolled-up query only
    contributes ∀-statements), the absence of a cycle here implies the absence
    of satisfiable finmod cycles in the combined TBox, so the completion is
    the TBox itself.

    Only declared entries can require a successor (an undeclared one is
    ``0``), so the edges come from one walk over δ as declared, unsorted
    (whether a cycle exists does not depend on the order the search visits
    labels in), and the cycle search is an iterative DFS, safe on
    arbitrarily long schemas.
    """
    delta = schema.delta
    zero = Multiplicity.ZERO
    adjacency: Dict[str, Set[str]] = {label: set() for label in schema.node_labels}
    for (source, signed, target), forward_mult in delta.items():
        if (
            forward_mult.requires_at_least_one
            and delta.get((target, signed.inverse(), source), zero).requires_at_most_one
        ):
            adjacency[source].add(target)
    # detect a cycle (self-loops included) with a DFS colouring: 1 while a
    # label is on the DFS path, 2 once everything below it is explored
    colour: Dict[str, int] = {}
    for root in adjacency:
        if root in colour:
            continue
        colour[root] = 1
        path = [(root, iter(adjacency[root]))]
        while path:
            node, successors = path[-1]
            for successor in successors:
                state = colour.get(successor, 0)
                if state == 1:
                    return True
                if state == 0:
                    colour[successor] = 1
                    path.append((successor, iter(adjacency[successor])))
                    break
            else:
                colour[node] = 2
                path.pop()
    return False


# --------------------------------------------------------------------------- #
# candidate conjunctions
# --------------------------------------------------------------------------- #
def _candidate_label_sets(
    index: TBoxIndex,
    schema: Schema,
    extra_seeds: Iterable[ConceptNames],
    config: CompletionConfig,
) -> List[ConceptNames]:
    candidates: List[ConceptNames] = []
    seen: Set[ConceptNames] = set()

    def push(labels: Iterable[str]) -> None:
        closed = index.close(frozenset(labels))
        if closed not in seen and len(candidates) < config.max_candidates:
            seen.add(closed)
            candidates.append(closed)

    forall_heads = [statement.head for statement in index.forall]
    for label in sorted(schema.node_labels):
        push({label})
        for head in forall_heads:
            push({label} | set(head))
    for seed in extra_seeds:
        push(seed)

    # grow by the child-seed operation (the label sets of canonical tree nodes)
    frontier = list(candidates)
    for _ in range(config.max_seed_depth):
        next_frontier: List[ConceptNames] = []
        for labels in frontier:
            for statement in index.required_successors(labels):
                child = index.child_seed(labels, statement.role, statement.head)
                if child not in seen and len(candidates) < config.max_candidates:
                    seen.add(child)
                    candidates.append(child)
                    next_frontier.append(child)
        if not next_frontier:
            break
        frontier = next_frontier
    return candidates


# --------------------------------------------------------------------------- #
# the completion
# --------------------------------------------------------------------------- #
def complete(
    tbox: TBox,
    schema: Schema,
    extra_seeds: Iterable[ConceptNames] = (),
    config: Optional[CompletionConfig] = None,
) -> CompletionResult:
    """Compute (an S-driven approximation of) the completion ``T*`` of *tbox*."""
    config = config or CompletionConfig()
    if not schema_has_finmod_cycle(schema):
        return CompletionResult(tbox.copy(name=f"{tbox.name}*"), skipped=True)

    work = tbox.copy(name=f"{tbox.name}*")
    result = CompletionResult(work)
    extra_seeds = list(extra_seeds)

    # Entailment is monotone in the TBox and ``work`` only grows inside the
    # loop, so a statement found entailed stays entailed; only statements
    # found not entailed are asked again of a later round's TBox.
    entailed: Set[Union[ExistsCI, AtMostOneCI]] = set()

    def entails(statement: Union[ExistsCI, AtMostOneCI], query: Callable[..., bool]) -> bool:
        if statement in entailed:
            return True
        if query(statement.body, statement.role, statement.head):
            entailed.add(statement)
            return True
        return False

    for round_index in range(config.max_rounds):
        result.rounds = round_index + 1
        index = TBoxIndex.of(work)
        checker = EntailmentChecker(index)
        candidates = _candidate_label_sets(index, schema, extra_seeds, config)
        result.candidate_count = len(candidates)
        roles = sorted(
            {statement.role for statement in index.exists}, key=str
        )
        # edge (K, R, K') of the finmod graph
        edges: Dict[Tuple[ConceptNames, SignedLabel], List[ConceptNames]] = {}
        edge_list: List[Tuple[ConceptNames, SignedLabel, ConceptNames]] = []
        for body in candidates:
            for role in roles:
                # cheap necessary condition: some syntactic ∃-statement applies
                if not any(statement.body <= body for statement in index.exists_by_role.get(role, ())):
                    continue
                for head in candidates:
                    if not entails(ExistsCI(body, role, head), checker.entails_exists):
                        continue
                    if not entails(AtMostOneCI(head, role.inverse(), body), checker.entails_at_most):
                        continue
                    edges.setdefault((body, role), []).append(head)
                    edge_list.append((body, role, head))
        result.entailment_checks += checker.chases

        added_this_round = 0
        for body, role, head in edge_list:
            reverse_exists = ExistsCI(head, role.inverse(), body)
            reverse_at_most = AtMostOneCI(body, role, head)
            if reverse_exists in work and reverse_at_most in work:
                continue
            path = _find_cycle(edges, head, body)
            if path is None:
                continue
            cycle = [(body, role, head)] + path
            result.reversed_cycles += 1
            for step_body, step_role, step_head in cycle:
                for statement in (
                    ExistsCI(step_head, step_role.inverse(), step_body),
                    AtMostOneCI(step_body, step_role, step_head),
                ):
                    if work.add(statement):
                        added_this_round += 1
                # Lemma D.6: project the cycle onto unique schema labels
                body_schema = step_body & schema.node_labels
                head_schema = step_head & schema.node_labels
                if len(body_schema) == 1 and len(head_schema) == 1:
                    for statement in (
                        ExistsCI(frozenset(head_schema), step_role.inverse(), frozenset(body_schema)),
                        AtMostOneCI(frozenset(body_schema), step_role, frozenset(head_schema)),
                    ):
                        if work.add(statement):
                            added_this_round += 1
        result.added_statements += added_this_round
        if not added_this_round:
            break
    simplify_s_driven(work, schema)
    result.tbox = work
    return result


def _find_cycle(
    edges: Dict[Tuple[ConceptNames, SignedLabel], List[ConceptNames]],
    start: ConceptNames,
    goal: ConceptNames,
) -> Optional[List[Tuple[ConceptNames, SignedLabel, ConceptNames]]]:
    """A path from *start* to *goal* in the finmod graph (empty when equal)."""
    if start == goal:
        return []
    parents: Dict[ConceptNames, Tuple[ConceptNames, SignedLabel]] = {}
    visited = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop(0)
        for (body, role), heads in edges.items():
            if body != current:
                continue
            for head in heads:
                if head in visited:
                    continue
                visited.add(head)
                parents[head] = (current, role)
                if head == goal:
                    path: List[Tuple[ConceptNames, SignedLabel, ConceptNames]] = []
                    node = goal
                    while node != start:
                        previous, via = parents[node]
                        path.append((previous, via, node))
                        node = previous
                    path.reverse()
                    return path
                frontier.append(head)
    return None


# --------------------------------------------------------------------------- #
# S-driven simplification (Lemma 5.7 / D.5)
# --------------------------------------------------------------------------- #
def simplify_s_driven(tbox: TBox, schema: Schema) -> TBox:
    """Drop composite at-most constraints subsumed by single-label ones.

    Lemma D.5: in an S-driven TBox every relevant composite at-most constraint
    ``K ⊑ ∃≤1R.K'`` is implied by some ``A ⊑ ∃≤1R.A'`` with ``A ∈ K``,
    ``A' ∈ K'``; removing the composite one keeps the TBox equivalent and
    bounds the number of at-most constraints by ``|Σ±|·|Γ|²``.
    """
    singles = {
        (next(iter(statement.body)), statement.role, next(iter(statement.head)))
        for statement in tbox.at_most_statements()
        if len(statement.body) == 1 and len(statement.head) == 1
    }
    removable = []
    for statement in tbox.at_most_statements():
        if len(statement.body) == 1 and len(statement.head) == 1:
            continue
        body_labels = statement.body & schema.node_labels
        head_labels = statement.head & schema.node_labels
        if any(
            (body_label, statement.role, head_label) in singles
            for body_label in body_labels
            for head_label in head_labels
        ):
            removable.append(statement)
    tbox.discard(removable)
    return tbox
