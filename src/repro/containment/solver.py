"""Containment of UC2RPQs in acyclic UC2RPQs modulo schema (Theorem 5.1).

The :class:`ContainmentSolver` wires together the reductions of the paper:

1. booleanization of the free variables (Lemma D.1);
2. restriction of the left query to the schema alphabet and encoding of the
   schema as the Horn TBox ``T̂_S`` (Theorem 5.6 / Lemma D.3);
3. rolling up of the acyclic right query into ``T_¬Q`` (Lemma C.2);
4. completion of ``T̂_S ∪ T_¬Q`` by cycle reversing (Theorem 5.4 / Lemma D.7);
5. unrestricted satisfiability of the rewritten left query modulo the
   completion, decided by the Horn chase over enumerated witness patterns.

``P ⊆_S Q`` holds iff step 5 reports *unsatisfiable*.  The "every node has a
schema label" requirement — the only non-Horn part of conformance — is
enforced on witness patterns directly: every pattern node without a schema
label is assigned one, branching over the locally compatible choices (this is
equivalent to the paper's interleaving rewrite but keeps the enumerated words
short; see docs/ARCHITECTURE.md, stage 5 "Chase").

The expensive stages of the pipeline are factored into overridable hook
methods (:meth:`ContainmentSolver._schema_tbox`,
:meth:`ContainmentSolver._prepared_choices`,
:meth:`ContainmentSolver._compile_automaton`) so that :class:`repro.engine.ContainmentEngine`
can substitute cached artefacts without duplicating the decision procedure;
the module-level :func:`contains` wrapper routes through the shared default
engine and therefore benefits from those caches automatically.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from ..chase.engine import ChaseEngine
from ..chase.solver import SatisfiabilityConfig, build_pattern
from ..core import CompiledAutomaton, compile_regex
from ..dl.schema_tbox import schema_to_extended_tbox
from ..dl.tbox import TBox
from ..exceptions import AcyclicityError, QueryError
from ..graph.graph import Graph, NodeId
from ..rpq.queries import C2RPQ, UC2RPQ
from ..rpq.regex import Symbol
from ..schema.schema import Schema
from .booleanize import booleanize
from .counterexample import Counterexample, find_counterexample
from .cycle_reversal import CompletionConfig, CompletionResult, complete
from .rolling_up import roll_up_choices
from .schema_encoding import filter_uc2rpq

__all__ = ["ContainmentConfig", "ContainmentResult", "ContainmentSolver", "contains"]


@dataclass(frozen=True)
class ContainmentConfig:
    """Resource bounds for the containment decision procedure."""

    satisfiability: SatisfiabilityConfig = field(default_factory=SatisfiabilityConfig)
    completion: CompletionConfig = field(default_factory=CompletionConfig)
    apply_completion: bool = True
    max_label_assignments: int = 2_000
    search_finite_counterexample: bool = False
    counterexample_max_nodes: int = 3


@dataclass
class ContainmentResult:
    """Outcome of one containment test ``P ⊆_S Q``."""

    contained: bool
    regime: str
    schema_name: str
    left_name: str
    right_name: str
    witness_pattern: Optional[Graph] = None
    finite_counterexample: Optional[Counterexample] = None
    completion: Optional[CompletionResult] = None
    tbox_size: int = 0
    patterns_checked: int = 0
    elapsed_seconds: float = 0.0
    reason: str = ""

    def __bool__(self) -> bool:
        return self.contained

    @property
    def conclusive(self) -> bool:
        """``False`` only for a "contained" verdict obtained in the truncated regime."""
        return (not self.contained) or self.regime in ("exact", "pumped")

    def summary(self) -> str:
        verdict = "⊆" if self.contained else "⊄"
        return (
            f"{self.left_name} {verdict}_{self.schema_name} {self.right_name} "
            f"[regime={self.regime}, patterns={self.patterns_checked}, "
            f"|T|={self.tbox_size}, {self.elapsed_seconds * 1000:.1f} ms]"
        )


class ContainmentSolver:
    """Decides ``P ⊆_S Q`` for UC2RPQs ``P`` and acyclic UC2RPQs ``Q``."""

    def __init__(self, schema: Schema, config: Optional[ContainmentConfig] = None) -> None:
        self.schema = schema
        self.config = config or ContainmentConfig()
        self._memo_context: Optional[str] = None

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def contains(self, left, right) -> ContainmentResult:
        """Decide ``left ⊆_S right`` (over finite graphs conforming to S)."""
        started = time.perf_counter()
        left = _as_union(left, "P")
        right = _as_union(right, "Q")
        if not right.is_acyclic():
            raise AcyclicityError(
                f"the right-hand side {right.name} must be an acyclic UC2RPQ"
            )
        if left.is_empty():
            return ContainmentResult(
                True, "exact", self.schema.name, left.name, right.name,
                reason="the left-hand side is the empty union",
                elapsed_seconds=time.perf_counter() - started,
            )

        reduction = self._booleanize(left, right)
        extended_schema = reduction.schema
        filtered_left = filter_uc2rpq(reduction.left, extended_schema)

        # one Horn TBox per choice of the component to refute in each disjunct
        # of Q (exactly one choice when all disjuncts are connected); P ⊆_S Q
        # holds iff the left query is unsatisfiable modulo every choice.
        satisfiable = False
        regime = "exact"
        witness: Optional[Graph] = None
        patterns = 0
        completion: Optional[CompletionResult] = None
        tbox_size = 0
        for choice_completion, engine in self._prepared_choices(reduction, right.name):
            completion = completion or choice_completion
            tbox_size = max(tbox_size, choice_completion.tbox.size())
            choice_sat, choice_regime, choice_witness, choice_patterns = self._left_satisfiable(
                filtered_left, extended_schema, engine
            )
            patterns += choice_patterns
            regime = _weakest(regime, choice_regime)
            if choice_sat:
                satisfiable, witness, completion = True, choice_witness, choice_completion
                break

        result = ContainmentResult(
            contained=not satisfiable,
            regime=regime,
            schema_name=self.schema.name,
            left_name=left.name,
            right_name=right.name,
            witness_pattern=witness,
            completion=completion,
            tbox_size=tbox_size,
            patterns_checked=patterns,
            reason=(
                "no witness pattern is consistent with the completed TBox"
                if not satisfiable
                else "a consistent witness pattern exists (counterexample to containment)"
            ),
        )
        if satisfiable and self.config.search_finite_counterexample:
            result.finite_counterexample = find_counterexample(
                left, right, self.schema, max_nodes=self.config.counterexample_max_nodes
            )
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def equivalent(self, left, right) -> bool:
        """``True`` when both containments hold (both sides must be acyclic)."""
        return bool(self.contains(left, right)) and bool(self.contains(right, left))

    def satisfiable(self, query) -> ContainmentResult:
        """Satisfiability of *query* modulo the schema over finite graphs.

        ``q`` is satisfiable modulo ``S`` iff ``q ⊄_S ∅``; the returned result
        is the containment result against the empty union, so ``not result``
        means satisfiable.
        """
        query = _as_union(query, "P")
        empty = UC2RPQ([], name="∅")
        return self.contains(query, empty)

    # ------------------------------------------------------------------ #
    # pipeline stages — overridable hooks for the caching engine
    # ------------------------------------------------------------------ #
    def _booleanize(self, left: UC2RPQ, right: UC2RPQ):
        """Stage 1 — the Lemma D.1 reduction to Boolean queries."""
        return booleanize(self.schema, left, right)

    def _schema_tbox(self, extended_schema: Schema) -> TBox:
        """Stage 2 — the Horn TBox ``T̂_S`` of the (extended) schema.

        :class:`repro.engine.ContainmentEngine` overrides this to reuse one
        encoding per schema fingerprint.
        """
        return schema_to_extended_tbox(extended_schema)

    def _prepared_choices(
        self, reduction, right_name: str
    ) -> List[Tuple[CompletionResult, ChaseEngine]]:
        """Stages 3–4 — roll up the right query and complete each choice.

        Returns one ``(completion, chase engine)`` pair per choice of the
        component to refute.  This is the dominant cost of a containment call
        (the completion runs exponentially many entailment checks in the worst
        case), which is why the engine caches the whole list per
        ``(schema, right query, config)`` fingerprint.
        """
        schema_tbox = self._schema_tbox(reduction.schema)
        prepared: List[Tuple[CompletionResult, ChaseEngine]] = []
        for rolled in roll_up_choices(reduction.right, prefix=right_name):
            combined = schema_tbox.union(
                rolled.tbox, name=f"T̂_{reduction.schema.name}∪T_¬{right_name}"
            )
            if self.config.apply_completion:
                choice_completion = complete(
                    combined, reduction.schema, config=self.config.completion
                )
            else:
                # ablation mode: decide containment over *unrestricted* models only
                choice_completion = CompletionResult(combined, skipped=True)
            prepared.append((choice_completion, ChaseEngine(choice_completion.tbox)))
        return prepared

    def _compile_automaton(self, regex) -> CompiledAutomaton:
        """Stage 5 prerequisite — compile one atom regex (cacheable).

        Returns the :class:`repro.core.CompiledAutomaton` bundle (NFA,
        cycle/emptiness flags, memoized pumped word lists), memoized under
        this solver's schema fingerprint.
        :class:`repro.engine.ContainmentEngine` overrides this to serve the
        bundle from its automaton cache.  (The pre-core ``_build_nfa`` hook
        finished its deprecation cycle and is gone; subclasses substitute
        automata by overriding this method.)
        """
        if self._memo_context is None:
            self._memo_context = self.schema.canonical_fingerprint()
        return compile_regex(regex, self._memo_context)

    # ------------------------------------------------------------------ #
    # satisfiability of the reduced left-hand side
    # ------------------------------------------------------------------ #
    def _left_satisfiable(
        self, left: UC2RPQ, schema: Schema, engine: ChaseEngine
    ) -> Tuple[bool, str, Optional[Graph], int]:
        config = self.config.satisfiability
        regime = "exact"
        patterns_checked = 0
        for disjunct in left:
            word_lists: List[Tuple[Tuple[Symbol, ...], ...]] = []
            empty_atom = False
            for atom in disjunct.atoms:
                automaton = self._compile_automaton(atom.regex)
                words = automaton.words(
                    max_length=config.max_word_length,
                    max_state_repeats=config.max_state_repeats,
                    max_words=config.max_words_per_atom,
                )
                if not words:
                    if not automaton.is_empty():
                        regime = _weakest(regime, "truncated")
                    empty_atom = True
                    break
                if len(words) >= config.max_words_per_atom or any(
                    len(word) >= config.max_word_length for word in words
                ):
                    regime = _weakest(regime, "truncated")
                elif automaton.has_productive_cycle():
                    regime = _weakest(regime, "pumped")
                word_lists.append(words)
            if empty_atom:
                continue
            if not disjunct.atoms:
                word_lists = []
            combinations = itertools.product(*word_lists) if word_lists else iter([()])
            for combination in combinations:
                if patterns_checked >= config.max_patterns:
                    regime = _weakest(regime, "truncated")
                    break
                base_pattern, assignment = build_pattern(disjunct.atoms, list(combination))
                if not disjunct.atoms:
                    base_pattern = Graph()
                    base_pattern.add_node("n0")
                for labelled in self._label_assignments(base_pattern, schema):
                    patterns_checked += 1
                    chase = engine.check_pattern(labelled, assignment)
                    if chase.consistent:
                        return True, regime, chase.pattern, patterns_checked
        return False, regime, None, patterns_checked

    def _label_candidates(
        self, pattern: Graph, schema: Schema
    ) -> Optional[Tuple[List[NodeId], List[List[str]]]]:
        """The unlabeled nodes and their locally compatible schema labels.

        ``None`` when some node admits no label at all (the pattern has no
        conforming labelling).  Shared by :meth:`_label_assignments` and
        :meth:`_count_label_assignments`, which must agree exactly.
        """
        unlabeled = [
            node
            for node in sorted(pattern.nodes(), key=repr)
            if not (pattern.labels(node) & schema.node_labels)
        ]
        candidate_lists: List[List[str]] = []
        for node in unlabeled:
            candidates = [
                label
                for label in sorted(schema.node_labels)
                if self._locally_compatible(pattern, schema, node, label)
            ]
            if not candidates:
                return None  # no conforming labelling exists for this pattern
            candidate_lists.append(candidates)
        return unlabeled, candidate_lists

    # Unused by the solver; kept because perfbench/trace.py wraps it by name.
    def _count_label_assignments(self, pattern: Graph, schema: Schema) -> int:
        """How many labelled patterns :meth:`_label_assignments` would yield."""
        candidates = self._label_candidates(pattern, schema)
        if candidates is None:
            return 0
        unlabeled, candidate_lists = candidates
        if not unlabeled:
            return 1
        total = 1
        for options in candidate_lists:
            total *= len(options)
            if total >= self.config.max_label_assignments:
                return self.config.max_label_assignments
        return total

    def _label_assignments(self, pattern: Graph, schema: Schema) -> Iterator[Graph]:
        """Assign a schema label to every pattern node that lacks one.

        Branches over the locally compatible labels of each unlabeled node;
        this enforces the "at least one label per node" part of conformance
        (the non-Horn statement ``⊤ ⊑ ⊔Γ_S``).
        """
        candidates = self._label_candidates(pattern, schema)
        if candidates is None:
            return
        unlabeled, candidate_lists = candidates
        if not unlabeled:
            yield pattern
            return
        emitted = 0
        for choice in itertools.product(*candidate_lists):
            if emitted >= self.config.max_label_assignments:
                return
            emitted += 1
            labelled = pattern.copy()
            for node, label in zip(unlabeled, choice):
                labelled.add_label(node, label)
            yield labelled

    @staticmethod
    def _locally_compatible(pattern: Graph, schema: Schema, node: NodeId, label: str) -> bool:
        """Quick necessary condition for *label* to be assignable to *node*."""
        for edge_label, target in pattern.out_neighbours(node):
            if edge_label not in schema.edge_labels:
                return False
            target_labels = pattern.labels(target) & schema.node_labels
            targets = target_labels or schema.node_labels
            if all(schema.forbids_edge(label, edge_label, t) for t in targets):
                return False
        for edge_label, source in pattern.in_neighbours(node):
            if edge_label not in schema.edge_labels:
                return False
            source_labels = pattern.labels(source) & schema.node_labels
            sources = source_labels or schema.node_labels
            if all(schema.forbids_edge(s, edge_label, label) for s in sources):
                return False
        return True


# --------------------------------------------------------------------------- #
def _as_union(query, default_name: str) -> UC2RPQ:
    if isinstance(query, UC2RPQ):
        return query
    if isinstance(query, C2RPQ):
        return UC2RPQ.from_query(query)
    raise QueryError(f"expected a C2RPQ or UC2RPQ for {default_name}, got {type(query).__name__}")


def _weakest(left: str, right: str) -> str:
    order = {"exact": 0, "pumped": 1, "truncated": 2}
    return left if order[left] >= order[right] else right


def contains(
    left,
    right,
    schema: Schema,
    config: Optional[ContainmentConfig] = None,
) -> ContainmentResult:
    """Module-level convenience wrapper: decide ``left ⊆_schema right``.

    Routes through the process-wide :func:`repro.engine.default_engine`, so
    repeated stateless calls against the same schema reuse its cached TBox
    encoding, completions and compiled NFAs.  Construct a
    :class:`ContainmentSolver` directly to bypass every cache.
    """
    from ..engine import default_engine  # local import: engine depends on this module

    return default_engine().contains(left, right, schema, config=config)
