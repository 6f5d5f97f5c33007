"""Tests for CI entailment (Corollary E.7) and cycle reversing (Section 5)."""

import json
import random
import time
from pathlib import Path

import pytest

from repro.chase import ChaseEngine, TBoxIndex
from repro.containment import (
    complete,
    entails_at_most,
    entails_exists,
    label_set_satisfiable,
    schema_has_finmod_cycle,
    simplify_s_driven,
    triple_satisfiable,
)
from repro.containment import cycle_reversal
from repro.containment.booleanize import booleanize
from repro.containment import solver as containment_solver
from repro.containment.cycle_reversal import CompletionConfig
from repro.containment.entailment import EntailmentChecker
from repro.engine import ContainmentEngine
from repro.dl import (
    AtMostOneCI,
    ExistsCI,
    ForAllCI,
    NoExistsCI,
    SubclassOf,
    SubclassOfBottom,
    TBox,
    conj,
    label_coverage_statement,
    schema_to_extended_tbox,
)
from repro.exceptions import SolverError
from repro.graph import Graph, forward, inverse
from repro.schema import Schema
from repro.rpq import parse_c2rpq
from repro.rpq.queries import UC2RPQ
from repro.workloads import fhir, medical, social, synthetic
from repro.workloads.zoo import ZOO_SEED, zoo_corpus


@pytest.fixture(scope="module")
def medical_tbox():
    return schema_to_extended_tbox(medical.source_schema())


class TestEntailment:
    def test_syntactic_statement_is_entailed(self, medical_tbox):
        assert entails_exists(medical_tbox, ["Vaccine"], forward("designTarget"), ["Antigen"])
        assert entails_at_most(medical_tbox, ["Vaccine"], forward("designTarget"), ["Antigen"])

    def test_non_entailed_statement(self, medical_tbox):
        assert not entails_exists(medical_tbox, ["Antigen"], forward("crossReacting"), ["Antigen"])
        assert not entails_at_most(medical_tbox, ["Antigen"], forward("crossReacting"), ["Antigen"])

    def test_entailment_strengthened_body(self, medical_tbox):
        # K ⊑ ∃R.K' is entailed for any K containing Vaccine
        assert entails_exists(
            medical_tbox, ["Vaccine", "ExtraConcept"], forward("designTarget"), ["Antigen"]
        )

    def test_entailment_weakened_head(self, medical_tbox):
        # the required successor class may be weakened (Antigen ⊆ ⊤)
        assert entails_exists(medical_tbox, ["Vaccine"], forward("designTarget"), [])

    def test_derived_entailment_through_forall(self):
        # A ⊑ ∃s.A plus B ⊑ ∀s.B entails A⊓B ⊑ ∃s.(A⊓B) — the composite
        # entailment at the heart of Example 5.5
        tbox = TBox(
            [
                ExistsCI(conj("A"), forward("s"), conj("A")),
                ForAllCI(conj("B"), forward("s"), conj("B")),
            ]
        )
        assert entails_exists(tbox, ["A", "B"], forward("s"), ["A", "B"])
        assert not entails_exists(tbox, ["A"], forward("s"), ["A", "B"])

    def test_labels_forced_back_onto_the_body(self):
        # the B-child's only r⁻-neighbour is its parent, so every A-node
        # carries C, which needs an s-child and pushes E onto r-children
        tbox = TBox(
            [
                ExistsCI(conj("A"), forward("r"), conj("B")),
                ExistsCI(conj("B"), inverse("r"), conj("C")),
                AtMostOneCI(conj("B"), inverse("r"), conj()),
                ExistsCI(conj("C"), forward("s"), conj("D")),
                ForAllCI(conj("C"), forward("r"), conj("E")),
            ]
        )
        for head, role, entailed in (
            (["D"], forward("s"), True),
            (["B", "E"], forward("r"), True),
            (["E"], forward("s"), False),
        ):
            assert entails_exists(tbox, ["A"], role, head) is entailed
            assert _copy_entails_exists(tbox, ["A"], role, head) is entailed

    def test_labels_forced_back_onto_a_repeated_context(self):
        # every node's r-child needs a B⊓C r⁻-neighbour and may have only
        # one, its parent; so every node carries C, the r-child too
        tbox = TBox(
            [
                ExistsCI(conj(), forward("r"), conj("A", "D")),
                ExistsCI(conj(), inverse("s"), conj()),
                ExistsCI(conj(), inverse("r"), conj("B", "C")),
                AtMostOneCI(conj("A"), inverse("r"), conj()),
            ]
        )
        assert entails_exists(tbox, [], forward("r"), ["C"])
        assert _copy_entails_exists(tbox, [], forward("r"), ["C"])

    def test_vacuous_entailment_for_unsatisfiable_body(self, medical_tbox):
        assert entails_exists(
            medical_tbox, ["Vaccine", "Antigen"], forward("exhibits"), ["Pathogen"]
        )

    def test_label_set_satisfiability(self, medical_tbox):
        assert label_set_satisfiable(medical_tbox, ["Pathogen"])
        assert not label_set_satisfiable(medical_tbox, ["Pathogen", "Vaccine"])

    def test_triple_satisfiability(self, medical_tbox):
        assert triple_satisfiable(medical_tbox, ["Vaccine"], forward("designTarget"), ["Antigen"])
        assert not triple_satisfiable(medical_tbox, ["Vaccine"], forward("exhibits"), ["Antigen"])
        assert triple_satisfiable(medical_tbox, ["Antigen"], inverse("designTarget"), ["Vaccine"])


class TestFinmodCycleDetection:
    def test_medical_schema_has_no_cycle(self, medical_source_schema):
        assert not schema_has_finmod_cycle(medical_source_schema)

    def test_example_52_schema_has_cycle(self, example52_schema):
        assert schema_has_finmod_cycle(example52_schema)

    def test_cycle_requires_inverse_functionality(self):
        schema = Schema(["A"], ["s"], name="NoFunc")
        schema.set_edge("A", "s", "A", "+", "*")  # no "at most one incoming"
        assert not schema_has_finmod_cycle(schema)

    def test_longer_label_cycles_detected(self):
        assert schema_has_finmod_cycle(synthetic.cycle_schema(3))
        assert schema_has_finmod_cycle(synthetic.cycle_schema(5))

    def test_chain_schema_has_no_cycle(self):
        assert not schema_has_finmod_cycle(synthetic.chain_schema(4))

    def test_long_chain_needs_no_recursion(self):
        size = 1600
        labels = [f"A{i}" for i in range(size)]
        schema = Schema(labels, ["r"], name="LongChain")
        for source, target in zip(labels, labels[1:]):
            schema.set_edge(source, "r", target, "1", "?")
        started = time.perf_counter()
        assert not schema_has_finmod_cycle(schema)
        assert time.perf_counter() - started < 0.5
        schema.set_edge(labels[-1], "r", labels[0], "1", "?")
        assert schema_has_finmod_cycle(schema)

    def test_unsorted_delta_walk_matches_the_sorted_walk_on_every_packaged_schema(self):
        # the check walks δ in declaration order; the sorted walk over
        # declared_constraints() and multiplicity() is the one it replaced
        schemas = [
            medical.source_schema(), medical.target_schema(),
            fhir.schema_v3(), fhir.schema_v4(),
            social.schema_v1(), social.schema_v2(),
        ]
        schemas += [synthetic.chain_schema(length) for length in range(1, 9)]
        schemas += [synthetic.cycle_schema(size) for size in range(1, 6)]
        boolean = [
            UC2RPQ.from_query(parse_c2rpq(text))
            for text in ("p() := (r)(x, y)", "p(x) := (r)(x, y)", "p(x, y) := (r)(x, y)")
        ]
        extended = [booleanize(schema, query, query).schema for schema in schemas for query in boolean]
        for seed in range(3):
            for pairs in zoo_corpus(seed).values():
                for left, right, schema in pairs:
                    schemas.append(schema)
                    left, right = (
                        query if isinstance(query, UC2RPQ) else UC2RPQ.from_query(query)
                        for query in (left, right)
                    )
                    extended.append(booleanize(schema, left, right).schema)
        found = {True: 0, False: 0}
        for schema in schemas + extended:
            expected = _all_triples_finmod_cycle(schema, schema.declared_constraints())
            assert schema_has_finmod_cycle(schema) is expected, schema.describe()
            found[expected] += 1
        assert len(schemas) > 200 and min(found.values()) >= 20, (len(schemas), found)

    def test_declared_walk_matches_all_triples_definition(self):
        rng = random.Random(20)
        found = {True: 0, False: 0}
        for _ in range(400):
            schema = _random_schema(rng)
            expected = _all_triples_finmod_cycle(schema)
            assert schema_has_finmod_cycle(schema) is expected, schema.describe()
            found[expected] += 1
        assert min(found.values()) >= 50, found


def _all_triples_finmod_cycle(schema, constraints=None):
    """The definition read off every triple of Γ × Σ± × Γ (or off the
    *constraints* given), with a recursive DFS in sorted label order: the
    reference for :func:`schema_has_finmod_cycle`."""
    adjacency = {label: set() for label in schema.node_labels}
    if constraints is None:
        constraints = schema.all_constraints()
    for source, signed, target, forward_mult in constraints:
        backward_mult = schema.multiplicity(target, signed.inverse(), source)
        if forward_mult.requires_at_least_one and backward_mult.requires_at_most_one:
            adjacency[source].add(target)
    colour = {}

    def dfs(node):
        colour[node] = 1
        for successor in adjacency[node]:
            state = colour.get(successor, 0)
            if state == 1 or (state == 0 and dfs(successor)):
                return True
        colour[node] = 2
        return False

    return any(dfs(label) for label in sorted(schema.node_labels) if label not in colour)


def _random_schema(rng):
    labels = [f"N{i}" for i in range(rng.randint(1, 5))]
    edges = ["r", "s"][: rng.randint(1, 2)]
    schema = Schema(labels, edges, name="Random")
    for _ in range(rng.randint(0, 8)):
        signed = rng.choice(edges) + rng.choice(("", "-"))
        schema.set(rng.choice(labels), signed, rng.choice(labels), rng.choice("01?+*"))
    return schema


class TestCompletion:
    def test_skipped_when_no_cycle_possible(self, medical_tbox, medical_source_schema):
        result = complete(medical_tbox, medical_source_schema)
        assert result.skipped
        assert result.tbox.size() == medical_tbox.size()

    def test_example_52_completion_adds_reversal(self, example52_schema):
        tbox = schema_to_extended_tbox(example52_schema)
        result = complete(tbox, example52_schema)
        assert not result.skipped
        assert result.reversed_cycles >= 1
        # the single-label reversal A ⊑ ∃s⁻.A must have been added
        assert ExistsCI(conj("A"), inverse("s"), conj("A")) in result.tbox
        assert AtMostOneCI(conj("A"), forward("s"), conj("A")) in result.tbox

    def test_completion_is_monotone(self, example52_schema):
        tbox = schema_to_extended_tbox(example52_schema)
        result = complete(tbox, example52_schema)
        assert set(tbox.statements()) <= set(result.tbox.statements())

    def test_completion_respects_budget(self, example52_schema):
        tbox = schema_to_extended_tbox(example52_schema)
        config = CompletionConfig(max_candidates=4, max_rounds=1)
        result = complete(tbox, example52_schema, config=config)
        assert result.rounds <= 1
        assert result.candidate_count <= 4

    def test_cycle_schema_completion(self):
        schema = synthetic.cycle_schema(2)
        tbox = schema_to_extended_tbox(schema)
        result = complete(tbox, schema, config=CompletionConfig(max_candidates=12, max_rounds=2))
        assert result.reversed_cycles >= 1
        assert ExistsCI(conj("L1"), inverse("next"), conj("L0")) in result.tbox


class TestSDrivenSimplification:
    def test_composite_at_most_subsumed_by_single(self, medical_source_schema):
        tbox = TBox(
            [
                AtMostOneCI(conj("Vaccine"), forward("designTarget"), conj("Antigen")),
                AtMostOneCI(conj("Vaccine", "Extra"), forward("designTarget"), conj("Antigen", "More")),
            ]
        )
        simplify_s_driven(tbox, medical_source_schema)
        assert tbox.at_most_count() == 1

    def test_unrelated_composite_kept(self, medical_source_schema):
        tbox = TBox(
            [AtMostOneCI(conj("Vaccine", "Extra"), forward("targets"), conj("Antigen"))]
        )
        simplify_s_driven(tbox, medical_source_schema)
        assert tbox.at_most_count() == 1

    def test_bound_matches_lemma_57(self, example52_schema):
        tbox = schema_to_extended_tbox(example52_schema)
        completed = complete(tbox, example52_schema).tbox
        bound = 2 * len(example52_schema.edge_labels) * len(example52_schema.node_labels) ** 2
        single_label_at_most = [
            s for s in completed.at_most_statements()
            if len(s.body) == 1 and len(s.head) == 1
            and s.body <= example52_schema.node_labels and s.head <= example52_schema.node_labels
        ]
        assert len(single_label_at_most) <= bound


# --------------------------------------------------------------------------- #
# the Corollary E.7 marker reductions on a copied TBox: the oracle for the
# completion's entailment queries
# --------------------------------------------------------------------------- #
def _copy_entails_exists(tbox, body, role, head):
    """Corollary E.7 for ``K ⊑ ∃R.K'`` on a copied, re-indexed TBox."""
    extended = tbox.copy()
    extended.add(ForAllCI(frozenset(head), role.inverse(), conj("__entail_B2")))
    extended.add(SubclassOfBottom(conj("__entail_B", "__entail_B2")))
    pattern = Graph()
    pattern.add_node("u", frozenset(body) | {"__entail_B"})
    return not ChaseEngine(extended).check_pattern(pattern).consistent


def _copy_entails_at_most(tbox, body, role, head):
    """Corollary E.7 for ``K ⊑ ∃≤1R.K'`` on a copied, re-indexed TBox."""
    extended = tbox.copy()
    extended.add(SubclassOfBottom(conj("__entail_B", "__entail_B2")))
    pattern = Graph()
    pattern.add_node("u", frozenset(body))
    pattern.add_node("v1", frozenset(head) | {"__entail_B"})
    pattern.add_node("v2", frozenset(head) | {"__entail_B2"})
    for successor in ("v1", "v2"):
        if role.is_inverse:
            pattern.add_edge(successor, role.label, "u")
        else:
            pattern.add_edge("u", role.label, successor)
    return not ChaseEngine(extended).check_pattern(pattern).consistent


_COPY_REDUCTIONS = {"∃": _copy_entails_exists, "≤1": _copy_entails_at_most}


class _QueryRecorder:
    """Records every entailment query ``complete()`` issues, per round, and
    counts the chases run.

    Each round obtains one index (``TBoxIndex.of``) and builds one
    :class:`EntailmentChecker` on it; the recorder snapshots the TBox the
    index was obtained for, which is the TBox every query of that round is
    asked of.
    """

    def __init__(self, monkeypatch):
        self.rounds = []  # [(index, TBox snapshot, [(kind, body, role, head, answer)])]
        self.chases = 0
        recorder = self

        class SnapshotIndex(TBoxIndex):
            @classmethod
            def of(cls, tbox):
                index = TBoxIndex.of(tbox)
                recorder.rounds.append((index, tbox.copy(), []))
                return index

        class RecordingChecker(EntailmentChecker):
            def entails_exists(self, body, role, head):
                return recorder.record(self, "∃", body, role, head, super().entails_exists(body, role, head))

            def entails_at_most(self, body, role, head):
                return recorder.record(self, "≤1", body, role, head, super().entails_at_most(body, role, head))

        check_pattern = ChaseEngine.check_pattern

        def counting(engine, *args, **kwargs):
            recorder.chases += 1
            return check_pattern(engine, *args, **kwargs)

        monkeypatch.setattr(cycle_reversal, "TBoxIndex", SnapshotIndex)
        monkeypatch.setattr(cycle_reversal, "EntailmentChecker", RecordingChecker)
        monkeypatch.setattr(ChaseEngine, "check_pattern", counting)

    def record(self, checker, kind, body, role, head, answer):
        round_index, _, queries = self.rounds[-1]
        assert checker.engine.index is round_index
        queries.append((kind, body, role, head, answer))
        return answer

    def queries(self):
        return [query for _, _, queries in self.rounds for query in queries]


@pytest.fixture(scope="module")
def zoo_completions():
    """One cold pass over the zoo corpus: the TBox of every ``complete()``
    call in call order, and the recorder holding every query they asked."""
    completed = []

    def recording(*args, **kwargs):
        result = complete(*args, **kwargs)
        completed.append(result.tbox)
        return result

    with pytest.MonkeyPatch.context() as monkeypatch:
        recorder = _QueryRecorder(monkeypatch)
        monkeypatch.setattr(containment_solver, "complete", recording)
        engine = ContainmentEngine()
        try:
            for pairs in zoo_corpus(ZOO_SEED).values():
                for left, right, schema in pairs:
                    engine.contains(left, right, schema)
        finally:
            engine.close()
    return completed, recorder


_ZOO_COMPLETIONS = Path(__file__).parent / "data" / "zoo_completed_tboxes.json"

_HORN_CONCEPTS = ("A", "B", "C", "D", "E")
_HORN_ROLES = (forward("r"), inverse("r"), forward("s"), inverse("s"))


def _random_conj(rng, low, high):
    return frozenset(rng.sample(_HORN_CONCEPTS, rng.randint(low, high)))


def _random_horn_tbox(rng):
    """A small Horn TBox with every statement kind, over two roles and their
    inverses."""
    kinds = (
        (SubclassOf, 0, 5, lambda: (_random_conj(rng, 0, 2), rng.choice(_HORN_CONCEPTS))),
        (ExistsCI, 1, 4, lambda: (_random_conj(rng, 0, 2), rng.choice(_HORN_ROLES), _random_conj(rng, 0, 2))),
        (ForAllCI, 0, 4, lambda: (_random_conj(rng, 1, 2), rng.choice(_HORN_ROLES), _random_conj(rng, 1, 2))),
        (NoExistsCI, 0, 2, lambda: (_random_conj(rng, 1, 2), rng.choice(_HORN_ROLES), _random_conj(rng, 1, 2))),
        (AtMostOneCI, 0, 3, lambda: (_random_conj(rng, 0, 2), rng.choice(_HORN_ROLES), _random_conj(rng, 0, 1))),
        (SubclassOfBottom, 0, 1, lambda: (_random_conj(rng, 2, 3),)),
    )
    return TBox(
        [kind(*arguments()) for kind, low, high, arguments in kinds for _ in range(rng.randint(low, high))]
    )


def _cycle_with_fan():
    """The 2-cycle of ``next`` plus a required ``s``-edge into ``M`` with no
    bound on its inverse, so some ≤1 queries follow from a ≤1 statement and
    some need a chase."""
    schema = Schema(["L0", "L1", "M"], ["next", "s"], name="CycleWithFan")
    schema.set_edge("L0", "next", "L1", "1", "?")
    schema.set_edge("L1", "next", "L0", "1", "?")
    schema.set_edge("L0", "s", "M", "1", "*")
    return schema


class TestCompletionQueries:
    def test_overlay_answers_match_the_copy_based_reduction(self, zoo_completions):
        # every query the zoo corpus's completions ask, checked against the
        # Corollary E.7 marker reductions on that round's TBox
        _, recorder = zoo_completions
        answers = [answer for *_, answer in recorder.queries()]
        assert answers.count(True) >= 100 and answers.count(False) >= 1000
        assert {kind for kind, *_ in recorder.queries()} == {"∃", "≤1"}
        for _, tbox, queries in recorder.rounds:
            for kind, body, role, head, answer in queries:
                assert _COPY_REDUCTIONS[kind](tbox, body, role, head) == answer, (
                    kind, sorted(body), role, sorted(head)
                )

    def test_completed_tboxes_match_the_committed_fingerprints(self, zoo_completions):
        # the fixture was written by the marker-reduction completion
        completed, _ = zoo_completions
        expected = json.loads(_ZOO_COMPLETIONS.read_text())
        assert len(completed) == len(expected) == 126
        assert [tbox.canonical_fingerprint() for tbox in completed] == expected

    def test_index_memos_answer_as_a_fresh_scan_does(self, zoo_completions):
        # the zoo pass filled each completed TBox's index memos with the label
        # sets it asked about; every memoised answer must equal a scan of the
        # statements, and an extended index must start with empty memos
        completed, _ = zoo_completions
        assert [tbox.canonical_fingerprint() for tbox in completed] == json.loads(
            _ZOO_COMPLETIONS.read_text()
        )
        memoised = {"exists": 0, "at_most": 0, "bottom": 0, "cold": 0}
        for tbox in completed:
            index = TBoxIndex.of(tbox)
            fresh = TBoxIndex(tbox)
            for labels, answer in list(index._exists_cache.items()):
                assert answer == tuple(s for s in fresh.exists if s.body <= labels)
                assert index.required_successors(labels) is answer
                memoised["exists"] += 1
            for (labels, role), answer in list(index._at_most_cache.items()):
                scan = tuple(s for s in fresh.at_most if s.role == role and s.body <= labels)
                assert answer == scan == fresh.applicable_at_most(labels, role)
                memoised["at_most"] += 1
            for labels, answer in list(index._bottom_cache.items()):
                assert answer == any(s.body <= labels for s in fresh.bottoms)
                memoised["bottom"] += 1
            # and cold: the closed bodies of the ∃ and at-most statements
            for labels in {fresh.close(s.body) for s in (*fresh.exists, *fresh.at_most)}:
                assert fresh.required_successors(labels) == tuple(
                    s for s in fresh.exists if s.body <= labels
                )
                for role, bucket in fresh.at_most_by_role.items():
                    assert fresh.applicable_at_most(labels, role) == tuple(
                        s for s in bucket if s.body <= labels
                    )
                assert fresh.violates_bottom(labels) == any(s.body <= labels for s in fresh.bottoms)
                memoised["cold"] += 1
            extended = index.extended([])
            for memo in ("_closure_cache", "_forall_cache", "_exists_cache",
                         "_at_most_cache", "_bottom_cache"):
                assert getattr(extended, memo) == {}
        assert min(memoised.values()) >= 30, memoised

    def test_random_horn_tboxes_match_the_copy_based_reduction(self):
        # one checker per TBox asks every query, as complete() does per round
        rng = random.Random(22)
        answers = {(kind, answer): 0 for kind in _COPY_REDUCTIONS for answer in (True, False)}
        for _ in range(1000):
            tbox = _random_horn_tbox(rng)
            checker = EntailmentChecker(tbox)
            for _ in range(2):
                body, role, head = _random_conj(rng, 0, 2), rng.choice(_HORN_ROLES), _random_conj(rng, 0, 2)
                for kind, query in (("∃", checker.entails_exists), ("≤1", checker.entails_at_most)):
                    answer = query(body, role, head)
                    assert _COPY_REDUCTIONS[kind](tbox, body, role, head) == answer, (
                        kind, tbox.describe(), sorted(body), role, sorted(head)
                    )
                    answers[kind, answer] += 1
        assert min(answers.values()) >= 100, answers

    def test_positive_answers_are_not_asked_again(self, monkeypatch):
        recorder = _QueryRecorder(monkeypatch)
        schema = synthetic.cycle_schema(2)
        tbox = schema_to_extended_tbox(schema)
        result = complete(tbox, schema, config=CompletionConfig(max_candidates=12, max_rounds=3))
        assert result.rounds >= 2 and len(recorder.rounds) == result.rounds
        rounds = [queries for _, _, queries in recorder.rounds]
        for earlier, later in zip(rounds, rounds[1:]):
            positives = {query[:4] for query in earlier if query[4]}
            assert positives
            assert not positives & {query[:4] for query in later}
        # the carried answers still hold of every later round's TBox
        for k, (_, _, queries) in enumerate(recorder.rounds):
            for _, later_tbox, _ in recorder.rounds[k + 1:]:
                for kind, body, role, head, answer in queries:
                    if answer:
                        assert _COPY_REDUCTIONS[kind](later_tbox, body, role, head)

    def test_entailment_checks_count_only_queries_run(self):
        chased_at_most = []
        for schema in (synthetic.cycle_schema(2), _cycle_with_fan()):
            with pytest.MonkeyPatch.context() as monkeypatch:
                recorder = _QueryRecorder(monkeypatch)
                result = complete(schema_to_extended_tbox(schema), schema)
            assert result.entailment_checks == recorder.chases
            queries = recorder.queries()
            # one chase per (round, body) for the ∃ queries, and one per ≤1
            # query that no ≤1 statement of that round's TBox implies
            exists_bodies = sum(
                len({body for kind, body, *_ in round_queries if kind == "∃"})
                for _, _, round_queries in recorder.rounds
            )
            stated = [
                _stated_at_most(tbox, body, role, head)
                for _, tbox, round_queries in recorder.rounds
                for kind, body, role, head, _ in round_queries
                if kind == "≤1"
            ]
            assert recorder.chases == exists_bodies + stated.count(False)
            assert exists_bodies < sum(1 for kind, *_ in queries if kind == "∃")
            assert stated.count(True) >= 4
            chased_at_most.append(stated.count(False))
        # the cycle's ≤1 queries are all stated; the fan's need chases
        assert chased_at_most[0] == 0 and chased_at_most[1] >= 1

    def test_stated_at_most_shortcut_matches_the_chase_on_random_horn_tboxes(self):
        # the ≤1 queries of the E.7 oracle's random TBoxes, answered with and
        # without reading a ≤1 statement first
        rng = random.Random(22)
        shortcuts = {True: 0, False: 0}
        for _ in range(1000):
            tbox = _random_horn_tbox(rng)
            checker = EntailmentChecker(tbox)
            for _ in range(2):
                body, role, head = _random_conj(rng, 0, 2), rng.choice(_HORN_ROLES), _random_conj(rng, 0, 2)
                answer = checker.entails_at_most(body, role, head)
                assert answer == checker._chase_at_most(body, role, head)
                assert answer == _copy_entails_at_most(tbox, body, role, head), (
                    tbox.describe(), sorted(body), role, sorted(head)
                )
                shortcuts[_stated_at_most(tbox, body, role, head)] += 1
        assert min(shortcuts.values()) >= 100, shortcuts


def _stated_at_most(tbox, body, role, head):
    """``True`` when some ``A ⊑ ∃≤1R.B`` of *tbox* has ``A ⊆ body`` and
    ``B ⊆ head``, which implies ``body ⊑ ∃≤1R.head``."""
    return any(
        statement.role == role and statement.body <= body and statement.head <= head
        for statement in tbox.at_most_statements()
    )


class TestHornCheck:
    def _non_horn(self, schema):
        tbox = schema_to_extended_tbox(schema)
        tbox.add(label_coverage_statement(sorted(schema.node_labels)))
        return tbox

    def test_completion_rejects_a_non_horn_tbox(self):
        schema = synthetic.cycle_schema(2)
        assert schema_has_finmod_cycle(schema)
        with pytest.raises(SolverError):
            complete(self._non_horn(schema), schema)

    def test_entailment_rejects_a_non_horn_tbox(self):
        tbox = self._non_horn(synthetic.cycle_schema(2))
        with pytest.raises(SolverError):
            entails_exists(tbox, ["L0"], forward("next"), ["L1"])
        with pytest.raises(SolverError):
            entails_at_most(tbox, ["L0"], forward("next"), ["L1"])

    def test_entailment_accepts_a_prepared_index(self, medical_tbox):
        index = TBoxIndex(medical_tbox)
        assert entails_exists(index, ["Vaccine"], forward("designTarget"), ["Antigen"])
        assert entails_at_most(index, ["Vaccine"], forward("designTarget"), ["Antigen"])
        assert not entails_exists(index, ["Antigen"], forward("crossReacting"), ["Antigen"])
        # the queries leave the index unextended
        assert index.statistics() == TBoxIndex(medical_tbox).statistics()
