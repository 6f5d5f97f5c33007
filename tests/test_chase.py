"""Tests for the Horn-ALCIF chase: label sets, tree-extendability, pattern
consistency (the engine room of the satisfiability procedure)."""

import random

import pytest

from repro.chase import ChaseEngine, TBoxIndex, TreeChecker
from repro.dl import (
    AtMostOneCI,
    ExistsCI,
    ForAllCI,
    NoExistsCI,
    SubclassOf,
    SubclassOfBottom,
    TBox,
    conj,
    schema_to_extended_tbox,
)
from repro.exceptions import SolverError
from repro.chase.engine import WorkingPattern, _roles_on_edges
from repro.graph import Graph, GraphBuilder, forward, inverse
from repro.workloads import medical


@pytest.fixture(scope="module")
def medical_tbox():
    return schema_to_extended_tbox(medical.source_schema())


class TestTBoxIndex:
    def test_closure_under_subclass(self):
        index = TBoxIndex(TBox([SubclassOf(conj("A"), "B"), SubclassOf(conj("B"), "C")]))
        assert index.close({"A"}) == {"A", "B", "C"}
        assert index.close({"C"}) == {"C"}

    def test_closure_with_conjunctive_body(self):
        index = TBoxIndex(TBox([SubclassOf(conj("A", "B"), "C")]))
        assert "C" not in index.close({"A"})
        assert "C" in index.close({"A", "B"})

    def test_bottom_detection(self):
        index = TBoxIndex(TBox([SubclassOfBottom(conj("A", "B"))]))
        assert index.violates_bottom(frozenset({"A", "B", "C"}))
        assert not index.violates_bottom(frozenset({"A"}))

    def test_forall_targets(self):
        index = TBoxIndex(TBox([ForAllCI(conj("A"), forward("r"), conj("B", "C"))]))
        assert index.forall_targets(frozenset({"A"}), forward("r")) == {"B", "C"}
        assert index.forall_targets(frozenset({"X"}), forward("r")) == frozenset()

    def test_child_seed_includes_forall(self):
        tbox = TBox(
            [
                ExistsCI(conj("A"), forward("r"), conj("B")),
                ForAllCI(conj("A"), forward("r"), conj("C")),
                SubclassOf(conj("B"), "D"),
            ]
        )
        index = TBoxIndex(tbox)
        assert index.child_seed(frozenset({"A"}), forward("r"), conj("B")) == {"B", "C", "D"}

    def test_statistics(self, medical_tbox):
        stats = TBoxIndex(medical_tbox).statistics()
        assert stats["exists"] > 0 and stats["no_exists"] > 0 and stats["bottom"] > 0

    def test_requires_horn_tbox(self):
        from repro.dl import label_coverage_statement

        with pytest.raises(SolverError):
            TBoxIndex(TBox([label_coverage_statement(["A", "B"])]))
        mixed = TBox(
            [
                SubclassOf(conj("A"), "B"),
                label_coverage_statement(["A", "B"]),
                ExistsCI(conj("A"), forward("r"), conj("B")),
            ]
        )
        with pytest.raises(SolverError):
            TBoxIndex(mixed)

    def test_buckets_keep_statement_order_per_kind(self, medical_tbox):
        tbox = TBox(
            [
                ForAllCI(conj("Vaccine"), forward("designTarget"), conj("Marker")),
                *medical_tbox,
                SubclassOf(conj("Vaccine"), "Marker"),
                ForAllCI(conj("Antigen"), inverse("designTarget"), conj("Marker")),
                SubclassOf(conj("Antigen", "Marker"), "Other"),
            ]
        )
        index = TBoxIndex(tbox)
        assert all(index.statistics().values())
        assert index.subclass == list(tbox.subclass_statements())
        assert index.bottoms == list(tbox.bottom_statements())
        assert index.forall == list(tbox.forall_statements())
        assert index.exists == list(tbox.exists_statements())
        assert index.no_exists == list(tbox.no_exists_statements())
        assert index.at_most == list(tbox.at_most_statements())
        for statements, by_role in (
            (index.forall, index.forall_by_role),
            (index.exists, index.exists_by_role),
            (index.no_exists, index.no_exists_by_role),
            (index.at_most, index.at_most_by_role),
        ):
            grouped = {}
            for statement in statements:
                grouped.setdefault(statement.role, []).append(statement)
            assert by_role == grouped


class TestTreeChecker:
    def test_simple_existential_chain_is_extendable(self):
        tbox = TBox([ExistsCI(conj("A"), forward("r"), conj("A"))])
        checker = TreeChecker(TBoxIndex(tbox))
        assert checker.check(conj("A")).ok

    def test_unsatisfiable_requirement_fails(self):
        tbox = TBox(
            [
                ExistsCI(conj("A"), forward("r"), conj("B")),
                SubclassOfBottom(conj("B")),
            ]
        )
        checker = TreeChecker(TBoxIndex(tbox))
        assert not checker.check(conj("A")).ok

    def test_requirement_blocked_and_pushed_to_parent(self):
        # the child must have an r⁻-successor in B, the parent is the only
        # candidate because of the at-most constraint, so B is pushed upwards
        tbox = TBox(
            [
                ExistsCI(conj("A"), forward("r"), conj("C")),
                ExistsCI(conj("C"), inverse("r"), conj("B")),
                AtMostOneCI(conj("C"), inverse("r"), conj()),
            ]
        )
        checker = TreeChecker(TBoxIndex(tbox))
        outcome = checker.check(conj("C"), parent_role=inverse("r"), parent_labels=conj("A"))
        assert outcome.ok
        assert "B" in outcome.parent_needs

    def test_infinite_alternating_chain_allowed_coinductively(self):
        # A needs a B-successor, B needs an A-successor, A and B are disjoint:
        # only infinite chains work, which unrestricted satisfiability permits
        tbox = TBox(
            [
                ExistsCI(conj("A"), forward("r"), conj("B")),
                ExistsCI(conj("B"), forward("r"), conj("A")),
                SubclassOfBottom(conj("A", "B")),
                AtMostOneCI(conj("A"), forward("r"), conj()),
                AtMostOneCI(conj("B"), forward("r"), conj()),
            ]
        )
        checker = TreeChecker(TBoxIndex(tbox))
        assert checker.check(conj("A")).ok

    def test_no_a_predecessor_of_a_makes_a_unsatisfiable(self):
        # every A needs an A-successor via r, but no A may have an incoming
        # r-edge from an A: the requirement can never be witnessed
        tbox = TBox(
            [
                ExistsCI(conj("A"), forward("r"), conj("A")),
                NoExistsCI(conj("A"), inverse("r"), conj("A")),
            ]
        )
        checker = TreeChecker(TBoxIndex(tbox))
        assert not checker.check(conj("A")).ok

    def test_fewer_than_two_seeds_come_back_closed(self):
        tbox = TBox(
            [
                SubclassOf(conj("B"), "C"),
                AtMostOneCI(conj("A"), forward("r"), conj("B")),
            ]
        )
        checker = TreeChecker(TBoxIndex(tbox))
        assert checker._merge_functional_seeds(conj("A"), forward("r"), []) == []
        assert checker._merge_functional_seeds(conj("A"), forward("r"), [conj("B")]) == [
            frozenset({"B", "C"})
        ]
        # two matching seeds still merge
        assert checker._merge_functional_seeds(
            conj("A"), forward("r"), [conj("B"), conj("B", "D")]
        ) == [frozenset({"B", "C", "D"})]

    def test_fresh_children_merge_per_role_in_role_order(self):
        tbox = TBox(
            [
                ForAllCI(conj("A"), forward("s"), conj("D")),
                AtMostOneCI(conj("A"), forward("r"), conj()),
            ]
        )
        checker = TreeChecker(TBoxIndex(tbox))
        requirements = [
            ExistsCI(conj("A"), forward("s"), conj("C")),
            ExistsCI(conj("A"), forward("r"), conj("B")),
            ExistsCI(conj("A"), forward("r"), conj("C")),
        ]
        assert list(checker.fresh_children(conj("A"), requirements)) == [
            (forward("r"), [frozenset({"B", "C"})]),
            (forward("s"), [frozenset({"C", "D"})]),
        ]
        assert list(checker.fresh_children(conj("A"), [])) == []

    def test_outcome_reports_the_final_labels(self):
        # the C-child is blocked from a fresh B-neighbour and pushes B back
        tbox = TBox(
            [
                ExistsCI(conj("A"), forward("r"), conj("C")),
                ExistsCI(conj("C"), inverse("r"), conj("B")),
                AtMostOneCI(conj("C"), inverse("r"), conj()),
            ]
        )
        checker = TreeChecker(TBoxIndex(tbox))
        assert checker.check(conj("A")).labels == {"A", "B"}
        child = checker.check(conj("C"), parent_role=inverse("r"), parent_labels=conj("A"))
        assert child.labels == {"C"} and child.parent_needs == {"B"}
        assert not TreeChecker(TBoxIndex(TBox([SubclassOfBottom(conj("A"))]))).check(conj("A")).labels

    def test_cache_grows(self):
        tbox = TBox([ExistsCI(conj("A"), forward("r"), conj("A"))])
        checker = TreeChecker(TBoxIndex(tbox))
        checker.check(conj("A"))
        assert checker.cache_size() >= 1


class TestChaseEngine:
    def test_requires_horn_tbox(self, medical_source_schema):
        from repro.dl import label_coverage_statement

        tbox = TBox([label_coverage_statement(["A", "B"])])
        with pytest.raises(SolverError):
            ChaseEngine(tbox)

    def test_accepts_a_prepared_index(self):
        tbox = TBox([SubclassOfBottom(conj("A", "B"))])
        index = TBoxIndex(tbox)
        first, second = ChaseEngine(index), ChaseEngine(index)
        assert first.index is index and second.index is index
        assert first.tree is not second.tree
        pattern = GraphBuilder().node("x", "A", "B").build()
        assert not first.check_pattern(pattern).consistent

    def test_saturation_propagates_labels(self):
        tbox = TBox(
            [
                SubclassOf(conj("A"), "B"),
                ForAllCI(conj("B"), forward("r"), conj("C")),
            ]
        )
        pattern = GraphBuilder().node("x", "A").node("y").edge("x", "r", "y").build()
        result = ChaseEngine(tbox).check_pattern(pattern)
        assert result.consistent
        assert result.pattern.has_label("y", "C")

    def test_role_filter_keeps_inverse_roles_of_present_edges(self):
        # only r-edges exist: ∀r⁻ and ¬∃r⁻ act through them, ∀s has no successor
        tbox = TBox(
            [
                ForAllCI(conj("B"), inverse("r"), conj("C")),
                ForAllCI(conj("A"), forward("s"), conj("D")),
                NoExistsCI(conj("B"), inverse("r"), conj("E")),
            ]
        )
        pattern = GraphBuilder().node("x", "A").node("y", "B").edge("x", "r", "y").build()
        result = ChaseEngine(tbox).check_pattern(pattern)
        assert result.consistent
        assert result.pattern.labels("x") == {"A", "C"}
        assert result.pattern.labels("y") == {"B"}
        clash = GraphBuilder().node("x", "E").node("y", "B").edge("x", "r", "y").build()
        assert not ChaseEngine(tbox).check_pattern(clash).consistent

    def test_bottom_violation_detected(self):
        tbox = TBox([SubclassOfBottom(conj("A", "B"))])
        pattern = GraphBuilder().node("x", "A", "B").build()
        result = ChaseEngine(tbox).check_pattern(pattern)
        assert not result.consistent
        assert "⊥" in result.reason or "bottom" in result.reason.lower()

    def test_no_exists_violation_detected(self):
        tbox = TBox([NoExistsCI(conj("A"), forward("r"), conj("B"))])
        pattern = GraphBuilder().node("x", "A").node("y", "B").edge("x", "r", "y").build()
        assert not ChaseEngine(tbox).check_pattern(pattern).consistent

    def test_functionality_merges_successors(self):
        tbox = TBox([AtMostOneCI(conj("A"), forward("r"), conj("B"))])
        pattern = (
            GraphBuilder()
            .node("x", "A").node("y1", "B").node("y2", "B")
            .edge("x", "r", "y1").edge("x", "r", "y2")
            .build()
        )
        result = ChaseEngine(tbox).check_pattern(pattern, {"y1": "y1", "y2": "y2"})
        assert result.consistent
        assert result.merges == 1
        assert result.assignment["y1"] == result.assignment["y2"]

    def test_functionality_merge_can_reveal_contradiction(self):
        tbox = TBox(
            [
                AtMostOneCI(conj("A"), forward("r"), conj()),
                SubclassOfBottom(conj("B", "C")),
            ]
        )
        pattern = (
            GraphBuilder()
            .node("x", "A").node("y1", "B").node("y2", "C")
            .edge("x", "r", "y1").edge("x", "r", "y2")
            .build()
        )
        assert not ChaseEngine(tbox).check_pattern(pattern).consistent

    def test_forced_reuse_propagates_labels(self):
        # x needs an r-successor in C; it already has the only allowed
        # r-successor y, so y must absorb C
        tbox = TBox(
            [
                ExistsCI(conj("A"), forward("r"), conj("C")),
                AtMostOneCI(conj("A"), forward("r"), conj()),
            ]
        )
        pattern = GraphBuilder().node("x", "A").node("y", "B").edge("x", "r", "y").build()
        result = ChaseEngine(tbox).check_pattern(pattern)
        assert result.consistent
        assert result.pattern.has_label("y", "C")

    def test_unwitnessable_requirement_fails(self):
        tbox = TBox(
            [
                ExistsCI(conj("A"), forward("r"), conj("B")),
                NoExistsCI(conj("A"), forward("r"), conj("B")),
            ]
        )
        pattern = GraphBuilder().node("x", "A").build()
        assert not ChaseEngine(tbox).check_pattern(pattern).consistent

    def test_medical_schema_pattern(self, medical_tbox):
        engine = ChaseEngine(medical_tbox)
        vaccine = GraphBuilder().node("v", "Vaccine").build()
        assert engine.check_pattern(vaccine).consistent
        # a node that is both Vaccine and Antigen contradicts disjointness
        assert not engine.label_set_is_satisfiable(conj("Vaccine", "Antigen"))

    def test_label_set_satisfiability(self, medical_tbox):
        engine = ChaseEngine(medical_tbox)
        assert engine.label_set_is_satisfiable(conj("Pathogen"))
        assert engine.label_set_is_satisfiable(conj("Antigen"))

    def test_example_55_cycle_reversal_argument(self):
        """The hand-derived contradiction of Example 5.5: after reversal, an
        r-self-loop is impossible in any (even infinite) model."""
        A, Br, Brs = "A", "B_r", "B_rs"
        tbox = TBox(
            [
                # T_S
                SubclassOf(conj(), A),
                ExistsCI(conj(A), forward("s"), conj(A)),
                AtMostOneCI(conj(A), inverse("s"), conj(A)),
                # T_¬Q (rolled-up q = ∃x,y.(r·s⁺·r)(x,y))
                ForAllCI(conj(), forward("r"), conj(Br)),
                ForAllCI(conj(Br), forward("s"), conj(Brs)),
                ForAllCI(conj(Brs), forward("s"), conj(Brs)),
                NoExistsCI(conj(Brs), forward("r"), conj()),
                # the reversal of the finmod cycle A⊓B_rs, s, A⊓B_rs
                ExistsCI(conj(A, Brs), inverse("s"), conj(A, Brs)),
                AtMostOneCI(conj(A, Brs), forward("s"), conj(A, Brs)),
            ]
        )
        loop = GraphBuilder().node("u").edge("u", "r", "u").build()
        assert not ChaseEngine(tbox).check_pattern(loop).consistent
        # without the reversal statements the loop is satisfiable in an
        # infinite model (this is exactly Example 5.2/5.3)
        without = TBox([s for s in tbox if s not in (
            ExistsCI(conj(A, Brs), inverse("s"), conj(A, Brs)),
            AtMostOneCI(conj(A, Brs), forward("s"), conj(A, Brs)),
        )])
        assert ChaseEngine(without).check_pattern(loop).consistent


# --------------------------------------------------------------------------- #
# the worklist saturation against the full-sweep saturation it replaced
# --------------------------------------------------------------------------- #
def sweep_saturate(index, graph):
    """The earlier saturation: re-sweep every node until nothing changes.
    Kept here only as the reference for ``ChaseEngine._saturate``."""
    forall_roles = _roles_on_edges(index.forall_by_role, graph)
    no_exists_roles = _roles_on_edges(index.no_exists_by_role, graph)
    changed = True
    while changed:
        changed = False
        for node in list(graph.nodes()):
            closed = index.close(graph.labels(node))
            for label in closed - graph.labels(node):
                graph.add_label(node, label)
                changed = True
            if index.violates_bottom(closed):
                return f"node {node!r} violates a ⊥-statement"
        for node in list(graph.nodes()):
            labels = graph.labels(node)
            for role in forall_roles:
                successors = graph.successors(node, role)
                if not successors:
                    continue
                forced = index.forall_targets(labels, role)
                for successor in successors:
                    missing = forced - graph.labels(successor)
                    if missing:
                        for label in missing:
                            graph.add_label(successor, label)
                        changed = True
    for node in graph.nodes():
        labels = graph.labels(node)
        for role in no_exists_roles:
            for successor in graph.successors(node, role):
                conflict = index.no_exists_conflicts(labels, role, graph.labels(successor))
                if conflict is not None:
                    return f"edge {node!r} -{role}-> {successor!r} violates {conflict}"
    return None


CONCEPTS = ("A", "B", "C", "D", "E", "F")
ROLES = (forward("r"), inverse("r"), forward("s"), inverse("s"))


def _random_conj(rng, low=0, high=2):
    return frozenset(rng.sample(CONCEPTS, rng.randint(low, high)))


def random_horn_tbox(rng):
    statements = []
    for _ in range(rng.randint(0, 8)):
        statements.append(SubclassOf(_random_conj(rng), rng.choice(CONCEPTS)))
    for _ in range(rng.randint(0, 8)):
        statements.append(ForAllCI(_random_conj(rng), rng.choice(ROLES), _random_conj(rng, 1)))
    for _ in range(rng.randint(0, 2)):
        statements.append(SubclassOfBottom(_random_conj(rng, 2, 3)))
    for _ in range(rng.randint(0, 2)):
        statements.append(NoExistsCI(_random_conj(rng, 1), rng.choice(ROLES), _random_conj(rng, 1)))
    return TBox(statements)


def random_requirement_tbox(rng):
    """:func:`random_horn_tbox` plus ∃ and at-most statements."""
    statements = list(random_horn_tbox(rng))
    for _ in range(rng.randint(1, 4)):
        statements.append(ExistsCI(_random_conj(rng), rng.choice(ROLES), _random_conj(rng)))
    for _ in range(rng.randint(0, 3)):
        statements.append(AtMostOneCI(_random_conj(rng), rng.choice(ROLES), _random_conj(rng, 0, 1)))
    return TBox(statements)


def random_pattern(rng):
    graph = Graph()
    nodes = [f"n{i}" for i in range(rng.randint(1, 8))]
    for node in nodes:
        graph.add_node(node, _random_conj(rng, 0, 1))
    for _ in range(rng.randint(0, 2 * len(nodes))):
        graph.add_edge(rng.choice(nodes), rng.choice("rs"), rng.choice(nodes))
    return graph


def test_worklist_saturation_matches_the_full_sweep():
    rng = random.Random(20)
    outcomes = {"saturated": 0, "bottom": 0, "no-exists": 0}
    for _ in range(1500):
        tbox = random_horn_tbox(rng)
        pattern = random_pattern(rng)
        working, sweep = WorkingPattern(pattern), pattern.copy()
        verdict = ChaseEngine(tbox)._saturate(working, {})
        worklist = working.to_graph()
        reference = sweep_saturate(TBoxIndex(tbox), sweep)
        assert (verdict is None) == (reference is None), (tbox.describe(), verdict, reference)
        if verdict is not None and "⊥" in verdict:
            # which node reports ⊥ first may differ; that ⊥ is reached may not
            assert "⊥" in reference
            outcomes["bottom"] += 1
            continue
        # no ⊥: both reached the same least fixpoint and read ¬∃ off it
        assert verdict == reference
        for node in pattern.nodes():
            assert worklist.labels(node) == sweep.labels(node)
        outcomes["saturated" if verdict is None else "no-exists"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_tree_outcomes_do_not_depend_on_the_order_of_checks():
    # an outcome computed under a coinductive assumption must not be
    # memoised before the assumption is confirmed: a checker that answered
    # other contexts first gives the same outcome as a fresh one
    rng = random.Random(22)
    outcomes = {True: 0, False: 0}
    for _ in range(200):
        index = TBoxIndex(random_requirement_tbox(rng))
        contexts = [
            (_random_conj(rng), rng.choice(ROLES), index.close(_random_conj(rng)))
            for _ in range(10)
        ]
        contexts.append((_random_conj(rng), None, None))
        shared = TreeChecker(index)
        for labels, role, parent_labels in contexts:
            outcome = shared.check(labels, role, parent_labels)
            assert outcome == TreeChecker(index).check(labels, role, parent_labels), (
                index.statistics(), sorted(labels), role, parent_labels
            )
            outcomes[outcome.ok] += 1
    assert min(outcomes.values()) >= 200, outcomes


# --------------------------------------------------------------------------- #
# the working pattern's merge against Graph.merge_nodes
# --------------------------------------------------------------------------- #
def _assert_merge_matches_graph(graph, merges):
    working, expected = WorkingPattern(graph), graph.copy()
    for keep, drop in merges:
        working.merge(keep, drop)
        expected.merge_nodes(keep, drop)
    exported = working.to_graph()
    assert exported == expected
    assert list(exported.nodes()) == list(expected.nodes())
    # both directions of every edge stay filed
    for node, by_role in working.adjacency.items():
        for role, successors in by_role.items():
            assert successors
            for successor in successors:
                assert node in working.adjacency[successor][role.inverse()]
    assert working.edge_labels() == exported.edge_labels()


def test_merge_rewires_self_loops_inverse_edges_and_edges_between_the_pair():
    graph = (
        GraphBuilder()
        .node("k", "A").node("d", "B").node("u", "C").node("v")
        .edge("d", "r", "d")  # self-loop on the dropped node
        .edge("k", "r", "d").edge("d", "s", "k")  # edges between the pair
        .edge("u", "r", "d").edge("d", "r", "v")  # d as successor and predecessor
        .edge("k", "s", "k").edge("v", "s", "k")
        .build()
    )
    _assert_merge_matches_graph(graph, [("k", "d")])
    merged = WorkingPattern(graph)
    merged.merge("k", "d")
    assert merged.labels["k"] == {"A", "B"} and "d" not in merged.labels
    assert merged.adjacency["k"][forward("r")] == {"k", "v"}
    assert merged.adjacency["k"][inverse("r")] == {"k", "u"}
    assert merged.adjacency["k"][forward("s")] == {"k"}
    assert merged.adjacency["k"][inverse("s")] == {"k", "v"}


def test_seeded_merges_export_what_graph_merge_nodes_gives():
    rng = random.Random(25)
    for _ in range(400):
        graph = random_pattern(rng)
        nodes = list(graph.nodes())
        merges = []
        while len(nodes) > 1 and len(merges) < 3:
            keep, drop = rng.sample(nodes, 2)
            merges.append((keep, drop))
            nodes.remove(drop)
        _assert_merge_matches_graph(graph, merges)


def test_a_consistent_chase_exports_the_merged_pattern():
    tbox = TBox([AtMostOneCI(conj("A"), forward("r"), conj())])
    pattern = (
        GraphBuilder()
        .node("x", "A").node("y1").node("y2")
        .edge("x", "r", "y1").edge("x", "r", "y2").edge("y2", "s", "y1").edge("y2", "r", "x")
        .build()
    )
    result = ChaseEngine(tbox).check_pattern(pattern)
    expected = pattern.copy()
    expected.merge_nodes("y1", "y2")
    assert result.consistent and result.merges == 1
    assert result.pattern == expected
    assert pattern.has_node("y2")  # the input is never touched
