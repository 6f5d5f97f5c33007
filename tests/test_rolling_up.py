"""Tests for the rolling-up construction (Lemma C.2).

The key property under test: a finite graph (not using the fresh concept
names) satisfies T_¬Q — i.e. the chase accepts it as a pattern — iff it does
not satisfy Q.  The chase engine plays the role of the "exists a valuation of
the fresh concepts" check, because the fresh part of T_¬Q is Horn and its
minimal valuation is exactly what the chase computes.
"""

import pytest

from repro.chase import ChaseEngine
from repro.containment import roll_up
from repro.containment.rolling_up import roll_up_choices
from repro.exceptions import AcyclicityError, QueryError
from repro.graph import GraphBuilder
from repro.graph.generators import cycle_graph, path_graph
from repro.rpq import parse_uc2rpq, satisfies
from repro.workloads import medical


def graph_satisfies_tbox(graph, tbox):
    """Is there a valuation of the fresh concepts making the graph a model?"""
    return ChaseEngine(tbox).check_pattern(graph).consistent


def assert_rolling_up_correct(query_texts, graph):
    """T_¬Q is satisfied by the graph iff the graph does not satisfy Q."""
    union = parse_uc2rpq(query_texts).boolean()
    rolled = roll_up(union)
    assert graph_satisfies_tbox(graph, rolled.tbox) == (not satisfies(graph, union))


class TestConstruction:
    def test_requires_boolean_query(self):
        with pytest.raises(QueryError):
            roll_up(parse_uc2rpq(["q(x) := A(x)"]))

    def test_disconnected_disjunct_is_refused(self):
        # ¬(C1 ∧ C2) is no single Horn TBox; the union of the component
        # TBoxes would refute both components, an under-approximation
        with pytest.raises(QueryError, match="roll_up_choices"):
            roll_up(parse_uc2rpq(["q() := (r)(x, y), (s)(u, v)"]).boolean())

    def test_requires_acyclic_query(self):
        with pytest.raises(AcyclicityError):
            roll_up(parse_uc2rpq(["q() := (r)(x, x)"]))

    def test_polynomial_size(self):
        union = parse_uc2rpq(["q() := (a . b* . c)(x, y), A(z, y), (a-)(y, w)"]).boolean()
        rolled = roll_up(union)
        assert rolled.tbox.size() <= 30 * union.size()
        assert rolled.fresh_concepts

    def test_fresh_names_are_marked(self):
        rolled = roll_up(parse_uc2rpq(["q() := (a)(x, y)"]))
        assert all(name.startswith("Q") for name in rolled.fresh_concepts)

    def test_tbox_is_horn(self):
        rolled = roll_up(parse_uc2rpq(["q() := (a . b*)(x, y), B(y)"]))
        assert rolled.tbox.is_horn()


class TestSemantics:
    def test_example_c1_query(self):
        # Q0 = ∃x0..x3. (a·b*·c)(x2,x1) ∧ A(x3,x1) ∧ (a⁻)(x1,x0)
        texts = ["q() := (a . b* . c)(x2, x1), (A)(x3, x1), (a-)(x1, x0)"]
        match = (
            GraphBuilder()
            .node("n1", "A")
            .edge("n2", "a", "m").edge("m", "b", "m2").edge("m2", "c", "n1")
            .edge("n0", "a", "n1")
            .build()
        )
        no_match = (
            GraphBuilder()
            .node("n1", "A")
            .edge("n2", "a", "m").edge("m", "b", "m2").edge("m2", "c", "n1")
            .build()  # no incoming a-edge witness for x0
        )
        assert_rolling_up_correct(texts, match)
        assert_rolling_up_correct(texts, no_match)

    def test_single_edge_query(self):
        texts = ["q() := (r)(x, y)"]
        assert_rolling_up_correct(texts, GraphBuilder().edge("a", "r", "b").build())
        assert_rolling_up_correct(texts, GraphBuilder().edge("a", "s", "b").build())

    def test_star_query_on_paths(self):
        texts = ["q() := (r . r . r)(x, y)"]
        assert_rolling_up_correct(texts, path_graph(2, "A", "r"))
        assert_rolling_up_correct(texts, path_graph(3, "A", "r"))
        assert_rolling_up_correct(texts, cycle_graph(2, "A", "r"))

    def test_inverse_edges(self):
        texts = ["q() := (r- . s)(x, y)"]
        graph = GraphBuilder().edge("b", "r", "a").edge("b", "s", "c").build()
        assert satisfies(graph, parse_uc2rpq(texts))
        assert_rolling_up_correct(texts, graph)

    def test_label_atoms(self):
        texts = ["q() := Vaccine(x), (designTarget)(x, y), Antigen(y)"]
        assert_rolling_up_correct(texts, medical.sample_graph())
        assert_rolling_up_correct(texts, GraphBuilder().node("x", "Vaccine").build())

    def test_union_of_queries(self):
        texts = ["q() := (r)(x, y)", "q() := (s)(x, y)"]
        assert_rolling_up_correct(texts, GraphBuilder().edge("a", "s", "b").build())
        assert_rolling_up_correct(texts, GraphBuilder().edge("a", "t", "b").build())

    def test_disconnected_query_needs_choices(self):
        # ¬(C1 ∧ C2) is a disjunction: the graph must satisfy at least one of
        # the per-choice TBoxes, not their union (see roll_up_choices)
        texts = ["q() := (r)(x, y), (s)(u, v)"]
        union = parse_uc2rpq(texts).boolean()
        choices = roll_up_choices(union)
        assert len(choices) == 2
        both = GraphBuilder().edge("a", "r", "b").edge("c", "s", "d").build()
        only_one = GraphBuilder().edge("a", "r", "b").build()
        assert not any(graph_satisfies_tbox(both, choice.tbox) for choice in choices)
        assert any(graph_satisfies_tbox(only_one, choice.tbox) for choice in choices)

    def test_connected_disjuncts_have_single_choice(self):
        union = parse_uc2rpq(["q() := (r)(x, y)", "q() := (s . t)(x, y)"]).boolean()
        assert len(roll_up_choices(union)) == 1

    def test_medical_example_queries(self):
        graph = medical.sample_graph()
        texts = ["q() := (Vaccine . designTarget . crossReacting* . Antigen)(x, y)"]
        assert_rolling_up_correct(texts, graph)
        texts_neg = ["q() := (exhibits)(x, y), (crossReacting)(y, z), (crossReacting)(z, w)"]
        assert_rolling_up_correct(texts_neg, graph)

    def test_epsilon_equality_atom(self):
        texts = ["q() := (r)(x, y), (<eps>)(y, z), (s)(z, w)"]
        chained = GraphBuilder().edge("a", "r", "b").edge("b", "s", "c").build()
        broken = GraphBuilder().edge("a", "r", "b").edge("d", "s", "c").build()
        assert_rolling_up_correct(texts, chained)
        assert_rolling_up_correct(texts, broken)

    def test_empty_language_atom_never_matches(self):
        union = parse_uc2rpq(["q() := (<empty>)(x, y)"]).boolean()
        rolled = roll_up(union)
        # ¬Q holds unconditionally, so the TBox imposes nothing
        assert graph_satisfies_tbox(GraphBuilder().edge("a", "r", "b").build(), rolled.tbox)

    def test_random_medical_instances(self):
        texts = [
            "q() := (designTarget . crossReacting)(x, y)",
            "q() := (exhibits- . exhibits)(x, y), (crossReacting)(y, z)",
        ]
        for seed in range(4):
            assert_rolling_up_correct(texts, medical.random_instance(seed=seed))
