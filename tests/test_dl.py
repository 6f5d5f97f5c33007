"""Tests for the description-logic layer: concepts, TBoxes, the schema↔L0
correspondence (Prop. B.1/B.4) and finite model checking."""

import pytest

from repro.dl import (
    AtMostOneCI,
    DisjunctionCI,
    ExistsCI,
    ForAllCI,
    NoExistsCI,
    SubclassOf,
    SubclassOfBottom,
    TBox,
    conj,
    conformance_tbox,
    disjointness_statements,
    is_coherent_l0,
    is_l0_statement,
    label_coverage_statement,
    schema_from_l0,
    schema_to_extended_tbox,
    schema_to_l0,
)
from repro.exceptions import TBoxError
from repro.graph import GraphBuilder, forward, inverse
from repro.schema import Schema, conforms
from repro.workloads import medical


@pytest.fixture(scope="module")
def graph():
    return medical.sample_graph()


class TestConceptInclusions:
    def test_subclass_holds(self, graph):
        assert SubclassOf(conj("Vaccine"), "Vaccine").holds_in(graph)
        assert not SubclassOf(conj("Vaccine"), "Antigen").holds_in(graph)

    def test_bottom(self, graph):
        assert SubclassOfBottom(conj("Vaccine", "Antigen")).holds_in(graph)
        assert not SubclassOfBottom(conj("Vaccine")).holds_in(graph)

    def test_forall(self, graph):
        assert ForAllCI(conj("Vaccine"), forward("designTarget"), conj("Antigen")).holds_in(graph)
        assert not ForAllCI(conj("Pathogen"), forward("exhibits"), conj("Vaccine")).holds_in(graph)

    def test_exists_example_33(self, graph):
        # Pathogen ⊑ ∃exhibits.Antigen (Example 3.3)
        assert ExistsCI(conj("Pathogen"), forward("exhibits"), conj("Antigen")).holds_in(graph)
        assert not ExistsCI(conj("Antigen"), forward("crossReacting"), conj("Antigen")).holds_in(graph)

    def test_no_exists_example_33(self, graph):
        # Vaccine ⊑ ¬∃exhibits.Antigen (Example 3.3)
        assert NoExistsCI(conj("Vaccine"), forward("exhibits"), conj("Antigen")).holds_in(graph)
        assert not NoExistsCI(conj("Vaccine"), forward("designTarget"), conj("Antigen")).holds_in(graph)

    def test_at_most_one(self, graph):
        assert AtMostOneCI(conj("Vaccine"), forward("designTarget"), conj("Antigen")).holds_in(graph)
        assert not AtMostOneCI(conj("Pathogen"), forward("exhibits"), conj("Antigen")).holds_in(graph)

    def test_inverse_roles(self, graph):
        assert AtMostOneCI(conj("Antigen"), inverse("designTarget"), conj("Vaccine")).holds_in(graph)

    def test_disjunction(self, graph):
        assert DisjunctionCI(conj(), ("Vaccine", "Antigen", "Pathogen")).holds_in(graph)
        assert not DisjunctionCI(conj(), ("Vaccine",)).holds_in(graph)

    def test_empty_body_is_top(self):
        graph = GraphBuilder().node("x", "A").build()
        assert SubclassOf(conj(), "A").holds_in(graph)

    def test_statement_rendering(self):
        statement = ExistsCI(conj("Vaccine"), forward("targets"), conj("Antigen"))
        assert "Vaccine" in str(statement) and "∃" in str(statement)


class TestTBox:
    def test_deduplication(self):
        tbox = TBox()
        statement = SubclassOf(conj("A"), "B")
        assert tbox.add(statement)
        assert not tbox.add(statement)
        assert len(tbox) == 1

    def test_kind_iterators_and_counts(self, medical_source_schema):
        tbox = schema_to_l0(medical_source_schema)
        assert all(isinstance(s, (ExistsCI, NoExistsCI, AtMostOneCI)) for s in tbox)
        assert tbox.at_most_count() == sum(1 for _ in tbox.at_most_statements())
        assert tbox.is_horn()

    def test_union_and_copy(self):
        left = TBox([SubclassOf(conj("A"), "B")])
        right = TBox([SubclassOfBottom(conj("C"))])
        union = left.union(right)
        assert len(union) == 2
        assert len(left.copy()) == 1

    def test_copy_and_union_keep_order_and_membership(self):
        left = TBox(
            [SubclassOf(conj("A"), "B"), ForAllCI(conj("B"), forward("r"), conj("C"))]
        )
        right = TBox([SubclassOfBottom(conj("C")), SubclassOf(conj("A"), "B")])
        copied = left.copy(name="copy")
        assert copied.statements() == left.statements()
        assert copied.name == "copy"
        assert all(statement in copied for statement in left)
        union = left.union(right)
        assert union.statements() == (*left.statements(), SubclassOfBottom(conj("C")))
        assert all(statement in union for statement in (*left, *right))
        assert union.name == "T∪T"

    @pytest.mark.parametrize("make", [lambda tbox: tbox.copy(), lambda tbox: tbox.union(TBox())])
    def test_adding_to_a_copy_leaves_the_original_alone(self, make):
        original = TBox([SubclassOf(conj("A"), "B")])
        before = original.statements()
        extra = SubclassOfBottom(conj("B"))
        derived = make(original)
        assert derived.add(extra)
        assert extra in derived
        assert original.statements() == before
        assert extra not in original
        # and the other way round
        assert original.add(SubclassOf(conj("C"), "D"))
        assert SubclassOf(conj("C"), "D") not in derived

    def test_simplifying_a_copy_leaves_the_original_alone(self, medical_source_schema):
        from repro.containment import simplify_s_driven

        composite = AtMostOneCI(
            conj("Vaccine", "Extra"), forward("designTarget"), conj("Antigen", "More")
        )
        original = TBox(
            [AtMostOneCI(conj("Vaccine"), forward("designTarget"), conj("Antigen")), composite]
        )
        before = original.statements()
        copied = simplify_s_driven(original.copy(), medical_source_schema)
        assert composite not in copied
        assert original.statements() == before
        assert composite in original

    def test_concept_and_role_names(self):
        tbox = TBox([ForAllCI(conj("A"), forward("r"), conj("B"))])
        assert tbox.concept_names() == {"A", "B"}
        assert tbox.role_names() == {"r"}

    def test_holds_in_and_violations(self, graph, medical_source_schema):
        tbox = schema_to_l0(medical_source_schema)
        assert tbox.holds_in(graph)
        bad = GraphBuilder().node("v", "Vaccine").build()
        assert not tbox.holds_in(bad)
        assert tbox.violated_statements(bad)

    def test_rejects_non_statement(self):
        with pytest.raises(TBoxError):
            TBox(["not a statement"])


class TestSchemaTBoxCorrespondence:
    def test_example_33_statements_present(self, medical_source_schema):
        tbox = schema_to_l0(medical_source_schema)
        assert ExistsCI(conj("Pathogen"), forward("exhibits"), conj("Antigen")) in tbox
        assert NoExistsCI(conj("Vaccine"), forward("exhibits"), conj("Antigen")) in tbox
        assert AtMostOneCI(conj("Vaccine"), forward("designTarget"), conj("Antigen")) in tbox

    def test_star_constraint_needs_no_statement(self, medical_source_schema):
        tbox = schema_to_l0(medical_source_schema)
        assert ExistsCI(conj("Antigen"), forward("crossReacting"), conj("Antigen")) not in tbox
        assert AtMostOneCI(conj("Antigen"), forward("crossReacting"), conj("Antigen")) not in tbox

    def test_l0_statement_recognition(self):
        assert is_l0_statement(ExistsCI(conj("A"), forward("r"), conj("B")))
        assert not is_l0_statement(ExistsCI(conj("A", "B"), forward("r"), conj("B")))
        assert not is_l0_statement(SubclassOf(conj("A"), "B"))

    def test_coherence(self, medical_source_schema):
        assert is_coherent_l0(schema_to_l0(medical_source_schema))
        incoherent = [
            ExistsCI(conj("A"), forward("r"), conj("B")),
            NoExistsCI(conj("A"), forward("r"), conj("B")),
        ]
        assert not is_coherent_l0(incoherent)

    def test_round_trip_schema_l0_schema(self, medical_source_schema):
        tbox = schema_to_l0(medical_source_schema)
        rebuilt = schema_from_l0(
            tbox, medical_source_schema.node_labels, medical_source_schema.edge_labels
        )
        assert rebuilt == medical_source_schema

    def test_round_trip_for_all_multiplicities(self):
        schema = Schema(["A", "B"], ["r", "s"], name="M")
        schema.set_edge("A", "r", "B", "1", "?")
        schema.set_edge("A", "s", "B", "+", "*")
        rebuilt = schema_from_l0(schema_to_l0(schema), schema.node_labels, schema.edge_labels)
        assert rebuilt == schema

    def test_schema_from_incoherent_l0_rejected(self):
        with pytest.raises(TBoxError):
            schema_from_l0(
                [
                    ExistsCI(conj("A"), forward("r"), conj("A")),
                    NoExistsCI(conj("A"), forward("r"), conj("A")),
                ],
                ["A"],
                ["r"],
            )

    def test_extended_tbox_adds_disjointness(self, medical_source_schema):
        extended = schema_to_extended_tbox(medical_source_schema)
        assert SubclassOfBottom(conj("Antigen", "Vaccine")) in extended
        assert len(list(disjointness_statements(["A", "B", "C"]))) == 3

    def test_label_coverage_statement(self):
        statement = label_coverage_statement(["A", "B"])
        assert set(statement.alternatives) == {"A", "B"}


class TestPropositionB1:
    """Conformance and the DL characterisation agree (Proposition B.1)."""

    def test_conforming_graph_satisfies_all(self, graph, medical_source_schema):
        assert conformance_tbox(medical_source_schema).holds_in(graph)
        assert conforms(graph, medical_source_schema)

    def test_violating_graph_fails_both(self, medical_source_schema):
        bad = GraphBuilder().node("v", "Vaccine").build()  # missing design target
        assert not conformance_tbox(medical_source_schema).holds_in(bad)
        assert not conforms(bad, medical_source_schema)

    def test_unlabeled_node_fails_both(self, medical_source_schema):
        bad = GraphBuilder().node("x").build()
        assert not conformance_tbox(medical_source_schema).holds_in(bad)
        assert not conforms(bad, medical_source_schema)

    def test_agreement_on_random_instances(self, medical_source_schema):
        for seed in range(5):
            instance = medical.random_instance(seed=seed)
            assert conforms(instance, medical_source_schema)
            assert conformance_tbox(medical_source_schema).holds_in(instance)
