"""Tests for schemas, multiplicities and conformance (Section 3)."""

import pytest

from repro.exceptions import SchemaError
from repro.graph import GraphBuilder
from repro.schema import Multiplicity, Schema, check_conformance, conforms
from repro.dl import conforms_via_tbox


class TestMultiplicity:
    def test_parse_all_symbols(self):
        assert Multiplicity.parse("?") is Multiplicity.OPTIONAL
        assert Multiplicity.parse("1") is Multiplicity.ONE
        assert Multiplicity.parse("+") is Multiplicity.PLUS
        assert Multiplicity.parse("*") is Multiplicity.STAR
        assert Multiplicity.parse("0") is Multiplicity.ZERO

    def test_parse_rejects_unknown(self):
        with pytest.raises(SchemaError):
            Multiplicity.parse("2")

    @pytest.mark.parametrize(
        "multiplicity,allowed,forbidden",
        [
            (Multiplicity.ZERO, [0], [1, 2]),
            (Multiplicity.ONE, [1], [0, 2]),
            (Multiplicity.OPTIONAL, [0, 1], [2]),
            (Multiplicity.PLUS, [1, 5], [0]),
            (Multiplicity.STAR, [0, 1, 7], []),
        ],
    )
    def test_allows(self, multiplicity, allowed, forbidden):
        for count in allowed:
            assert multiplicity.allows(count)
        for count in forbidden:
            assert not multiplicity.allows(count)

    def test_at_least_and_at_most_flags(self):
        assert Multiplicity.ONE.requires_at_least_one and Multiplicity.PLUS.requires_at_least_one
        assert Multiplicity.ONE.requires_at_most_one and Multiplicity.OPTIONAL.requires_at_most_one
        assert not Multiplicity.STAR.requires_at_least_one
        assert not Multiplicity.STAR.requires_at_most_one

    def test_containment_order(self):
        assert Multiplicity.ONE.is_at_most(Multiplicity.PLUS)
        assert Multiplicity.ONE.is_at_most(Multiplicity.OPTIONAL)
        assert Multiplicity.OPTIONAL.is_at_most(Multiplicity.STAR)
        assert Multiplicity.PLUS.is_at_most(Multiplicity.STAR)
        assert not Multiplicity.OPTIONAL.is_at_most(Multiplicity.PLUS)
        assert not Multiplicity.STAR.is_at_most(Multiplicity.PLUS)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Multiplicity.STAR.allows(-1)


class TestSchema:
    def test_declared_and_implicit_constraints(self, medical_source_schema):
        schema = medical_source_schema
        assert str(schema.multiplicity("Vaccine", "designTarget", "Antigen")) == "1"
        assert str(schema.multiplicity("Antigen", "designTarget-", "Vaccine")) == "*"
        # not mentioned -> implicitly forbidden (Example 3.1)
        assert schema.multiplicity("Vaccine", "exhibits", "Pathogen") is Multiplicity.ZERO

    def test_unknown_labels_rejected(self, medical_source_schema):
        with pytest.raises(SchemaError):
            medical_source_schema.multiplicity("Nope", "designTarget", "Antigen")
        with pytest.raises(SchemaError):
            medical_source_schema.multiplicity("Vaccine", "unknownEdge", "Antigen")

    def test_set_edge_declares_both_directions(self):
        schema = Schema(["A", "B"], ["r"])
        schema.set_edge("A", "r", "B", "1", "+")
        assert schema.multiplicity("A", "r", "B") is Multiplicity.ONE
        assert schema.multiplicity("B", "r-", "A") is Multiplicity.PLUS

    def test_forbids_edge(self, medical_source_schema):
        assert medical_source_schema.forbids_edge("Vaccine", "exhibits", "Pathogen")
        assert not medical_source_schema.forbids_edge("Vaccine", "designTarget", "Antigen")

    def test_allowed_edge_triples(self, medical_source_schema):
        triples = set(medical_source_schema.allowed_edge_triples())
        assert ("Vaccine", "designTarget", "Antigen") in triples
        assert ("Vaccine", "exhibits", "Antigen") not in triples

    def test_allowed_edge_triples_read_both_directions(self):
        # δ(A,r,B) = + but δ(B,r⁻,A) = 0: no r-edge from A to B can exist
        schema = Schema(["A", "B"], ["r"])
        schema.set("A", "r", "B", "+")
        schema.set("B", "r-", "A", "0")
        assert schema.forbids_edge("A", "r", "B")
        assert list(schema.allowed_edge_triples()) == []
        schema.set("B", "r-", "A", "?")
        assert not schema.forbids_edge("A", "r", "B")
        assert list(schema.allowed_edge_triples()) == [("A", "r", "B")]

    def test_copy_and_equality(self, medical_source_schema):
        clone = medical_source_schema.copy()
        assert clone == medical_source_schema
        clone.set("Antigen", "crossReacting", "Antigen", "0")
        assert clone != medical_source_schema

    def test_restrict(self, medical_source_schema):
        restricted = medical_source_schema.restrict(["Vaccine", "Antigen"], ["designTarget"])
        assert restricted.node_labels == {"Vaccine", "Antigen"}
        assert restricted.edge_labels == {"designTarget"}
        assert restricted.multiplicity("Vaccine", "designTarget", "Antigen") is Multiplicity.ONE

    def test_set_and_set_edge_reset_the_fingerprint_memo(self):
        schema = Schema(["A", "B"], ["r"])
        schema.set_edge("A", "r", "B", "1", "?")
        before = schema.canonical_fingerprint()
        assert schema.canonical_fingerprint() is before  # memoised
        schema.set("A", "r", "B", "+")
        after_set = schema.canonical_fingerprint()
        assert after_set != before
        schema.set_edge("B", "r", "A", "*", "*")
        after_edge = schema.canonical_fingerprint()
        assert after_edge not in (before, after_set)
        rebuilt = Schema(["A", "B"], ["r"])
        rebuilt.set("A", "r", "B", "+")
        rebuilt.set("B", "r-", "A", "?")
        rebuilt.set_edge("B", "r", "A", "*", "*")
        assert rebuilt.canonical_fingerprint() == after_edge

    def test_copy_and_restrict_get_their_own_fingerprint_memo(self, medical_source_schema):
        original = medical_source_schema.copy()
        fingerprint = original.canonical_fingerprint()
        clone = original.copy()
        assert clone.canonical_fingerprint() == fingerprint
        clone.set("Antigen", "crossReacting", "Antigen", "+")
        assert clone.canonical_fingerprint() != fingerprint
        assert original.canonical_fingerprint() == fingerprint
        restricted = original.restrict(["Vaccine", "Antigen"], ["designTarget"])
        restricted_fingerprint = restricted.canonical_fingerprint()
        assert restricted_fingerprint != fingerprint
        restricted.set("Antigen", "designTarget-", "Vaccine", "1")
        assert restricted.canonical_fingerprint() != restricted_fingerprint
        assert original.canonical_fingerprint() == fingerprint

    def test_describe_lists_constraints(self, medical_source_schema):
        text = medical_source_schema.describe()
        assert "designTarget" in text and "Vaccine" in text

    def test_empty_schema(self):
        schema = Schema([], [])
        assert schema.is_empty()


class TestConformance:
    def test_sample_graph_conforms(self, medical_graph, medical_source_schema):
        assert conforms(medical_graph, medical_source_schema)

    def test_dl_view_agrees(self, medical_graph, medical_source_schema):
        assert conforms_via_tbox(medical_graph, medical_source_schema)

    def test_unlabeled_node_rejected(self, medical_source_schema):
        graph = GraphBuilder().node("x").build()
        report = check_conformance(graph, medical_source_schema)
        assert not report.ok
        assert any(v.kind == "unlabeled-node" for v in report.violations)

    def test_multiple_labels_rejected(self, medical_source_schema):
        graph = GraphBuilder().node("x", "Vaccine", "Antigen").build()
        report = check_conformance(graph, medical_source_schema)
        assert any(v.kind == "multiple-node-labels" for v in report.violations)

    def test_foreign_node_label_rejected(self, medical_source_schema):
        graph = GraphBuilder().node("x", "Alien").build()
        report = check_conformance(graph, medical_source_schema)
        assert any(v.kind == "foreign-node-label" for v in report.violations)

    def test_foreign_edge_label_rejected(self, medical_source_schema):
        graph = (
            GraphBuilder().node("x", "Vaccine").node("y", "Antigen")
            .edge("x", "designTarget", "y").edge("x", "zaps", "y").build()
        )
        report = check_conformance(graph, medical_source_schema)
        assert any(v.kind == "foreign-edge-label" for v in report.violations)

    def test_missing_required_edge_rejected(self, medical_source_schema):
        # a Vaccine without its design target violates δ(Vaccine,designTarget,Antigen)=1
        graph = GraphBuilder().node("v", "Vaccine").build()
        report = check_conformance(graph, medical_source_schema)
        assert any(v.kind == "participation" for v in report.violations)

    def test_two_design_targets_rejected(self, medical_source_schema):
        graph = (
            GraphBuilder()
            .node("v", "Vaccine").node("a1", "Antigen").node("a2", "Antigen")
            .edge("v", "designTarget", "a1").edge("v", "designTarget", "a2")
            .build()
        )
        assert not conforms(graph, medical_source_schema)

    def test_forbidden_edge_rejected(self, medical_source_schema):
        graph = (
            GraphBuilder()
            .node("v", "Vaccine").node("a", "Antigen").node("p", "Pathogen")
            .edge("v", "designTarget", "a")
            .edge("p", "exhibits", "a")
            .edge("v", "exhibits", "a")  # vaccines may not exhibit antigens
            .build()
        )
        assert not conforms(graph, medical_source_schema)

    def test_pathogen_needs_an_antigen(self, medical_source_schema):
        graph = GraphBuilder().node("p", "Pathogen").build()
        assert not conforms(graph, medical_source_schema)

    def test_empty_graph_conforms(self, medical_source_schema):
        assert conforms(GraphBuilder().build(), medical_source_schema)

    def test_report_summary_readable(self, medical_source_schema):
        graph = GraphBuilder().node("v", "Vaccine").build()
        report = check_conformance(graph, medical_source_schema)
        assert "designTarget" in report.summary()

    def test_max_violations_truncates(self, medical_source_schema):
        graph = GraphBuilder().node("v1", "Vaccine").node("v2", "Vaccine").build()
        report = check_conformance(graph, medical_source_schema, max_violations=1)
        assert len(report.violations) == 1
