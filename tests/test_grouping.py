"""Tests for the grouped queries Q_A and Q_{A,R,B}, conjunction helpers and
trimming (Section 4, Appendix B)."""

import pytest

from repro.analysis import type_check
from repro.graph import forward, inverse
from repro.rpq import eval_uc2rpq
from repro.transform import (
    canonical_variables,
    conjoin_unions,
    edge_query,
    equality_query,
    node_query,
    trim,
    unsatisfiable_query,
)
from repro.transform.parser import parse_transformation
from repro.workloads import medical


@pytest.fixture(scope="module")
def migration():
    return medical.migration()


class TestGroupedQueries:
    def test_example_43_node_query(self, migration, medical_graph):
        q_vaccine = node_query(migration, "Vaccine")
        assert len(q_vaccine) == 1
        answers = eval_uc2rpq(q_vaccine, medical_graph)
        assert ("measles-vaccine",) in answers and ("mumps-vaccine",) in answers

    def test_example_43_edge_query(self, migration, medical_graph):
        q_targets = edge_query(migration, "Vaccine", forward("targets"), "Antigen")
        answers = eval_uc2rpq(q_targets, medical_graph)
        assert ("measles-vaccine", "H-protein") in answers
        assert ("measles-vaccine", "F-protein") in answers
        assert ("mumps-vaccine", "F-protein") not in answers

    def test_inverse_edge_query_swaps_sides(self, migration, medical_graph):
        q_inverse = edge_query(migration, "Antigen", inverse("targets"), "Vaccine")
        answers = eval_uc2rpq(q_inverse, medical_graph)
        assert ("H-protein", "measles-vaccine") in answers

    def test_missing_label_gives_empty_union(self, migration):
        assert node_query(migration, "Unknown").is_empty()
        assert edge_query(migration, "Vaccine", forward("unknown"), "Antigen").is_empty()

    def test_multiple_rules_become_union(self):
        transformation = medical.redundant_migration()
        q_targets = edge_query(transformation, "Vaccine", forward("targets"), "Antigen")
        assert len(q_targets) == 2

    def test_canonical_variable_names(self, migration):
        q_edge = edge_query(migration, "Vaccine", forward("targets"), "Antigen")
        assert q_edge.disjuncts[0].free_variables == ("x1", "y1")
        assert canonical_variables("z", 3) == ("z1", "z2", "z3")

    def test_binary_constructor_arities(self):
        reify = parse_transformation(
            """
            transformation R {
              Person(fP(x)) <- (Person)(x);
              Membership(fM(x, y)) <- (Person . memberOf . Group)(x, y);
              who(fM(x, y), fP(x)) <- (Person . memberOf . Group)(x, y);
            }
            """
        )
        q_member = node_query(reify, "Membership")
        assert q_member.arity() == 2
        q_who = edge_query(reify, "Membership", forward("who"), "Person")
        assert q_who.disjuncts[0].free_variables == ("x1", "x2", "y1")


class TestCombinators:
    def test_conjoin_unions_distributes(self, migration):
        left = node_query(migration, "Vaccine")
        right = edge_query(migration, "Vaccine", forward("targets"), "Antigen")
        conjunction = conjoin_unions(left, right)
        assert len(conjunction) == len(left) * len(right)
        # x1 is shared between the two sides, y1 comes from the edge query
        assert conjunction.disjuncts[0].free_variables == ("x1", "y1")

    def test_conjoin_with_empty_is_empty(self, migration):
        left = node_query(migration, "Vaccine")
        assert conjoin_unions(left, node_query(migration, "Unknown")).is_empty()

    def test_equality_query_shape(self):
        union = equality_query(["y1"], ["z1"])
        assert union.arity() == 2
        assert union.disjuncts[0].atoms[0].regex.nullable()

    def test_equality_query_length_mismatch(self):
        from repro.exceptions import TransformationError

        with pytest.raises(TransformationError):
            equality_query(["y1"], ["z1", "z2"])

    def test_unsatisfiable_query(self, medical_graph):
        union = unsatisfiable_query(["x1"])
        assert eval_uc2rpq(union, medical_graph) == set()


class TestTrimming:
    def test_productive_rules_kept(self, migration, medical_source_schema):
        trimmed = trim(migration, medical_source_schema)
        assert len(trimmed.rules()) == len(migration.rules())

    def test_unproductive_rule_removed(self, medical_source_schema):
        with_dead_rule = parse_transformation(
            """
            transformation T {
              Vaccine(fV(x))  <- (Vaccine)(x);
              Antigen(fA(x))  <- (Antigen)(x);
              targets(fV(x), fA(y)) <- (exhibits)(x, y), Vaccine(x);
            }
            """
        )
        trimmed = trim(with_dead_rule, medical_source_schema)
        # the edge rule's body requires a Vaccine with an exhibits edge, which
        # the schema forbids, so the rule is unproductive
        assert len(trimmed.edge_rules) == 0
        assert len(trimmed.node_rules) == 2
        assert "targets" not in trimmed.edge_labels()


class TestGroupedQueryMemo:
    def test_repeats_return_the_memoised_union(self):
        transformation = medical.migration()
        q_node = node_query(transformation, "Vaccine")
        q_edge = edge_query(transformation, "Vaccine", forward("targets"), "Antigen")
        q_empty = edge_query(transformation, "Vaccine", forward("unknown"), "Antigen")
        assert node_query(transformation, "Vaccine") is q_node
        assert edge_query(transformation, "Vaccine", forward("targets"), "Antigen") is q_edge
        assert edge_query(transformation, "Vaccine", forward("unknown"), "Antigen") is q_empty
        assert transformation.grouped_queries == {
            "Vaccine": q_node,
            ("Vaccine", forward("targets"), "Antigen"): q_edge,
            ("Vaccine", forward("unknown"), "Antigen"): q_empty,
        }
        # the inverse role is another key, with the sides swapped
        q_inverse = edge_query(transformation, "Antigen", inverse("targets"), "Vaccine")
        assert q_inverse is not q_edge and not q_inverse.is_empty()

    def test_add_drops_the_memo(self):
        transformation = medical.migration()
        before = edge_query(transformation, "Vaccine", forward("targets"), "Antigen")
        node_query(transformation, "Vaccine")
        (extra,) = parse_transformation(
            """
            transformation X {
              targets(fV(x), fA(y)) <- (designTarget . crossReacting)(x, y);
            }
            """
        ).edge_rules
        transformation.add(extra)
        assert transformation.grouped_queries == {}
        after = edge_query(transformation, "Vaccine", forward("targets"), "Antigen")
        assert len(after) == len(before) + 1

    def test_one_build_per_query_across_coverage_and_entailment(
        self, medical_source_schema, medical_target_schema, monkeypatch
    ):
        # coverage and the statement checker used to keep a cache each, so
        # every Q_A the two shared was built twice
        import repro.transform.grouping as grouping

        built = []
        for name in ("_node_query", "_edge_query"):
            def counting(*args, _build=getattr(grouping, name)):
                built.append(args[1:])
                return _build(*args)

            monkeypatch.setattr(grouping, name, counting)
        result = type_check(
            medical.migration(), medical_source_schema, medical_target_schema, pre_trimmed=True
        )
        assert result.well_typed and result.statement_results
        assert built and len(built) == len(set(built))
