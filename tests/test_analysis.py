"""Tests for the static-analysis layer: label coverage (Lemma B.6), statement
entailment (Lemma B.7), type checking (Lemma B.2), schema elicitation
(Lemma B.5) and equivalence (Lemma B.8) — exercised on the paper's medical
example and on the FHIR and social workloads."""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    StatementChecker,
    check_equivalence,
    check_label_coverage,
    elicit_schema,
    type_check,
)
from repro.engine import ContainmentEngine
from repro.exceptions import ElicitationError
from repro.graph import forward
from repro.schema import conforms, schema_equivalent
from repro.transform.parser import parse_transformation
from repro.workloads import fhir, medical, social


class TestLabelCoverage:
    def test_migration_is_covering(self, medical_source_schema):
        result = check_label_coverage(medical.migration(), medical_source_schema)
        assert result.covered
        assert not result.failures()

    def test_missing_node_rule_breaks_coverage(self, medical_source_schema):
        # no Antigen node rule: targets edges point at unlabeled nodes
        transformation = parse_transformation(
            """
            transformation T {
              Vaccine(fV(x)) <- (Vaccine)(x);
              targets(fV(x), fA(y)) <- (designTarget)(x, y);
            }
            """
        )
        result = check_label_coverage(transformation, medical_source_schema)
        assert not result.covered
        assert result.unassociated_constructors == ["fA"]

    def test_edge_rule_wider_than_node_rule_breaks_coverage(self, medical_source_schema):
        transformation = parse_transformation(
            """
            transformation T {
              Vaccine(fV(x)) <- (Vaccine)(x);
              Antigen(fA(x)) <- (Antigen)(x);
              Pathogen(fP(x)) <- (Pathogen)(x);
              targets(fV(x), fA(y)) <- (designTarget . crossReacting*)(x, y);
              Vaccine(fV(x)) <- (designTarget)(x, y);
              exhibits(fP(x), fA(y)) <- (exhibits- . exhibits)(x, y);
            }
            """
        )
        # the last edge rule creates exhibits edges whose source constructor is
        # fP applied to *antigen* identifiers, never labeled by a node rule
        result = check_label_coverage(transformation, medical_source_schema)
        assert not result.covered
        assert any(check.source_label == "Pathogen" for check in result.failures())

    def test_coverage_summary_readable(self, medical_source_schema):
        result = check_label_coverage(medical.migration(), medical_source_schema)
        assert "label" in result.summary()


class TestStatementEntailment:
    @pytest.fixture(scope="class")
    def checker(self, medical_source_schema):
        return StatementChecker(medical.migration(), medical_source_schema)

    def test_example_45_exists(self, checker):
        assert checker.entails_exists("Vaccine", forward("targets"), "Antigen").entailed

    def test_design_target_exactly_one(self, checker):
        assert checker.entails_exists("Vaccine", forward("designTarget"), "Antigen").entailed
        assert checker.entails_at_most("Vaccine", forward("designTarget"), "Antigen").entailed

    def test_targets_not_functional(self, checker):
        assert not checker.entails_at_most("Vaccine", forward("targets"), "Antigen").entailed

    def test_no_exists_for_unproduced_edges(self, checker):
        assert checker.entails_no_exists("Antigen", forward("targets"), "Antigen").entailed
        assert checker.entails_no_exists("Pathogen", forward("designTarget"), "Antigen").entailed

    def test_exhibits_at_least_one(self, checker):
        assert checker.entails_exists("Pathogen", forward("exhibits"), "Antigen").entailed

    def test_exists_not_entailed_for_optional_edges(self, checker):
        # not every antigen is exhibited by a pathogen... actually S0 requires
        # antigens to be exhibited?  No: the constraint is on pathogens.  An
        # antigen with no pathogen is allowed, so ∃exhibits⁻ is not entailed.
        from repro.graph import inverse

        assert not checker.entails_exists("Antigen", inverse("exhibits"), "Pathogen").entailed

    def test_dispatch_on_statement(self, checker, medical_target_schema):
        from repro.dl import schema_to_l0

        for statement in schema_to_l0(medical_target_schema):
            outcome = checker.entails(statement)
            assert outcome.entailed or not outcome.entailed  # just exercises dispatch


class TestTypeChecking:
    def test_migration_well_typed(self, medical_source_schema, medical_target_schema):
        result = type_check(medical.migration(), medical_source_schema, medical_target_schema)
        assert result.well_typed
        assert result.containment_calls > 0
        assert "WELL-TYPED" in result.summary()

    def test_broken_migration_rejected(self, medical_source_schema, medical_target_schema):
        result = type_check(
            medical.broken_migration(), medical_source_schema, medical_target_schema
        )
        assert not result.well_typed
        assert any("targets" in str(e.statement) for e in result.failed_statements())

    def test_type_checking_matches_runtime_behaviour(
        self, medical_source_schema, medical_target_schema
    ):
        # dynamic cross-validation: the well-typed transformation's outputs
        # conform, and the broken one has a non-conforming output
        good, bad = medical.migration(), medical.broken_migration()
        saw_bad_output = False
        for seed in range(6):
            instance = medical.random_instance(seed=seed, cross_reaction_probability=0.05)
            assert conforms(good.apply(instance), medical_target_schema)
            if not conforms(bad.apply(instance), medical_target_schema):
                saw_bad_output = True
        assert saw_bad_output

    def test_foreign_output_label_rejected(self, medical_source_schema, medical_target_schema):
        transformation = parse_transformation(
            """
            transformation T {
              Vaccine(fV(x)) <- (Vaccine)(x);
              Alien(fX(x))   <- (Pathogen)(x);
            }
            """
        )
        result = type_check(transformation, medical_source_schema, medical_target_schema)
        assert not result.well_typed
        assert result.signature_errors

    def test_coverage_failure_blocks_typechecking(self, medical_source_schema, medical_target_schema):
        transformation = parse_transformation(
            """
            transformation T {
              Vaccine(fV(x)) <- (Vaccine)(x);
              targets(fV(x), fA(y)) <- (designTarget)(x, y);
            }
            """
        )
        result = type_check(transformation, medical_source_schema, medical_target_schema)
        assert not result.well_typed
        assert result.coverage is not None and not result.coverage.covered

    def test_fhir_migration_well_typed(self, fhir_schemas):
        source, target = fhir_schemas
        assert type_check(fhir.migration_v3_to_v4(), source, target).well_typed

    def test_fhir_broken_migration_rejected(self, fhir_schemas):
        source, target = fhir_schemas
        result = type_check(fhir.broken_migration_v3_to_v4(), source, target)
        assert not result.well_typed

    def test_social_reification_well_typed(self, social_schemas):
        source, target = social_schemas
        assert type_check(social.reification(), source, target).well_typed

    def test_social_broken_reification_rejected(self, social_schemas):
        source, target = social_schemas
        assert not type_check(social.broken_reification(), source, target).well_typed


class TestElicitation:
    def test_elicited_schema_matches_figure_1_target(self, medical_source_schema):
        result = elicit_schema(medical.migration(), medical_source_schema)
        elicited = result.schema
        assert elicited.node_labels == {"Vaccine", "Antigen", "Pathogen"}
        assert elicited.edge_labels == {"designTarget", "targets", "exhibits"}
        assert str(elicited.multiplicity("Vaccine", "designTarget", "Antigen")) == "1"
        assert str(elicited.multiplicity("Vaccine", "targets", "Antigen")) == "+"
        assert str(elicited.multiplicity("Pathogen", "exhibits", "Antigen")) == "+"
        assert str(elicited.multiplicity("Antigen", "targets", "Antigen")) == "0"

    def test_elicited_schema_accepts_all_outputs(self, medical_source_schema):
        result = elicit_schema(medical.migration(), medical_source_schema)
        for seed in range(5):
            output = medical.migration().apply(medical.random_instance(seed=seed))
            assert conforms(output, result.schema)

    def test_elicited_schema_is_minimal_for_broken_variant(self, medical_source_schema):
        # the broken migration only creates targets edges via strict cross
        # reactions, so 'targets' is not guaranteed any more: elicitation must
        # weaken the constraint from + to *
        result = elicit_schema(medical.broken_migration(), medical_source_schema)
        assert str(result.schema.multiplicity("Vaccine", "targets", "Antigen")) == "*"

    def test_elicitation_fails_without_coverage(self, medical_source_schema):
        transformation = parse_transformation(
            """
            transformation T {
              Vaccine(fV(x)) <- (Vaccine)(x);
              targets(fV(x), fA(y)) <- (designTarget)(x, y);
            }
            """
        )
        with pytest.raises(ElicitationError):
            elicit_schema(transformation, medical_source_schema)

    def test_elicitation_decision_problem(self, medical_source_schema, medical_target_schema):
        # deciding "is the elicited schema equivalent to a given one" — the
        # decision problem the paper proves EXPTIME-complete
        result = elicit_schema(medical.migration(), medical_source_schema)
        target = medical_target_schema.copy()
        assert schema_equivalent(result.schema, target)


class TestEquivalence:
    def test_redundant_rule_is_harmless(self, medical_source_schema):
        result = check_equivalence(
            medical.migration(), medical.redundant_migration(), medical_source_schema
        )
        assert result.equivalent

    def test_broken_variant_not_equivalent(self, medical_source_schema):
        result = check_equivalence(
            medical.migration(), medical.broken_migration(), medical_source_schema
        )
        assert not result.equivalent
        assert any(difference.kind == "edge-rule" for difference in result.differences)

    def test_signature_difference_detected(self, medical_source_schema):
        smaller = parse_transformation(
            "transformation T { Vaccine(fV(x)) <- (Vaccine)(x); }"
        )
        result = check_equivalence(medical.migration(), smaller, medical_source_schema)
        assert not result.equivalent
        assert any(difference.kind == "signature" for difference in result.differences)

    def test_equivalence_is_symmetric(self, medical_source_schema):
        forward_result = check_equivalence(
            medical.migration(), medical.redundant_migration(), medical_source_schema
        )
        backward_result = check_equivalence(
            medical.redundant_migration(), medical.migration(), medical_source_schema
        )
        assert forward_result.equivalent == backward_result.equivalent

    def test_equivalence_modulo_schema_only(self, medical_source_schema):
        # designTarget and designTarget·crossReacting* differ in general but the
        # difference requires cross-reacting edges; with a schema forbidding
        # them the two transformations coincide
        variant = parse_transformation(
            """
            transformation T {
              Vaccine(fV(x)) <- (Vaccine)(x);
              Antigen(fA(x)) <- (Antigen)(x);
              Pathogen(fP(x)) <- (Pathogen)(x);
              designTarget(fV(x), fA(y)) <- (designTarget)(x, y);
              targets(fV(x), fA(y)) <- (designTarget)(x, y);
              exhibits(fP(x), fA(y)) <- (exhibits)(x, y);
            }
            """
        )
        assert not check_equivalence(medical.migration(), variant, medical_source_schema).equivalent
        no_cross = medical_source_schema.copy(name="S0NoCross")
        no_cross.set_edge("Antigen", "crossReacting", "Antigen", "0", "0")
        assert check_equivalence(medical.migration(), variant, no_cross).equivalent

    def test_runtime_cross_validation(self, medical_source_schema):
        # equivalent transformations produce identical outputs on instances
        left, right = medical.migration(), medical.redundant_migration()
        for seed in range(4):
            instance = medical.random_instance(seed=seed)
            assert left.apply(instance) == right.apply(instance)


# --------------------------------------------------------------------------- #
# the reported call count is the number of containment calls issued
# --------------------------------------------------------------------------- #
def _perfbench_analysis_jobs():
    """perfbench's type checking, equivalence and elicitation jobs."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # its dataclasses look their module up there
    spec.loader.exec_module(inputs)
    return inputs.analysis_jobs()


@pytest.mark.parametrize("job", _perfbench_analysis_jobs(), ids=lambda job: job.key)
def test_reported_calls_are_the_calls_issued(job):
    # cold on a fresh engine, then a warm repeat on the same one
    engine = ContainmentEngine()
    for _ in range(2):
        before = engine.stats.contains_calls
        _, reported = job.run(engine)
        assert reported == engine.stats.contains_calls - before > 0
