"""Tests for satisfiability of Boolean (U)C2RPQs modulo Horn TBoxes (Thm 6.1)."""

import pytest

from repro.chase import SatisfiabilityConfig, SatisfiabilitySolver, build_pattern, is_satisfiable
from repro.dl import (
    ForAllCI,
    NoExistsCI,
    SubclassOfBottom,
    TBox,
    conj,
    schema_to_extended_tbox,
)
from repro.exceptions import SolverError
from repro.graph import forward
from repro.rpq import parse_c2rpq, parse_uc2rpq
from repro.workloads import medical


@pytest.fixture(scope="module")
def medical_tbox():
    return schema_to_extended_tbox(medical.source_schema())


class TestPatternConstruction:
    def test_simple_path_pattern(self):
        query = parse_c2rpq("q() := (Vaccine . designTarget . Antigen)(x, y)")
        from repro.rpq import build_nfa

        word = build_nfa(query.atoms[0].regex).shortest_word()
        pattern, assignment = build_pattern(list(query.atoms), [word])
        assert pattern.has_label(assignment["x"], "Vaccine")
        assert pattern.has_label(assignment["y"], "Antigen")
        assert pattern.has_edge(assignment["x"], "designTarget", assignment["y"])

    def test_inverse_step_creates_reversed_edge(self):
        query = parse_c2rpq("q() := (designTarget-)(x, y)")
        from repro.rpq import build_nfa

        word = build_nfa(query.atoms[0].regex).shortest_word()
        pattern, assignment = build_pattern(list(query.atoms), [word])
        assert pattern.has_edge(assignment["y"], "designTarget", assignment["x"])

    def test_edge_free_word_merges_variables(self):
        query = parse_c2rpq("q() := (Vaccine)(x, y)")
        from repro.rpq import build_nfa

        word = build_nfa(query.atoms[0].regex).shortest_word()
        pattern, assignment = build_pattern(list(query.atoms), [word])
        assert assignment["x"] == assignment["y"]

    def test_shared_variables_join_atoms(self):
        query = parse_c2rpq("q() := (a)(x, y), (b)(y, z)")
        from repro.rpq import build_nfa

        words = [build_nfa(atom.regex).shortest_word() for atom in query.atoms]
        pattern, assignment = build_pattern(list(query.atoms), words)
        assert pattern.has_edge(assignment["x"], "a", assignment["y"])
        assert pattern.has_edge(assignment["y"], "b", assignment["z"])


class TestSatisfiability:
    def test_unconstrained_query_is_satisfiable(self):
        result = is_satisfiable(parse_c2rpq("q() := (r)(x, y)"), TBox())
        assert result.satisfiable
        assert result.witness is not None

    def test_conflicting_labels_unsatisfiable(self):
        tbox = TBox([SubclassOfBottom(conj("A", "B"))])
        result = is_satisfiable(parse_c2rpq("q() := A(x), B(x)"), tbox)
        assert not result.satisfiable and result.conclusive

    def test_forbidden_edge_unsatisfiable(self):
        tbox = TBox([NoExistsCI(conj("A"), forward("r"), conj())])
        assert not is_satisfiable(parse_c2rpq("q() := A(x), (r)(x, y)"), tbox)

    def test_forall_propagation_can_refute(self):
        tbox = TBox(
            [
                ForAllCI(conj("A"), forward("r"), conj("B")),
                SubclassOfBottom(conj("B", "C")),
            ]
        )
        assert not is_satisfiable(parse_c2rpq("q() := A(x), (r)(x, y), C(y)"), tbox)
        assert is_satisfiable(parse_c2rpq("q() := A(x), (r)(x, y)"), tbox)

    def test_star_needs_longer_word(self, medical_tbox):
        # only with at least two crossReacting steps can x and z differ ... the
        # enumeration must try words beyond the shortest one
        query = parse_c2rpq(
            "q() := Vaccine(x), (designTarget . crossReacting . crossReacting)(x, y)"
        )
        assert is_satisfiable(query, medical_tbox).satisfiable

    def test_medical_schema_constraints(self, medical_tbox):
        assert is_satisfiable(parse_c2rpq("q() := (exhibits)(x, y)"), medical_tbox)
        # the Horn TBox alone only constrains *labeled* targets; with the label
        # present the ¬∃ statement fires (the containment solver adds the
        # missing-label branching on top of this engine)
        assert not is_satisfiable(
            parse_c2rpq("q() := (exhibits)(x, y), Vaccine(x), Antigen(y)"), medical_tbox
        )
        assert not is_satisfiable(
            parse_c2rpq("q() := Vaccine(x), Antigen(x)"), medical_tbox
        )

    def test_union_satisfiable_if_any_disjunct_is(self, medical_tbox):
        union = parse_uc2rpq(
            ["q() := Vaccine(x), Antigen(x)", "q() := Pathogen(x)"]
        ).boolean()
        assert is_satisfiable(union, medical_tbox).satisfiable

    def test_empty_union_unsatisfiable(self, medical_tbox):
        from repro.rpq import UC2RPQ

        result = is_satisfiable(UC2RPQ([], name="false"), medical_tbox)
        assert not result.satisfiable and result.regime == "exact"

    def test_non_boolean_query_rejected(self, medical_tbox):
        with pytest.raises(SolverError):
            is_satisfiable(parse_c2rpq("q(x) := Vaccine(x)"), medical_tbox)

    def test_witness_is_model_of_tbox(self, medical_tbox):
        result = is_satisfiable(
            parse_c2rpq("q() := (designTarget)(x, y), (crossReacting)(y, z)"), medical_tbox
        )
        assert result.satisfiable
        # the witness pattern satisfies every universal statement of the TBox
        witness = result.witness
        for statement in medical_tbox.no_exists_statements():
            assert statement.holds_in(witness)

    def test_regimes_reported(self, medical_tbox):
        finite = parse_c2rpq("q() := (designTarget)(x, y)")
        assert is_satisfiable(finite, medical_tbox).regime == "exact"
        starred = parse_c2rpq("q() := (crossReacting*)(x, y), Antigen(x), Antigen(y)")
        result = is_satisfiable(starred, medical_tbox)
        assert result.satisfiable
        unsat = parse_c2rpq("q() := (crossReacting)(x, y), Vaccine(x), Antigen(y)")
        unsat_result = is_satisfiable(unsat, medical_tbox)
        assert not unsat_result.satisfiable and unsat_result.conclusive

    def test_solver_counts_patterns(self, medical_tbox):
        solver = SatisfiabilitySolver(medical_tbox)
        result = solver.is_satisfiable(parse_c2rpq("q() := (crossReacting*)(x, y)").boolean())
        assert result.satisfiable
        assert result.patterns_checked >= 1


class TestTruncatedBoundaries:
    """Lock in the regime semantics when a cap is hit *exactly*."""

    REFUTING = TBox([NoExistsCI(conj("A"), forward("r"), conj())])

    def test_word_count_cap_hit_exactly_is_truncated(self):
        # (s + t) has exactly two words; enumerating both while the cap is
        # two still reports "truncated" — the solver cannot tell completion
        # from cut-off when len(words) == max_words_per_atom
        config = SatisfiabilityConfig(max_words_per_atom=2)
        result = is_satisfiable(
            parse_c2rpq("q() := A(x), (r)(x, y), (s + t)(y, z)"), self.REFUTING, config
        )
        assert not result.satisfiable
        assert result.regime == "truncated"

    def test_word_count_one_above_the_cap_is_exact(self):
        config = SatisfiabilityConfig(max_words_per_atom=3)
        result = is_satisfiable(
            parse_c2rpq("q() := A(x), (r)(x, y), (s + t)(y, z)"), self.REFUTING, config
        )
        assert not result.satisfiable
        assert result.regime == "exact"

    def test_word_length_cap_hit_exactly_by_finite_language_is_pumped(self):
        # a fully enumerated finite language whose longest word has exactly
        # max_word_length letters is reported "pumped", not "exact": a longer
        # word could have been cut off at the same bound
        config = SatisfiabilityConfig(max_word_length=2)
        result = is_satisfiable(
            parse_c2rpq("q() := A(x), (r . s)(x, y)"), self.REFUTING, config
        )
        assert not result.satisfiable
        assert result.regime == "pumped"

    def test_pattern_cap_equal_to_combination_count_stays_exact(self):
        # exactly max_patterns combinations: every one is chased, no cut-off
        config = SatisfiabilityConfig(max_patterns=2)
        result = is_satisfiable(
            parse_c2rpq("q() := A(x), (r)(x, y), (s + t)(y, z)"), self.REFUTING, config
        )
        assert not result.satisfiable
        assert result.regime == "exact"
        assert result.patterns_checked == 2

    def test_pattern_cap_below_combination_count_is_truncated(self):
        config = SatisfiabilityConfig(max_patterns=1)
        result = is_satisfiable(
            parse_c2rpq("q() := A(x), (r)(x, y), (s + t)(y, z)"), self.REFUTING, config
        )
        assert not result.satisfiable
        assert result.regime == "truncated"
        assert result.patterns_checked == 1
