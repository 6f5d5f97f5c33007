"""Tests for the Glushkov/Thompson NFAs over Γ ∪ Σ±."""

import importlib.util
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import repro.core.compile as compile_module
from repro.core import clear_compile_memo
from repro.core.kernels import bitset_closure
from repro.engine import ContainmentEngine
from repro.rpq import UC2RPQ, build_nfa, concat, edge, node, parse_regex, plus, star, union
from repro.rpq.automaton import NFA, _Builder, _Fragment, _trimmed
from repro.rpq.regex import EMPTY, EPSILON, Concat, EdgeStep, EmptyLanguage, Epsilon, NodeTest, Star, Union
from repro.workloads.zoo import ZOO_SEED, zoo_corpus


def w(text):
    """Build a word (tuple of symbols) from a whitespace-separated string."""
    from repro.graph.labels import SignedLabel

    result = []
    for token in text.split():
        if token[:1].isupper():
            result.append(NodeTest(token))
        else:
            result.append(EdgeStep(SignedLabel.parse(token)))
    return tuple(result)


class TestAcceptance:
    def test_single_edge(self):
        nfa = build_nfa(edge("r"))
        assert nfa.accepts(w("r"))
        assert not nfa.accepts(w("s"))
        assert not nfa.accepts(())

    def test_concatenation(self):
        nfa = build_nfa(parse_regex("a . b"))
        assert nfa.accepts(w("a b"))
        assert not nfa.accepts(w("a"))
        assert not nfa.accepts(w("b a"))

    def test_union(self):
        nfa = build_nfa(parse_regex("a + b"))
        assert nfa.accepts(w("a")) and nfa.accepts(w("b"))
        assert not nfa.accepts(w("a b"))

    def test_star_accepts_empty_and_repeats(self):
        nfa = build_nfa(star(edge("a")))
        assert nfa.accepts(())
        assert nfa.accepts(w("a a a"))

    def test_plus_requires_one(self):
        nfa = build_nfa(plus(edge("a")))
        assert not nfa.accepts(())
        assert nfa.accepts(w("a"))

    def test_node_tests_and_inverse_edges(self):
        nfa = build_nfa(parse_regex("Vaccine . designTarget . crossReacting* . Antigen"))
        assert nfa.accepts(w("Vaccine designTarget Antigen"))
        assert nfa.accepts(w("Vaccine designTarget crossReacting Antigen"))
        assert not nfa.accepts(w("Vaccine designTarget"))
        inverse_nfa = build_nfa(edge("r-"))
        assert inverse_nfa.accepts(w("r-"))

    def test_epsilon_and_empty(self):
        assert build_nfa(EPSILON).accepts(())
        assert build_nfa(EMPTY).is_empty_language()
        assert not build_nfa(EMPTY).accepts(())

    def test_empty_in_concat_kills_language(self):
        assert build_nfa(concat(edge("a"), EMPTY)).is_empty_language()


class TestStructure:
    def test_linear_size(self):
        expr = parse_regex("a . (b + c)* . d . Antigen")
        nfa = build_nfa(expr)
        assert nfa.state_count() <= 2 * expr.size() + 2

    def test_trim_removes_dead_states(self):
        nfa = build_nfa(union(edge("a"), concat(edge("b"), EMPTY)))
        # the b-branch cannot reach a final state and must have been trimmed
        assert all(
            any(nfa.accepts(word) for word in [w("a")])
            for _ in [None]
        )
        assert nfa.state_count() <= 4

    def test_alphabet(self):
        nfa = build_nfa(parse_regex("A . r . s-"))
        assert len(nfa.alphabet()) == 3

    def test_reverse_language(self):
        nfa = build_nfa(parse_regex("a . b")).reverse()
        assert nfa.accepts(w("b- a-"))
        assert not nfa.accepts(w("a b"))

    def test_accepts_epsilon_flag(self):
        assert build_nfa(star(edge("a"))).accepts_epsilon()
        assert not build_nfa(edge("a")).accepts_epsilon()


class TestWordEnumeration:
    def test_words_are_accepted_and_deduplicated(self):
        nfa = build_nfa(parse_regex("a . b* . c"))
        words = list(nfa.enumerate_words(max_length=6))
        assert len(words) == len(set(words))
        assert all(nfa.accepts(word) for word in words)

    def test_words_in_nondecreasing_length(self):
        nfa = build_nfa(parse_regex("a*"))
        lengths = [len(word) for word in nfa.enumerate_words(max_length=5, max_state_repeats=3)]
        assert lengths == sorted(lengths)

    def test_state_repeat_bound_limits_unrolling(self):
        nfa = build_nfa(star(edge("a")))
        words = list(nfa.enumerate_words(max_length=10, max_state_repeats=2))
        assert max(len(word) for word in words) <= 4

    def test_max_words_cap(self):
        nfa = build_nfa(star(union(edge("a"), edge("b"))))
        words = list(nfa.enumerate_words(max_length=10, max_state_repeats=3, max_words=5))
        assert len(words) == 5

    def test_finite_language_enumerated_exactly(self):
        nfa = build_nfa(parse_regex("a . (b + c)"))
        words = set(nfa.enumerate_words(max_length=5))
        assert words == {w("a b"), w("a c")}

    def test_shortest_word(self):
        nfa = build_nfa(parse_regex("a . b* . c"))
        assert nfa.shortest_word() == w("a c")

    def test_shortest_word_of_empty_language_raises(self):
        with pytest.raises(ValueError):
            build_nfa(EMPTY).shortest_word()


class TestTrim:
    def test_trim_is_a_method(self):
        from repro.rpq.automaton import NFA

        nfa = NFA(
            {0, 1, 2, 3},
            {0},
            {1},
            [(0, w("a")[0], 1), (1, w("b")[0], 2), (3, w("c")[0], 1)],
        )
        trimmed = nfa.trim()
        # state 2 cannot reach a final state, state 3 is unreachable
        assert trimmed.state_count() == 2
        assert trimmed.accepts(w("a"))
        assert not trimmed.accepts(w("a b"))

    def test_trim_of_empty_language_stays_valid(self):
        from repro.rpq.automaton import NFA

        trimmed = NFA({0, 1}, {0}, set(), [(0, w("a")[0], 1)]).trim()
        assert trimmed.state_count() == 1
        assert not trimmed.accepts(w("a"))
        assert not trimmed.accepts(())

    def test_module_level_alias_is_gone(self):
        # the deprecated free-function alias finished its removal cycle
        import repro.rpq.automaton as automaton_module

        assert not hasattr(automaton_module, "trim")
        assert "trim" not in automaton_module.__all__


class TestEnumerationDeterminism:
    """Lock in enumerate_words ordering before/after the core refactor."""

    SPECS = ["(a + b)* . c", "a . b* . c", "(a . b)+ + a . b . a . b", "A . (a . b-)*"]

    def test_two_builds_enumerate_identically(self):
        for spec in self.SPECS:
            one = list(
                build_nfa(parse_regex(spec)).enumerate_words(max_length=6, max_state_repeats=2)
            )
            two = list(
                build_nfa(parse_regex(spec)).enumerate_words(max_length=6, max_state_repeats=2)
            )
            assert one == two, spec

    def test_repeated_calls_on_one_nfa_are_identical(self):
        nfa = build_nfa(parse_regex("(a + b)* . (c + d)"))
        first = list(nfa.enumerate_words(max_length=5, max_state_repeats=2))
        second = list(nfa.enumerate_words(max_length=5, max_state_repeats=2))
        assert first == second

    def test_order_is_length_then_transition_sort(self):
        # words of equal length appear in the sorted-transition exploration
        # order: the enumerator visits transitions sorted by (repr, target)
        nfa = build_nfa(parse_regex("b + a + c"))
        assert list(nfa.enumerate_words(max_length=2)) == [w("a"), w("b"), w("c")]

    def test_compiled_words_match_direct_enumeration(self):
        from repro.core import compile_regex

        for spec in self.SPECS:
            regex = parse_regex(spec)
            direct = tuple(
                build_nfa(regex).enumerate_words(max_length=6, max_state_repeats=2, max_words=50)
            )
            assert compile_regex(regex).words(6, 2, 50) == direct, spec


# --------------------------------------------------------------------------- #
# build_nfa against the ε-elimination it replaced
# --------------------------------------------------------------------------- #
def quadratic_build_nfa(expr):
    """The earlier ε-elimination: every state is tested as the origin of every
    labelled transition.  Kept here only as the reference for build_nfa."""
    builder = _Builder()
    fragment = builder.build(expr)
    closures = bitset_closure(
        builder.counter,
        (
            (source, target)
            for source, targets in builder.epsilon.items()
            for target in targets
        ),
    )
    transitions = []
    for source, symbol, target in builder.labelled:
        source_bit = 1 << source
        for origin in range(builder.counter):
            if closures[origin] & source_bit:
                transitions.append((origin, symbol, target))
    end_bit = 1 << fragment.end
    final = {state for state in range(builder.counter) if closures[state] & end_bit}
    return NFA(range(builder.counter), {fragment.start}, final, transitions).trim()


def assert_matches_quadratic_builder(regex) -> None:
    built = build_nfa(regex)
    reference = quadratic_build_nfa(regex)
    assert list(built.transitions()) == list(reference.transitions()), str(regex)
    assert built.initial == reference.initial
    assert built.final == reference.final
    assert built.states == reference.states


def zoo_corpus_regexes():
    """Every distinct atom regex of the default zoo corpus's queries, in order."""
    regexes = []
    for pairs in zoo_corpus(ZOO_SEED).values():
        for left, right, _ in pairs:
            for query in (left, right):
                disjuncts = query.disjuncts if isinstance(query, UC2RPQ) else (query,)
                for disjunct in disjuncts:
                    regexes.extend(atom.regex for atom in disjunct.atoms)
    return list(dict.fromkeys(regexes))


def test_build_nfa_matches_quadratic_builder_on_the_zoo_corpus():
    regexes = zoo_corpus_regexes()
    assert len(regexes) > 100
    for regex in regexes:
        assert_matches_quadratic_builder(regex)


_leaf_regexes = st.one_of(
    st.sampled_from(["a", "b", "a-", "b-"]).map(edge),
    st.sampled_from(["A", "B"]).map(node),
)
_regexes = st.recursive(
    _leaf_regexes,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda pair: concat(*pair)),
        st.tuples(inner, inner).map(lambda pair: union(*pair)),
        inner.map(star),
        inner.map(plus),
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_regexes)
def test_build_nfa_matches_quadratic_builder_on_random_regexes(regex):
    assert_matches_quadratic_builder(regex)


# --------------------------------------------------------------------------- #
# build_nfa against the closure-inversion construction it replaced
# --------------------------------------------------------------------------- #
class _RecursiveBuilder(_Builder):
    """The recursive Thompson build that ``_Builder.build`` replaced, kept
    verbatim as part of the reference below."""

    def build(self, expr):
        if isinstance(expr, EmptyLanguage):
            return _Fragment(self.fresh(), self.fresh())
        if isinstance(expr, Epsilon):
            start, end = self.fresh(), self.fresh()
            self.add_epsilon(start, end)
            return _Fragment(start, end)
        if isinstance(expr, (NodeTest, EdgeStep)):
            start, end = self.fresh(), self.fresh()
            self.add_symbol(start, expr, end)
            return _Fragment(start, end)
        if isinstance(expr, Concat):
            left = self.build(expr.left)
            right = self.build(expr.right)
            self.add_epsilon(left.end, right.start)
            return _Fragment(left.start, right.end)
        if isinstance(expr, Union):
            left = self.build(expr.left)
            right = self.build(expr.right)
            start, end = self.fresh(), self.fresh()
            self.add_epsilon(start, left.start)
            self.add_epsilon(start, right.start)
            self.add_epsilon(left.end, end)
            self.add_epsilon(right.end, end)
            return _Fragment(start, end)
        if isinstance(expr, Star):
            inner = self.build(expr.inner)
            start, end = self.fresh(), self.fresh()
            self.add_epsilon(start, inner.start)
            self.add_epsilon(start, end)
            self.add_epsilon(inner.end, inner.start)
            self.add_epsilon(inner.end, end)
            return _Fragment(start, end)
        raise TypeError(f"unknown regex node: {expr!r}")


def closure_inversion_build_nfa(expr):
    """The earlier build_nfa, verbatim: the ε-closures of *every* state are
    inverted, each labelled transition is copied to every origin whose
    closure reaches it, and the trim then drops the unreachable origins.
    Kept here only as the reference for build_nfa."""
    builder = _RecursiveBuilder()
    fragment = builder.build(expr)
    closures = bitset_closure(
        builder.counter,
        (
            (source, target)
            for source, targets in builder.epsilon.items()
            for target in targets
        ),
    )
    origins = [[] for _ in range(builder.counter)]
    for origin, mask in enumerate(closures):
        while mask:
            low = mask & -mask
            origins[low.bit_length() - 1].append(origin)
            mask ^= low
    transitions = [
        (origin, symbol, target)
        for source, symbol, target in builder.labelled
        for origin in origins[source]
    ]
    return _trimmed((fragment.start,), origins[fragment.end], transitions)


def assert_matches_closure_inversion(regex) -> None:
    built = build_nfa(regex)
    reference = closure_inversion_build_nfa(regex)
    assert built._transitions == reference._transitions, str(regex)
    assert built.initial == reference.initial
    assert built.final == reference.final
    assert built.states == reference.states


def _compiled_regexes(run):
    """Every regex *run* compiles from a cold compile memo, in order."""
    built = []

    def recording_build_nfa(regex):
        built.append(regex)
        return build_nfa(regex)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(compile_module, "build_nfa", recording_build_nfa)
        clear_compile_memo()
        engine = ContainmentEngine()
        try:
            run(engine)
        finally:
            engine.close()
            clear_compile_memo()
    return built


def test_build_nfa_matches_closure_inversion_on_a_cold_zoo_pass():
    def run(engine):
        for pairs in zoo_corpus(ZOO_SEED).values():
            for left, right, schema in pairs:
                engine.contains(left, right, schema)

    regexes = _compiled_regexes(run)
    assert len(regexes) == 118
    # both ATM unions: the negative query's atom and its reversal
    atm_unions = [regex for regex in regexes if regex.size() > 1000]
    assert len(atm_unions) == 2
    assert atm_unions[0].reverse() == atm_unions[1]
    for regex in regexes:
        assert_matches_closure_inversion(regex)


def _perfbench_inputs():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_build_nfa_matches_closure_inversion_on_the_analysis_jobs():
    jobs = _perfbench_inputs().analysis_jobs()

    def run(engine):
        for job in jobs:
            job.run(engine)

    regexes = _compiled_regexes(run)
    assert len(regexes) == 75
    for regex in regexes:
        assert_matches_closure_inversion(regex)


_leaf_or_trivial_regexes = st.one_of(
    _leaf_regexes,
    st.sampled_from([EMPTY, EPSILON]),
)
_regexes_with_trivia = st.recursive(
    _leaf_or_trivial_regexes,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda pair: concat(*pair)),
        st.tuples(inner, inner).map(lambda pair: union(*pair)),
        inner.map(star),
        inner.map(lambda regex: star(star(regex))),
        inner.map(plus),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_regexes_with_trivia)
def test_build_nfa_matches_closure_inversion_on_random_regexes(regex):
    assert_matches_closure_inversion(regex)


def test_build_nfa_matches_closure_inversion_on_trivial_regexes():
    for regex in (EMPTY, EPSILON, star(EMPTY), star(star(EPSILON)), concat(EMPTY, star(edge("a"))),
                  union(EMPTY, EPSILON), star(union(star(edge("a")), EPSILON))):
        assert_matches_closure_inversion(regex)
