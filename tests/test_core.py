"""Tests for the compiled automaton core (repro.core)."""

import pickle

from repro.core import clear_compile_memo, compile_regex, has_productive_cycle
from repro.rpq import build_nfa, parse_regex


# --------------------------------------------------------------------------- #
# the compile memo
# --------------------------------------------------------------------------- #
class TestCompileRegex:
    def test_structurally_equal_regexes_share_one_compilation(self):
        clear_compile_memo()
        first = compile_regex(parse_regex("a . (b + c)*"))
        second = compile_regex(parse_regex("a . (b + c)*"))
        assert first is second

    def test_contexts_are_separate(self):
        clear_compile_memo()
        regex = parse_regex("a . b")
        assert compile_regex(regex, "ctx-one") is not compile_regex(regex, "ctx-two")

    def test_clear_resets_the_memo(self):
        clear_compile_memo()
        regex = parse_regex("a+")
        first = compile_regex(regex)
        assert clear_compile_memo() >= 1
        assert compile_regex(regex) is not first

    def test_words_tuple_is_memoized_and_matches_nfa(self):
        automaton = compile_regex(parse_regex("(a + b)* . c"))
        words = automaton.words(6, 2, 100)
        assert words is automaton.words(6, 2, 100)  # same tuple object
        assert words == tuple(
            automaton.nfa.enumerate_words(max_length=6, max_state_repeats=2, max_words=100)
        )

    def test_flags(self):
        assert compile_regex(parse_regex("a*")).has_productive_cycle()
        assert not compile_regex(parse_regex("a . b")).has_productive_cycle()
        assert compile_regex(parse_regex("<empty> . a")).is_empty()
        assert not compile_regex(parse_regex("a")).is_empty()

    def test_pickle_rebuilds_through_the_memo(self):
        clear_compile_memo()
        automaton = compile_regex(parse_regex("(a + b)* . c"), "ctx-pickle")
        clone = pickle.loads(pickle.dumps(automaton))
        assert clone is automaton  # same process: the memo deduplicates
        assert clone.context == "ctx-pickle"

    def test_has_productive_cycle_function(self):
        assert has_productive_cycle(build_nfa(parse_regex("a . b+ . c")))
        assert not has_productive_cycle(build_nfa(parse_regex("a . b . c")))
