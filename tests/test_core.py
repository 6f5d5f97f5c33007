"""Tests for the compiled automaton core (repro.core)."""

import pickle

import repro.containment.rolling_up as rolling_up
import repro.core
from repro.core import clear_compile_memo, compile_memo_stats, compile_regex, has_productive_cycle
from repro.graph import Graph
from repro.rpq import UC2RPQ, build_nfa, eval_uc2rpq, parse_c2rpq, parse_regex


# --------------------------------------------------------------------------- #
# the compile memo
# --------------------------------------------------------------------------- #
class TestCompileRegex:
    def test_structurally_equal_regexes_share_one_compilation(self):
        clear_compile_memo()
        first = compile_regex(parse_regex("a . (b + c)*"))
        second = compile_regex(parse_regex("a . (b + c)*"))
        assert first is second

    def test_one_bundle_per_regex_in_the_solver_roll_up_and_evaluation(self, monkeypatch):
        clear_compile_memo()
        regex = parse_regex("a . b*")
        bundle = compile_regex(regex)

        seen = []

        def recording(compile_function):
            def compile_and_record(compiled_regex):
                compiled = compile_function(compiled_regex)
                seen.append((compiled_regex, compiled))
                return compiled

            return compile_and_record

        # the roll-up (Lemma C.2) reads the atom child → parent: (y, x)
        monkeypatch.setattr(rolling_up, "compile_regex", recording(rolling_up.compile_regex))
        rolling_up.roll_up_choices(UC2RPQ([parse_c2rpq("q() := (a . b*)(y, x)")]))
        # query evaluation imports compile_regex from repro.core at call time
        monkeypatch.setattr(repro.core, "compile_regex", recording(repro.core.compile_regex))
        graph = Graph()
        graph.add_edge(1, "a", 2)
        assert eval_uc2rpq(UC2RPQ([parse_c2rpq("p(x, y) := (a . b*)(x, y)")]), graph)
        matches = [compiled for compiled_regex, compiled in seen if compiled_regex == regex]
        assert len(matches) == 2 and all(compiled is bundle for compiled in matches)

    def test_memo_counts_hits_misses_and_clear_resets_them(self):
        clear_compile_memo()
        assert compile_memo_stats() == (0, 0, 0)
        regex = parse_regex("a . c*")
        compile_regex(regex)
        compile_regex(parse_regex("a . c*"))
        compile_regex(regex)
        assert compile_memo_stats() == (2, 1, 0)
        clear_compile_memo()
        assert compile_memo_stats() == (0, 0, 0)

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
        regex = parse_regex("(a + b)* . c")
        automaton = compile_regex(regex)
        # the pickle carries the regex and nothing else
        assert automaton.__reduce__() == (compile_regex, (regex,))
        clone = pickle.loads(pickle.dumps(automaton))
        assert clone is automaton  # same process: the memo deduplicates

    def test_has_productive_cycle_function(self):
        assert has_productive_cycle(build_nfa(parse_regex("a . b+ . c")))
        assert not has_productive_cycle(build_nfa(parse_regex("a . b . c")))
