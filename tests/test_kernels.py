"""Tests for the bitset/NFA automaton kernels (:mod:`repro.core.kernels`).

Two layers of coverage:

* :func:`~repro.core.kernels.bitset_closure` on a hand-built edge list;
* kernel ↔ dict-walk equivalence: hypothesis-driven random regexes and the
  seeded zoo corpus generator, asserting that the NFA's kernel-backed
  ``enumerate_words`` yields word-for-word the same sequence as the
  historical dict-walk reference kept verbatim on the NFA.
"""

import random

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.kernels import bitset_closure
from repro.rpq.automaton import build_nfa
from repro.rpq.parser import parse_regex
from repro.workloads.zoo import random_regex

MAX_LENGTH = 6
MAX_STATE_REPEATS = 2
MAX_WORDS = 200


def test_bitset_closure_reflexive_transitive():
    closure = bitset_closure(4, [(0, 1), (1, 2)])
    assert closure[0] == 0b0111
    assert closure[1] == 0b0110
    assert closure[2] == 0b0100
    assert closure[3] == 0b1000


# --------------------------------------------------------------------------- #
# kernel ↔ dict-walk equivalence (hypothesis + zoo corpus)
# --------------------------------------------------------------------------- #
def assert_kernels_match_dictwalk(regex) -> None:
    """The NFA enumeration kernel equals its dict-walk reference for *regex*."""
    nfa = build_nfa(regex)
    kernel_words = tuple(
        nfa.enumerate_words(
            max_length=MAX_LENGTH, max_state_repeats=MAX_STATE_REPEATS, max_words=MAX_WORDS
        )
    )
    reference_words = tuple(
        nfa._enumerate_words_dictwalk(MAX_LENGTH, MAX_STATE_REPEATS, MAX_WORDS)
    )
    assert kernel_words == reference_words


@st.composite
def zoo_regexes(draw):
    """Seeded zoo-generator regexes, sized like the workload corpus."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    depth = draw(st.integers(min_value=1, max_value=3))
    rng = random.Random(seed)
    return random_regex(rng, ("a", "b", "c"), depth=depth)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(zoo_regexes())
def test_nfa_kernel_equals_dictwalk_over_zoo_regexes(regex):
    assert_kernels_match_dictwalk(regex)


def test_nfa_kernel_equals_dictwalk_over_fixed_corpus():
    for spec in (
        "a*",
        "(a + b)* . c",
        "(a + a . a)*",
        "b- . (a + c)* . b",
        "(a . (b + c))* . d?",
    ):
        assert_kernels_match_dictwalk(parse_regex(spec))
