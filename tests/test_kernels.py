"""Tests for the bitset/NFA automaton kernels (:mod:`repro.core.kernels`).

Two layers of coverage:

* :func:`~repro.core.kernels.bitset_closure` on a hand-built edge list,
  against naive per-state BFS on random digraphs (cycles, self-loops,
  isolated states) and on the ε-edges of a 2,080-state Thompson NFA from
  the zoo's ATM fragments;
* kernel ↔ dict-walk equivalence: hypothesis-driven random regexes and the
  seeded zoo corpus generator, asserting that the NFA's kernel-backed
  ``enumerate_words`` yields word-for-word the same sequence as
  :func:`enumerate_words_dictwalk`, the historical implementation kept
  verbatim here (``benchmarks/bench_automaton_compile.py`` times the kernel
  against it), and that repeat bounds the kernel's byte counters cannot
  hold are rejected.
"""

import random
from typing import Iterator, List, Set, Tuple

import pytest

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.kernels import bitset_closure
from repro.rpq.automaton import build_nfa
from repro.rpq.parser import parse_regex
from repro.rpq.regex import Symbol
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
    assert bitset_closure(3, [(1, 1)]) == [0b001, 0b010, 0b100]
    assert bitset_closure(0, []) == []
    # two cycles joined one way: each cycle shares one mask
    closure = bitset_closure(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])
    assert closure[0] == closure[1] == 0b01111
    assert closure[2] == closure[3] == 0b01100
    assert closure[4] == 0b10000


def bfs_closure(num_states, edges):
    """Reference: per-state BFS reachability, as int masks."""
    successors = [[] for _ in range(num_states)]
    for source, target in edges:
        successors[source].append(target)
    closures = []
    for start in range(num_states):
        seen = {start}
        frontier = [start]
        while frontier:
            state = frontier.pop()
            for target in successors[state]:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        closures.append(sum(1 << state for state in seen))
    return closures


def random_digraph(rng):
    """A random digraph mixing a long cycle, self-loops, random edges and
    isolated states (states past the last edge endpoint)."""
    num_states = rng.randint(0, 40)
    edges = []
    if num_states:
        used = rng.randint(1, num_states)
        cycle = rng.sample(range(used), rng.randint(1, used))
        edges.extend(zip(cycle, cycle[1:] + cycle[:1]))
        edges.extend((state, state) for state in rng.sample(range(used), rng.randint(0, used)))
        edges.extend(
            (rng.randrange(used), rng.randrange(used)) for _ in range(rng.randint(0, 2 * used))
        )
        rng.shuffle(edges)
    return num_states, edges


def test_bitset_closure_equals_bfs_on_random_digraphs():
    rng = random.Random(20)
    for _ in range(3000):
        num_states, edges = random_digraph(rng)
        assert bitset_closure(num_states, edges) == bfs_closure(num_states, edges), (
            num_states,
            edges,
        )


def test_bitset_closure_equals_bfs_on_an_atm_thompson_nfa():
    from repro.hardness.atm import alternating_and_or_machine
    from repro.hardness.reduction import build_instance
    from repro.rpq.automaton import _Builder

    instance = build_instance(alternating_and_or_machine(), "11", space=2)
    builder = _Builder()
    builder.build(instance.negative.atoms[0].regex)
    edges = [
        (source, target)
        for source, targets in builder.epsilon.items()
        for target in targets
    ]
    assert builder.counter >= 2000
    assert bitset_closure(builder.counter, edges) == bfs_closure(builder.counter, edges)


# --------------------------------------------------------------------------- #
# kernel ↔ dict-walk equivalence (hypothesis + zoo corpus)
# --------------------------------------------------------------------------- #
def enumerate_words_dictwalk(
    nfa,
    max_length: int = 12,
    max_state_repeats: int = 2,
    max_words: int = 10_000,
) -> Iterator[Tuple[Symbol, ...]]:
    """The historical dict-walk enumeration, kept verbatim.

    :meth:`repro.rpq.automaton.NFA.enumerate_words` must stay word-for-word
    identical to this.
    """
    emitted = 0
    seen_words: Set[Tuple[Symbol, ...]] = set()
    # breadth-first search over (state, word, visit-counts)
    start: List[Tuple[int, Tuple[Symbol, ...], Tuple[Tuple[int, int], ...]]] = [
        (state, (), ((state, 1),)) for state in sorted(nfa.initial)
    ]
    frontier = start
    if nfa.accepts_epsilon() and () not in seen_words:
        seen_words.add(())
        emitted += 1
        yield ()
    length = 0
    while frontier and length < max_length and emitted < max_words:
        length += 1
        next_frontier: List[Tuple[int, Tuple[Symbol, ...], Tuple[Tuple[int, int], ...]]] = []
        for state, word, counts in frontier:
            count_map = dict(counts)
            for symbol, target in sorted(
                nfa.transitions_from(state), key=lambda pair: (repr(pair[0]), pair[1])
            ):
                visits = count_map.get(target, 0) + 1
                if visits > max_state_repeats:
                    continue
                new_word = word + (symbol,)
                new_counts = dict(count_map)
                new_counts[target] = visits
                if target in nfa.final and new_word not in seen_words:
                    seen_words.add(new_word)
                    emitted += 1
                    yield new_word
                    if emitted >= max_words:
                        return
                next_frontier.append((target, new_word, tuple(sorted(new_counts.items()))))
        frontier = next_frontier


def assert_kernels_match_dictwalk(regex) -> None:
    """The NFA enumeration kernel equals its dict-walk reference for *regex*."""
    nfa = build_nfa(regex)
    kernel_words = tuple(
        nfa.enumerate_words(
            max_length=MAX_LENGTH, max_state_repeats=MAX_STATE_REPEATS, max_words=MAX_WORDS
        )
    )
    reference_words = tuple(
        enumerate_words_dictwalk(nfa, MAX_LENGTH, MAX_STATE_REPEATS, MAX_WORDS)
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


def test_nfa_kernel_equals_dictwalk_when_visit_counts_reach_255():
    # words long enough for a cycle state to fill its byte lane: each
    # automaton accepts exactly 256 words under the bound
    for spec in ("a*", "(a . b)*", "A . (a . b-)*"):
        nfa = build_nfa(parse_regex(spec))
        kernel_words = tuple(
            nfa.enumerate_words(max_length=600, max_state_repeats=255, max_words=1000)
        )
        assert kernel_words == tuple(enumerate_words_dictwalk(nfa, 600, 255, 1000))
        assert len(kernel_words) == 256


@pytest.mark.parametrize("max_state_repeats", [256, -1])
def test_enumerate_words_rejects_repeat_bounds_outside_a_byte(max_state_repeats):
    nfa = build_nfa(parse_regex("a*"))
    with pytest.raises(ValueError, match="max_state_repeats"):
        nfa.enumerate_words(max_length=3, max_state_repeats=max_state_repeats)
