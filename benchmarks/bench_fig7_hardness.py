"""E6 — Figures 7/8, Theorem F.1: the EXPTIME-hardness reduction.

Measures (a) direct ATM acceptance checking, (b) the construction of the
reduction instance (schema + positive + negative query) as the input word and
space bound grow, and records the polynomial growth of the instance sizes —
the property the lower bound needs.  It also reports (report only, no gate)
how long the negative query's union takes to compile cold, and to how large
an automaton, as the space bound grows.
"""

import time

import pytest

from repro.core import clear_compile_memo, compile_regex
from repro.hardness import alternating_and_or_machine, build_instance, even_ones_machine


@pytest.mark.parametrize("word", ["11", "1100", "110010"])
def test_atm_acceptance(benchmark, word):
    machine = even_ones_machine()
    accepted = benchmark(lambda: machine.accepts(word))
    assert accepted == (word.count("1") % 2 == 0)


def test_alternating_machine_acceptance(benchmark):
    machine = alternating_and_or_machine()
    accepted = benchmark(lambda: machine.accepts("110"))
    assert accepted


@pytest.mark.parametrize("space", [2, 3, 4])
def test_reduction_construction_scaling(benchmark, space):
    machine = alternating_and_or_machine()
    instance = benchmark.pedantic(
        lambda: build_instance(machine, "11", space=space), rounds=3, iterations=1
    )
    sizes = instance.sizes()
    assert sizes["schema_node_labels"] == 4
    assert instance.positive.is_acyclic() and instance.negative.is_acyclic()


def test_reduction_sizes_grow_polynomially():
    machine = alternating_and_or_machine()
    sizes = [build_instance(machine, "11", space=space).sizes()["positive_size"] for space in (2, 3, 4)]
    # cubic-ish growth at worst for this construction: ratios stay bounded
    assert sizes[1] / sizes[0] < 8
    assert sizes[2] / sizes[1] < 8


def test_negative_union_compile_scaling():
    # report only: the Lemma C.2 roll-up needs the union's automaton in
    # linear size, and this line shows what building it costs per instance
    machine = alternating_and_or_machine()
    for space in (2, 3, 4):
        regex = build_instance(machine, "11", space=space).negative.atoms[0].regex
        clear_compile_memo()
        started = time.perf_counter()
        nfa = compile_regex(regex).nfa
        elapsed = time.perf_counter() - started
        transitions = sum(1 for _ in nfa.transitions())
        print(
            f"\nF.1 negative union, space {space}: {regex.size()} nodes compile cold in "
            f"{elapsed * 1000:.1f} ms to {nfa.state_count()} states, {transitions} transitions"
        )
    clear_compile_memo()
