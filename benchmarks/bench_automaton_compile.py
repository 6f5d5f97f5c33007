"""Compiled automaton core benchmark: cold vs memoized compilation.

Three claims are checked, each on a fixed literal corpus (no randomness, no
environment probing, so two runs on one machine measure the same work):

1. **compile memoization** — replaying the corpus against the warm
   :func:`repro.core.compile_regex` memo is **≥ 2× faster** than cold
   compilation (NFA + cycle flag + pumped enumeration);
2. **enumeration memoization** — serving the pumped word list from the
   compiled automaton's tuple is **≥ 2× faster** than re-running
   ``NFA.enumerate_words`` per request;
3. **NFA kernel** — the uncached per-word cost of the NFA's pumped search
   (the dominant Theorem 6.1 cost) is **≥ 5×** lower than the historical
   dict-walk implementation (``enumerate_words_dictwalk``, kept verbatim in
   ``tests/test_kernels.py``), word lists checked identical inside the
   harness before any clock starts.

The gate figures are acceptance thresholds below the typical measurement
(see the printed report lines).
"""

import sys
import time
from pathlib import Path
from typing import Any, Dict, Tuple

from repro.core import clear_compile_memo, compile_regex
from repro.rpq.automaton import build_nfa
from repro.rpq.parser import parse_regex

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_kernels import enumerate_words_dictwalk  # noqa: E402

GATE_SPEEDUP = 2.0
GATE_NFA_KERNEL_SPEEDUP = 5.0

# Pumped-enumeration-heavy expressions in the style of Figure 4 / Example 6.2
# (sparse-witness instances): stars under concatenation, overlapping union
# branches (which make the NFA enumerate duplicate words) and inverse steps.
CORPUS_SPECS: Tuple[str, ...] = (
    "a . b . c+ . d . a",
    "a*",
    "a* . b . d . a*",
    "(a + b)* . c",
    "(a . b)+ + a . b . a . b",
    "(a + a . a)*",
    "b- . (a + c)* . b",
    "(a . (b + c))* . d?",
    "A . (a . b-)*",
    "(a + b + c)* . d . (a + b)*",
)

# word-enumeration bounds shared by every timing below (comparable numbers)
MAX_LENGTH = 10
MAX_STATE_REPEATS = 2
MAX_WORDS = 400


def regex_corpus():
    """The fixed benchmark corpus, parsed fresh on every call."""
    return tuple(parse_regex(spec) for spec in CORPUS_SPECS)


def _force_compile(regex) -> None:
    """Compile *regex* and force every lazily derived artefact."""
    automaton = compile_regex(regex)
    automaton.has_productive_cycle()
    automaton.words(MAX_LENGTH, MAX_STATE_REPEATS, MAX_WORDS)


def compile_benchmark(repeats: int = 5) -> Dict[str, Any]:
    """Cold versus memoized compilation over the corpus.

    A cold round clears the process-wide compile memo first, so every regex
    pays for NFA construction, the cycle check and the pumped enumeration; a memoized round replays the same requests against
    the warm memo.
    """
    repeats = max(1, repeats)
    cold_seconds = []
    warm_seconds = []
    for _ in range(repeats):
        corpus = regex_corpus()  # fresh ASTs: no cached hashes/tokens either
        clear_compile_memo()
        started = time.perf_counter()
        for regex in corpus:
            _force_compile(regex)
        cold_seconds.append(time.perf_counter() - started)

        started = time.perf_counter()
        for regex in corpus:
            _force_compile(regex)
        warm_seconds.append(time.perf_counter() - started)

    cold = min(cold_seconds)
    warm = min(warm_seconds)
    return {
        "regexes": len(CORPUS_SPECS),
        "repeats": repeats,
        "cold_seconds": cold,
        "memoized_seconds": warm,
        "speedup": (cold / warm) if warm else float("inf"),
    }


def enumeration_benchmark(requests: int = 50) -> Dict[str, Any]:
    """Per-request NFA enumeration versus the memoized word tuple.

    The pre-core solvers re-ran ``NFA.enumerate_words`` for every roll-up
    choice, disjunct and batch request touching the same atom; the compiled
    automaton hands back one shared tuple instead.
    """
    requests = max(1, requests)
    corpus = regex_corpus()
    nfas = [build_nfa(regex) for regex in corpus]

    started = time.perf_counter()
    for _ in range(requests):
        for nfa in nfas:
            tuple(
                nfa.enumerate_words(
                    max_length=MAX_LENGTH,
                    max_state_repeats=MAX_STATE_REPEATS,
                    max_words=MAX_WORDS,
                )
            )
    uncached = time.perf_counter() - started

    clear_compile_memo()
    automata = [compile_regex(regex) for regex in corpus]
    for automaton in automata:
        automaton.words(MAX_LENGTH, MAX_STATE_REPEATS, MAX_WORDS)  # warm once
    started = time.perf_counter()
    for _ in range(requests):
        for automaton in automata:
            automaton.words(MAX_LENGTH, MAX_STATE_REPEATS, MAX_WORDS)
    memoized = time.perf_counter() - started

    return {
        "requests_per_regex": requests,
        "uncached_seconds": uncached,
        "memoized_seconds": memoized,
        "speedup": (uncached / memoized) if memoized else float("inf"),
        "nfa_states": sum(automaton.nfa.state_count() for automaton in automata),
    }


def _kernel_row(dictwalk_seconds: float, kernel_seconds: float, words: int) -> Dict[str, Any]:
    """One report row comparing the historical dict walk with the kernel."""
    return {
        "dictwalk_seconds": dictwalk_seconds,
        "kernel_seconds": kernel_seconds,
        "words": words,
        "dictwalk_microseconds_per_word": (dictwalk_seconds / words * 1e6) if words else None,
        "kernel_microseconds_per_word": (kernel_seconds / words * 1e6) if words else None,
        "speedup": (dictwalk_seconds / kernel_seconds) if kernel_seconds else float("inf"),
    }


def kernel_benchmark(requests: int = 50) -> Dict[str, Any]:
    """Dict-walk versus bitset-kernel NFA enumeration, equality-checked.

    The row times the *same* operation twice in the warm-object regime the
    solvers actually run in (automata compiled once, then queried per
    request — the regime of ``enumeration_benchmark``'s uncached row): the
    historical dict-walk implementation, kept verbatim as the reference, and
    the kernel path the public API routes through.  Before any clock starts,
    every word list is checked element-for-element against the reference — a
    mismatch raises :class:`RuntimeError` (a real exception, not ``assert``:
    the check must survive ``python -O``), so a regression names the kernel
    instead of showing up as a wrong verdict three layers up.

    The one row, ``nfa_enumeration``, is the pumped-normal-form search of
    Theorem 6.1 (the dominant uncached cost: byte-lane visit counters and
    presorted int adjacency versus dict frontiers); the ≥5x acceptance gate
    covers it.
    """
    requests = max(1, requests)
    corpus = regex_corpus()
    clear_compile_memo()
    nfas = [compile_regex(regex).nfa for regex in corpus]

    # --- equality first, clocks second ---------------------------------- #
    nfa_words = 0
    for nfa in nfas:
        reference = tuple(
            enumerate_words_dictwalk(nfa, MAX_LENGTH, MAX_STATE_REPEATS, MAX_WORDS)
        )
        kernel = tuple(
            nfa.enumerate_words(
                max_length=MAX_LENGTH,
                max_state_repeats=MAX_STATE_REPEATS,
                max_words=MAX_WORDS,
            )
        )
        if kernel != reference:
            raise RuntimeError(
                f"NFA kernel enumeration diverged from the dict walk for {nfa!r}: "
                f"{len(kernel)} kernel words vs {len(reference)} reference words"
            )
        nfa_words += len(reference)

    # best-of-*rounds* timing (like compile_benchmark): per-request ratios
    # on a sub-millisecond workload are noisy, minima are stable
    rounds = 3

    def best_of(body) -> float:
        best = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            for _ in range(requests):
                body()
            elapsed = time.perf_counter() - started
            if elapsed < best:
                best = elapsed
        return best

    def nfa_dictwalk_round() -> None:
        for nfa in nfas:
            tuple(enumerate_words_dictwalk(nfa, MAX_LENGTH, MAX_STATE_REPEATS, MAX_WORDS))

    def nfa_kernel_round() -> None:
        for nfa in nfas:
            tuple(
                nfa.enumerate_words(
                    max_length=MAX_LENGTH,
                    max_state_repeats=MAX_STATE_REPEATS,
                    max_words=MAX_WORDS,
                )
            )

    nfa_dictwalk = best_of(nfa_dictwalk_round)
    nfa_kernel = best_of(nfa_kernel_round)

    return {
        "requests_per_regex": requests,
        "nfa_enumeration": _kernel_row(nfa_dictwalk, nfa_kernel, nfa_words * requests),
    }


def test_compile_memoization_speedup():
    report = compile_benchmark()
    print(
        f"\ncompile: cold {report['cold_seconds'] * 1000:.2f} ms, "
        f"memoized {report['memoized_seconds'] * 1000:.2f} ms "
        f"({report['speedup']:.1f}x over {report['regexes']} regexes)"
    )
    assert report["speedup"] >= GATE_SPEEDUP, (
        f"memoized compilation speedup {report['speedup']:.2f}x < required {GATE_SPEEDUP}x"
    )


def test_enumeration_memoization_speedup():
    report = enumeration_benchmark()
    print(
        f"\nenumeration: uncached {report['uncached_seconds'] * 1000:.1f} ms, "
        f"memoized {report['memoized_seconds'] * 1000:.1f} ms ({report['speedup']:.1f}x)"
    )
    assert report["speedup"] >= GATE_SPEEDUP, (
        f"memoized enumeration speedup {report['speedup']:.2f}x < required {GATE_SPEEDUP}x"
    )


def test_kernel_speedups():
    # the harness itself asserts word-for-word enumeration identity before
    # any clock starts
    report = kernel_benchmark()
    nfa = report["nfa_enumeration"]
    print(
        f"\nkernels: nfa {nfa['dictwalk_microseconds_per_word']:.2f} -> "
        f"{nfa['kernel_microseconds_per_word']:.2f} us/word ({nfa['speedup']:.1f}x)"
    )
    assert nfa["speedup"] >= GATE_NFA_KERNEL_SPEEDUP, (
        f"NFA enumeration kernel speedup {nfa['speedup']:.2f}x "
        f"< required {GATE_NFA_KERNEL_SPEEDUP}x"
    )
