"""Every roll-up choice of a right union with disconnected disjuncts is decided.

A disjunct ``C₁ ∧ C₂`` is refuted by refuting either component, so ``¬Q`` is
one Horn TBox per choice of a component in every disjunct and ``P ⊆_S Q``
holds only if ``P`` is unsatisfiable modulo every choice.  The tests pin that
no choice is cut, that the engine's ``completions`` tier completes each
choice once per right query, and that a failed completion leaves no shorter
list behind.  The seeded family at the end checks the solver against the
bounded counterexample search.
"""

import random

import pytest

import repro.containment.solver as solver_module
from repro.containment import ContainmentSolver, find_counterexample
from repro.engine import ContainmentEngine, result_fingerprint
from repro.rpq import eval_uc2rpq, parse_uc2rpq
from repro.schema import Schema


@pytest.fixture
def completions(monkeypatch):
    """Counts the solver's calls of ``complete``, one per completed choice."""
    calls = []
    complete = solver_module.complete

    def counting(*args, **kwargs):
        calls.append(len(calls))
        return complete(*args, **kwargs)

    monkeypatch.setattr(solver_module, "complete", counting)
    return calls


def labels_schema():
    return Schema(["A", "B", "C"], ["r"], name="S")


#: two disjuncts of two components each: four choices
RIGHT = ["q0() := A(x), B(y)", "q1() := A(x), C(y)"]
#: modulo the first choice (refute A(x) in both) a lone C node satisfies it
NOT_CONTAINED = ["p() := C(x)"]
#: contained in q0, so unsatisfiable modulo every choice
CONTAINED = ["p() := A(x), B(y)"]


@pytest.mark.parametrize("disjuncts", [8, 9])
def test_a_counterexample_past_choice_256_is_found(disjuncts):
    # the first disjunct's B component is refuted only past index 2^(n-1) - 1
    names = [f"{prefix}{i}" for prefix in "AB" for i in range(9)]
    schema = Schema(names, ["r"], name="S")
    left = parse_uc2rpq(["p() := A0(x)"])
    right = parse_uc2rpq([f"q{i}() := A{i}(x), B{i}(y)" for i in range(disjuncts)])
    result = ContainmentSolver(schema).contains(left, right)
    assert not result.contained
    assert result.regime == "exact" and result.conclusive
    assert result.patterns_checked == 2 ** (disjuncts - 1) + 1
    assert find_counterexample(left, right, schema, max_nodes=1) is not None


def test_every_choice_is_completed_once_and_a_warm_repeat_completes_none(completions):
    # a non-containment answered by the first choice completes all four too:
    # the roll-up and its completions are eager, one list per right query
    schema, right = labels_schema(), parse_uc2rpq(RIGHT)
    engine = ContainmentEngine()
    for left in (NOT_CONTAINED, CONTAINED):
        cold = engine.contains(parse_uc2rpq(left), right, schema)
        assert cold.contained == (left is CONTAINED)
        assert len(completions) == 4
        assert result_fingerprint(engine.contains(parse_uc2rpq(left), right, schema)) == (
            result_fingerprint(cold)
        )
        # another name misses the results tier and reads the kept choices
        renamed = engine.contains(parse_uc2rpq(left, name="P2"), right, schema)
        assert renamed.contained == cold.contained
        assert len(completions) == 4


def test_a_failed_completion_leaves_no_cut_list(monkeypatch, completions):
    schema, left, right = labels_schema(), parse_uc2rpq(CONTAINED), parse_uc2rpq(RIGHT)
    counting, failed = solver_module.complete, []

    def failing_on_the_second_choice(*args, **kwargs):
        if len(completions) == 1 and not failed:
            failed.append(True)
            raise RuntimeError("completion failed")
        return counting(*args, **kwargs)

    monkeypatch.setattr(solver_module, "complete", failing_on_the_second_choice)
    engine = ContainmentEngine()
    with pytest.raises(RuntimeError, match="completion failed"):
        engine.contains(left, right, schema)
    assert engine.cache_sizes()["completions"] == 0
    del completions[:]

    result = engine.contains(left, right, schema)
    assert len(completions) == 4  # every choice, none taken from the failed call
    assert result_fingerprint(result) == result_fingerprint(
        ContainmentSolver(schema).contains(left, right)
    )


# --------------------------------------------------------------------------- #
# the seeded family: solver versus bounded counterexample search
# --------------------------------------------------------------------------- #
def family_schema():
    schema = Schema(["A", "B", "C"], ["r", "s"], name="F")
    schema.set_edge("A", "r", "B", "*", "*")
    schema.set_edge("B", "s", "C", "*", "*")
    schema.set_edge("C", "r", "A", "*", "*")
    schema.set_edge("A", "s", "A", "*", "*")
    return schema


LEFTS = [
    "p() := A(x)",
    "p() := C(x)",
    "p() := (r)(x, y)",
    "p() := (r . s)(x, y)",
    "p() := B(x), (s)(x, y)",
    "p() := (r)(x, y), (s)(y, z)",
]
COMPONENTS = [
    "A({x})",
    "B({x})",
    "C({x})",
    "(r)({x}, {y})",
    "(s)({x}, {y})",
    "(r . s)({x}, {y})",
    "(s-)({x}, {y}), A({x})",
    "(r)({x}, {y}), B({y})",
]
MAX_CHOICES = 512


def family_member(seed):
    """A left query and a right union of 2- and 3-component disjuncts whose
    product of component counts is at most ``MAX_CHOICES``."""
    rng = random.Random(seed)
    disjuncts, choices = [], 1
    while len(disjuncts) < 9:
        width = rng.choice([2, 3])
        if choices * width > MAX_CHOICES:
            break
        choices *= width
        atoms = [
            rng.choice(COMPONENTS).format(x=f"x{i}", y=f"y{i}")
            for i in range(width)
        ]
        disjuncts.append(f"q{len(disjuncts)}() := " + ", ".join(atoms))
    return parse_uc2rpq([rng.choice(LEFTS)], name="P"), parse_uc2rpq(disjuncts, name="Q")


@pytest.mark.parametrize("seed", range(12))
def test_family_agrees_with_the_counterexample_search(seed):
    schema = family_schema()
    left, right = family_member(seed)
    result = ContainmentSolver(schema).contains(left, right)
    counterexample = find_counterexample(left, right, schema, max_nodes=3)
    if counterexample is not None:
        assert not result.contained, counterexample
    if not result.contained:
        assert eval_uc2rpq(left, result.witness_pattern)
