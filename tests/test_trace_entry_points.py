"""perfbench/trace.py's wrappers must find every entry point they name.

The tracer wraps the program's functions and methods by name; renaming or
deleting one breaks the traced benchmark pass.  Installing and uninstalling
it here catches that in every test run.
"""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_trace", Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"
)
trace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trace)


def test_install_wraps_and_uninstall_restores_the_entry_points():
    import repro.containment.solver as solver

    build_pattern = solver.build_pattern
    contains = solver.ContainmentSolver.__dict__["contains"]
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert solver.build_pattern is not build_pattern
        assert solver.ContainmentSolver.__dict__["contains"] is not contains
    finally:
        tracer.uninstall()
    assert solver.build_pattern is build_pattern
    assert solver.ContainmentSolver.__dict__["contains"] is contains


def test_traced_zoo_pairs_reach_the_rerouted_entry_points():
    # the chase, the automaton build and the label branching were rewritten
    # under the names the tracer wraps; a few cold zoo pairs must still pass
    # through each of them
    from collections import Counter

    from repro.core import clear_compile_memo
    from repro.engine import ContainmentEngine
    from repro.workloads.zoo import ZOO_SEED, zoo_corpus

    pairs = zoo_corpus(ZOO_SEED)["property"][:6]
    clear_compile_memo()
    tracer = trace.Tracer()
    tracer.install()
    engine = ContainmentEngine()
    try:
        for left, right, schema in pairs:
            engine.contains(left, right, schema)
    finally:
        engine.close()
        tracer.uninstall()
    spans = Counter(span[0] for span in tracer.spans)
    for name in ("chase", "rpq.build_nfa", "core.compile", "completion", "solver"):
        assert spans[name] > 0, (name, spans)
    assert tracer.counts[None, "chase.calls"] > 0
    assert tracer.counts[None, "completion.calls"] > 0
