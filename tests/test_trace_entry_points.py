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
