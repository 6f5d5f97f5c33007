"""The deprecation ledger: what is gone stays gone.

The retired shims (``nfa_cache_size`` on the engine and the worker pool, the
``_build_nfa`` solver hook, the module-level ``trim`` alias, and
``int(InvalidationReport)``, the bridge from ``invalidate_schema``'s former
bare-``int`` return) finished their cycle and are removed — the first half
of this file pins that down, so a shim cannot quietly come back.  The second
half checks that the supported replacements stay silent.
"""

import warnings

import pytest

from repro.containment.solver import ContainmentSolver
from repro.engine import ContainmentEngine, InvalidationReport
from repro.engine.parallel import WorkerPool
from repro.rpq import build_nfa, parse_regex
from repro.workloads import medical


# --------------------------------------------------------------------------- #
# removed shims stay removed
# --------------------------------------------------------------------------- #
def test_engine_nfa_cache_size_is_gone():
    with pytest.raises(TypeError, match="nfa_cache_size"):
        ContainmentEngine(nfa_cache_size=7)


def test_worker_pool_nfa_cache_size_is_gone():
    with pytest.raises(TypeError, match="nfa_cache_size"):
        WorkerPool(workers=1, nfa_cache_size=9)


def test_build_nfa_solver_hook_is_gone():
    assert not hasattr(ContainmentSolver, "_build_nfa")


def test_module_level_trim_is_gone():
    import repro.rpq.automaton as automaton_module

    assert not hasattr(automaton_module, "trim")
    # the method replacement stays
    assert build_nfa(parse_regex("a . b")).trim().state_count() > 0


def test_invalidation_report_int_is_gone():
    report = InvalidationReport("f" * 64, results=3, completions=2, automata=5)
    with pytest.raises(TypeError):
        int(report)
    assert report.results == 3  # the supported field for the former return value


# --------------------------------------------------------------------------- #
# the supported replacements
# --------------------------------------------------------------------------- #


def test_invalidate_schema_returns_a_structured_report():
    schema = medical.source_schema()
    engine = ContainmentEngine()
    engine.solver(schema)  # warm nothing: invalidation of a cold schema is all zeros
    report = engine.invalidate_schema(schema)
    assert isinstance(report, InvalidationReport)
    assert report.schema_fingerprint == schema.canonical_fingerprint()
    assert report.total == 0 and report.store_rows == 0
    assert set(report.tier_counts()) == {"results", "completions", "schema-tboxes", "automata"}


def test_modern_paths_emit_no_deprecation_warnings():
    """The supported APIs must stay silent."""
    schema = medical.source_schema()
    engine = ContainmentEngine(automaton_cache_size=16)
    solver = engine.solver(schema)
    regex = parse_regex("designTarget . crossReacting*")
    with warnings.catch_warnings(record=True) as recorded:
        warnings.simplefilter("always")
        solver._compile_automaton(regex)
        build_nfa(regex).trim()
        report = engine.invalidate_schema(schema)
        report.as_dict()
        report.summary()
        report.tier_counts()
    assert not [w for w in recorded if issubclass(w.category, DeprecationWarning)]
