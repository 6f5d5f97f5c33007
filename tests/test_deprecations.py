"""The deprecation ledger: what is gone stays gone.

The retired shims (``nfa_cache_size`` on the engine and the worker pool, the
``_build_nfa`` solver hook, the module-level ``trim`` alias, and
``int(InvalidationReport)``, the bridge from ``invalidate_schema``'s former
bare-``int`` return) finished their cycle and are removed, as are the
``"thread"`` batch backend with its boolean ``parallel`` spellings, the
``"auto"`` backend with the cost model behind it, and the DFA layer the
solver never reached (``repro.core.dfa``, ``DenseDFA``, the optional numpy
accelerator and the per-schema symbol tables), and the schema-partitioned
automaton caches (the engine's ``automata`` tier with its
``automaton_cache_size`` knob, the worker pool's cache-size knobs, the
compile memo's ``context`` and the ``rebase_compiled``/``install_compiled``
migration hooks), and the schema-evolution layer (``engine.evolve``, the
``repro.engine.delta`` module with ``SchemaDelta``, ``ConstraintChange``,
``EvolveReport`` and ``REPORT_TIERS``, and ``cache evolve``: a schema update
is an ``invalidate_schema`` of the old schema), and the store's
``schema-tboxes`` tier (``repro.store.TIERS``, the ``tier`` argument of the
store calls, ``cache clear --tier``) with the engine's extended-fingerprint
index (``_record_extended``, ``_schema_index``), and the process backend's
analysis jobs (``parallel=`` and ``max_workers=`` of ``type_check_many`` and
``check_equivalence_many``, the ``typecheck``/``equivalence`` task kinds with
the raw wire mode and the worker's solved-row recorder) together with
``WorkerPool(start_method=)``, and the workers' read-only store opens
(``persist_mode=`` on the engine and the service, ``WorkerPool(persist=)``)
with the coalescer's duplicate worker count ``RequestCoalescer(max_workers=)``,
and the analysis wrappers (the serial batch module ``repro.analysis.batch``
with ``type_check_many`` and ``check_equivalence_many``, the
``StatementChecker`` query caches and call tally, ``CoverageResult``'s call
tally) with the engine surface nothing called (``ContainmentEngine.satisfiable``
and ``.equivalent``, ``ContainmentRequest``, the ``_compile_automaton`` solver
hook) — the first half of this file
pins that down, so a shim cannot quietly come back.  The second half checks
that the supported replacements stay silent.
"""

import importlib.util
import inspect
import warnings

import pytest

import repro
import repro.core
import repro.core.kernels
from repro.containment.solver import ContainmentSolver
from repro.core import CompiledAutomaton, compile_regex
import repro.engine
import repro.engine.engine
import repro.engine.parallel
import repro.store
import repro.store.store
from repro.analysis import CoverageResult, StatementChecker
from repro.cli import main
from repro.engine import ContainmentEngine, InvalidationReport
from repro.engine.parallel import WorkerPool
from repro.rpq import NFA, build_nfa, parse_regex
from repro.service import ContainmentService, RequestCoalescer
from repro.store import ResultStore
from repro.workloads import medical
from repro.workloads.batches import containment_batch


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
    report = InvalidationReport("f" * 64, results=3, completions=2)
    with pytest.raises(TypeError):
        int(report)
    assert report.results == 3  # the supported field for the former return value


def test_thread_backend_is_gone():
    schema, pairs = containment_batch("medical")
    engine = ContainmentEngine()
    for removed in (True, False, "thread", "auto"):
        with pytest.raises(ValueError, match="expected 'serial' or 'process'"):
            engine.check_many(pairs, schema=schema, parallel=removed)
    # the selector that carried the gil_enabled switch went with "auto"
    assert not hasattr(repro.engine, "AdaptiveSelector")


def test_auto_backend_is_gone():
    with pytest.raises(ValueError, match="unknown backend 'auto'"):
        ContainmentService(parallel="auto")
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--parallel", "auto", "--stdio"])
    assert exit_info.value.code == 2  # an argparse usage error, not a served run
    assert importlib.util.find_spec("repro.engine.adaptive") is None
    for name in ("adaptive_report", "selector"):
        assert not hasattr(ContainmentEngine, name), name


def test_schema_partitioned_automaton_caches_are_gone():
    with pytest.raises(TypeError, match="automaton_cache_size"):
        ContainmentEngine(automaton_cache_size=16)
    for knob in (
        "result_cache_size",
        "completion_cache_size",
        "schema_tbox_cache_size",
        "automaton_cache_size",
    ):
        with pytest.raises(TypeError, match=knob):
            WorkerPool(workers=1, **{knob: 8})
    for name in ("rebase_compiled", "install_compiled"):
        assert not hasattr(repro.core, name), name
    assert not hasattr(CompiledAutomaton, "context")
    assert not hasattr(ContainmentSolver(medical.source_schema()), "_memo_context")
    with pytest.raises(TypeError):
        InvalidationReport("f" * 64, automata=5)


def test_schema_evolution_layer_is_gone(tmp_path):
    assert not hasattr(ContainmentEngine, "evolve")
    assert importlib.util.find_spec("repro.engine.delta") is None
    for name in ("SchemaDelta", "ConstraintChange", "EvolveReport", "REPORT_TIERS"):
        assert not hasattr(repro.engine, name), name
        assert not hasattr(repro, name), name
    schema_file = tmp_path / "schema.txt"
    schema_file.write_text("schema S { nodes A; }", encoding="utf-8")
    with pytest.raises(SystemExit) as exit_info:
        main([
            "cache", "evolve",
            "--old", str(schema_file),
            "--new", str(schema_file),
            "--persist", str(tmp_path / "cache.db"),
        ])
    assert exit_info.value.code == 2  # an argparse usage error, not a migration


def test_store_tiers_are_gone(tmp_path):
    assert not hasattr(repro.store, "TIERS")
    assert not hasattr(repro.store.store, "TIERS")
    assert list(inspect.signature(ResultStore.get).parameters) == ["self", "key"]
    store = ResultStore(tmp_path / "cache.db")
    with pytest.raises(TypeError):
        store.get("results", "key")
    store.close()
    with pytest.raises(SystemExit) as exit_info:
        main(["cache", "clear", "--persist", str(tmp_path / "cache.db"), "--tier", "results"])
    assert exit_info.value.code == 2  # an argparse usage error


def test_extended_fingerprint_index_is_gone():
    assert not hasattr(ContainmentEngine, "_record_extended")
    assert not hasattr(ContainmentEngine(), "_schema_index")
    assert not hasattr(repro.engine.engine, "_SCHEMA_INDEX_LIMIT")


def test_process_analysis_jobs_are_gone():
    # the batch helpers that carried parallel=/max_workers= went next, whole
    assert importlib.util.find_spec("repro.analysis.batch") is None
    with pytest.raises(TypeError, match="start_method"):
        WorkerPool(workers=1, start_method="fork")
    for name in ("_run_task", "_lighten_for_transport"):
        assert not hasattr(repro.engine.parallel, name), name
    assert not hasattr(ContainmentEngine(), "_solved_rows")
    # one task kind, one wire mode: no kind argument, no raw (token-less) path
    assert list(inspect.signature(WorkerPool.run_batch).parameters) == [
        "self", "payloads", "routing_keys", "transport_tokens",
    ]


def test_worker_store_opens_are_gone(tmp_path):
    path = tmp_path / "cache.db"
    with pytest.raises(TypeError, match="persist_mode"):
        ContainmentEngine(persist=path, persist_mode="ro")
    with pytest.raises(TypeError, match="persist_mode"):
        ContainmentService(persist=path, persist_mode="ro")
    with pytest.raises(TypeError, match="persist"):
        WorkerPool(workers=1, persist=path)
    assert list(inspect.signature(repro.engine.parallel._worker_main).parameters) == [
        "worker_id", "config", "inbox", "outbox",
    ]
    assert not hasattr(repro.store.StoreStats, "merge")
    with ContainmentEngine() as engine:
        with pytest.raises(TypeError, match="max_workers"):
            RequestCoalescer(engine, max_workers=2)


def test_analysis_wrappers_are_gone():
    import repro.analysis

    assert importlib.util.find_spec("repro.analysis.batch") is None
    for name in ("type_check_many", "check_equivalence_many"):
        assert not hasattr(repro.analysis, name), name
        assert not hasattr(repro, name), name
    # the grouped queries live on the transformation, the count on the solver
    checker = StatementChecker(medical.migration(), medical.source_schema())
    for name in ("node_query", "edge_query", "_contains", "containment_calls",
                 "_node_queries", "_edge_queries"):
        assert not hasattr(checker, name), name
    assert "containment_calls" not in CoverageResult.__dataclass_fields__


def test_uncalled_engine_surface_is_gone():
    for name in ("satisfiable", "equivalent"):
        assert not hasattr(ContainmentEngine, name), name
    for module in (repro, repro.engine, repro.engine.engine):
        assert not hasattr(module, "ContainmentRequest"), module
    assert not hasattr(ContainmentSolver, "_compile_automaton")


def test_dfa_layer_is_gone():
    for name in ("DFA", "determinize", "SymbolTable", "symbol_table", "adopt_context"):
        assert not hasattr(repro.core, name), name
    for module in ("repro.core.dfa", "repro.core.interning"):
        assert importlib.util.find_spec(module) is None, module
    for name in ("DenseDFA", "numpy_module", "subset_construct"):
        assert not hasattr(repro.core.kernels, name), name
    for name in ("dfa", "minimal_dfa", "shortest_witness"):
        assert not hasattr(CompiledAutomaton, name), name
    assert not hasattr(NFA, "to_dfa")


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
    assert set(report.tier_counts()) == {"results", "completions", "schema-tboxes"}


def test_modern_paths_emit_no_deprecation_warnings():
    """The supported APIs must stay silent."""
    schema = medical.source_schema()
    engine = ContainmentEngine()
    regex = parse_regex("designTarget . crossReacting*")
    with warnings.catch_warnings(record=True) as recorded:
        warnings.simplefilter("always")
        compile_regex(regex)
        build_nfa(regex).trim()
        report = engine.invalidate_schema(schema)
        report.as_dict()
        report.summary()
        report.tier_counts()
    assert not [w for w in recorded if issubclass(w.category, DeprecationWarning)]
