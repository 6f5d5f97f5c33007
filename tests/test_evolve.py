"""Incremental containment across schema edits: ``ContainmentEngine.evolve``.

The contract under test is bit-identity: after ``evolve(old, new)``, every
verdict and every ``result_fingerprint`` against the new schema must equal
what a cold-started engine computes — across the serial and process
backends crossed with the persistence axis, on the seeded zoo evolution
corpus.  The evolve is only worth having if the re-run is *also* warm, so
after a small edit the re-run must compile no automaton (the compile memo is
keyed by regex, so every bundle survives a multiplicity change; completed
TBoxes must not).
"""

import pytest

from repro.engine import (
    ContainmentEngine,
    EvolveReport,
    InvalidationReport,
    SchemaDelta,
    result_fingerprint,
)
from repro.rpq.queries import UC2RPQ
from repro.workloads import medical
from repro.workloads.zoo import evolution_corpus, single_axiom_edit

BACKENDS = ("serial", "process")
QUERIES = 16


@pytest.fixture(scope="module")
def corpus():
    return evolution_corpus(queries=QUERIES)


@pytest.fixture(scope="module")
def cold_baseline(corpus):
    """Ground truth on the *new* schema: a cold serial store-less engine."""
    _, new_schema, pairs = corpus
    with ContainmentEngine() as engine:
        results = [engine.contains(left, right, new_schema) for left, right in pairs]
    return [result_fingerprint(result) for result in results]


# --------------------------------------------------------------------------- #
# the delta layer
# --------------------------------------------------------------------------- #
def test_delta_classifies_the_single_axiom_edit(corpus):
    old_schema, new_schema, _ = corpus
    delta = SchemaDelta.between(old_schema, new_schema)
    assert not delta.is_empty
    assert not delta.added_node_labels and not delta.removed_node_labels
    assert not delta.added_edge_labels and not delta.removed_edge_labels
    assert len(delta.constraint_changes) == 1
    change = delta.constraint_changes[0]
    assert change.old != change.new


def test_delta_of_a_rename_is_empty(corpus):
    old_schema, _, _ = corpus
    renamed = old_schema.copy(name="renamed")
    delta = SchemaDelta.between(old_schema, renamed)
    assert delta.is_empty
    assert delta.old_fingerprint == delta.new_fingerprint
    assert not delta.constraint_changes


# --------------------------------------------------------------------------- #
# bit-identity with a cold start
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("persist", [False, True], ids=["no-store", "store"])
def test_post_evolve_matches_cold_start(corpus, cold_baseline, backend, persist, tmp_path):
    old_schema, new_schema, pairs = corpus
    path = tmp_path / "evolve.db" if persist else None
    with ContainmentEngine(persist=path) as engine:
        engine.check_many(pairs, schema=old_schema)  # warm the old namespace
        report = engine.evolve(old_schema, new_schema)
        assert isinstance(report, EvolveReport)
        results = engine.check_many(pairs, schema=new_schema, parallel=backend)
    assert [result_fingerprint(result) for result in results] == cold_baseline, (
        f"post-evolve {backend} run (persist={persist}) diverged from cold start"
    )


def test_evolved_store_replays_identically(corpus, cold_baseline, tmp_path):
    """A fresh engine over the evolved store file reproduces the baseline."""
    old_schema, new_schema, pairs = corpus
    path = tmp_path / "evolve.db"
    with ContainmentEngine(persist=path) as engine:
        engine.check_many(pairs, schema=old_schema)
        engine.evolve(old_schema, new_schema)
        engine.check_many(pairs, schema=new_schema)
    with ContainmentEngine(persist=path) as replay:
        results = replay.check_many(pairs, schema=new_schema)
        assert [result_fingerprint(result) for result in results] == cold_baseline
        assert replay.stats.store.hits == len(pairs)


# --------------------------------------------------------------------------- #
# the migration must be non-trivial — and honestly reported
# --------------------------------------------------------------------------- #
def test_small_edit_keeps_compiled_automata(corpus):
    old_schema, new_schema, pairs = corpus
    with ContainmentEngine() as engine:
        engine.check_many(pairs, schema=old_schema)
        report = engine.evolve(old_schema, new_schema)
        compiled_before = engine.stats.automata.misses
        engine.check_many(pairs, schema=new_schema)
        compiled_after = engine.stats.automata.misses
    assert not report.trivial
    assert compiled_after == compiled_before, "the post-evolve re-run compiled automata"
    assert report.kept == report.migrated
    # completed TBoxes embed the edited axioms: never migrated
    assert report.migrated["schema-tboxes"] == 0
    assert report.migrated["completions"] == 0
    assert isinstance(report.invalidation, InvalidationReport)
    assert report.invalidation.schema_fingerprint == old_schema.canonical_fingerprint()
    rendered = report.as_dict()
    assert rendered["delta"]["old_fingerprint"] == old_schema.canonical_fingerprint()
    assert rendered["invalidation"]["schema_fingerprint"] == old_schema.canonical_fingerprint()


def test_trivial_evolve_keeps_everything(corpus):
    """A fingerprint-equal edit (a rename) is a full-keep no-op."""
    old_schema, _, pairs = corpus
    renamed = old_schema.copy(name="renamed")
    with ContainmentEngine() as engine:
        engine.check_many(pairs[:4], schema=old_schema)
        report = engine.evolve(old_schema, renamed)
    assert report.trivial
    assert report.delta.is_empty
    assert report.invalidation is None
    assert report.kept["results"] == 4
    assert sum(report.invalidated.values()) == 0


def test_evolve_deletes_the_old_namespace_from_the_store(corpus, tmp_path):
    old_schema, new_schema, pairs = corpus
    path = tmp_path / "evolve.db"
    with ContainmentEngine(persist=path) as engine:
        engine.check_many(pairs, schema=old_schema)
        report = engine.evolve(old_schema, new_schema)
        assert report.store_deleted >= len(pairs), (
            "the old schema's persisted result rows must be dropped"
        )
        assert report.store_written == report.migrated["results"]


def test_empty_left_verdicts_migrate(corpus):
    """The one schema-blind verdict class survives the edit bit-identically."""
    old_schema, new_schema, pairs = corpus
    empty_left = UC2RPQ([], name="nothing")
    _, right = pairs[0]
    with ContainmentEngine() as engine:
        engine.contains(empty_left, right, old_schema)
        report = engine.evolve(old_schema, new_schema)
        assert report.migrated["results"] == 1
        hits_before = engine.stats.results.hits
        migrated = engine.contains(empty_left, right, new_schema)
        assert engine.stats.results.hits == hits_before + 1
    with ContainmentEngine() as cold:
        fresh = cold.contains(empty_left, right, new_schema)
    assert result_fingerprint(migrated) == result_fingerprint(fresh)
    assert migrated.schema_name == new_schema.name


def test_live_worker_pool_answers_correctly_after_evolve(corpus, cold_baseline):
    """An already-started process pool answers post-evolve requests correctly."""
    old_schema, new_schema, pairs = corpus
    with ContainmentEngine(max_workers=2) as engine:
        engine.check_many(pairs, schema=old_schema, parallel="process")
        engine.evolve(old_schema, new_schema)
        results = engine.check_many(pairs, schema=new_schema, parallel="process")
    assert [result_fingerprint(result) for result in results] == cold_baseline


def test_evolve_report_renders(corpus):
    old_schema, new_schema, pairs = corpus
    with ContainmentEngine() as engine:
        engine.check_many(pairs[:2], schema=old_schema)
        report = engine.evolve(old_schema, new_schema)
    text = report.summary()
    assert old_schema.canonical_fingerprint()[:12] in text
    assert new_schema.canonical_fingerprint()[:12] in text
    assert "migrated" in text and "invalidated" in text
    assert report.elapsed_seconds >= 0.0


def test_single_axiom_edit_changes_exactly_one_declared_constraint():
    schema = medical.source_schema()
    edited = single_axiom_edit(schema)
    before = dict(
        ((source, str(signed), target), str(mult))
        for source, signed, target, mult in schema.declared_constraints()
    )
    after = dict(
        ((source, str(signed), target), str(mult))
        for source, signed, target, mult in edited.declared_constraints()
    )
    assert set(before) == set(after)
    changed = [key for key in before if before[key] != after[key]]
    assert len(changed) == 1
