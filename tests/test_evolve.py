"""Schema updates by invalidation: ``ContainmentEngine.invalidate_schema``.

The contract under test is bit-identity: after ``invalidate_schema(old)``,
every verdict and every ``result_fingerprint`` against the edited schema
must equal what a cold-started engine computes — across the serial and
process backends crossed with the persistence axis, on the seeded zoo
evolution corpus.  The re-run must also be warm where it can be: after a
small edit it compiles no automaton (the compile memo is keyed by regex, so
every bundle survives a multiplicity change; completed TBoxes must not).
"""

import pytest

from repro.engine import ContainmentEngine, InvalidationReport, result_fingerprint
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
# bit-identity with a cold start
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("persist", [False, True], ids=["no-store", "store"])
def test_post_evolve_matches_cold_start(corpus, cold_baseline, backend, persist, tmp_path):
    old_schema, new_schema, pairs = corpus
    path = tmp_path / "evolve.db" if persist else None
    with ContainmentEngine(persist=path) as engine:
        engine.check_many(pairs, schema=old_schema)  # warm the old namespace
        report = engine.invalidate_schema(old_schema)
        assert isinstance(report, InvalidationReport)
        results = engine.check_many(pairs, schema=new_schema, parallel=backend)
    assert [result_fingerprint(result) for result in results] == cold_baseline, (
        f"post-update {backend} run (persist={persist}) diverged from cold start"
    )


def test_evolved_store_replays_identically(corpus, cold_baseline, tmp_path):
    """A fresh engine over the updated store file reproduces the baseline."""
    old_schema, new_schema, pairs = corpus
    path = tmp_path / "evolve.db"
    with ContainmentEngine(persist=path) as engine:
        engine.check_many(pairs, schema=old_schema)
        engine.invalidate_schema(old_schema)
        engine.check_many(pairs, schema=new_schema)
    with ContainmentEngine(persist=path) as replay:
        results = replay.check_many(pairs, schema=new_schema)
        assert [result_fingerprint(result) for result in results] == cold_baseline
        assert replay.stats.store.hits == len(pairs)


# --------------------------------------------------------------------------- #
# what the update keeps warm, and what it drops
# --------------------------------------------------------------------------- #
def test_small_edit_keeps_compiled_automata(corpus):
    old_schema, new_schema, pairs = corpus
    with ContainmentEngine() as engine:
        engine.check_many(pairs, schema=old_schema)
        report = engine.invalidate_schema(old_schema)
        compiled_before = engine.stats.automata.misses
        engine.check_many(pairs, schema=new_schema)
        compiled_after = engine.stats.automata.misses
    assert compiled_after == compiled_before, "the post-update re-run compiled automata"
    assert report.schema_fingerprint == old_schema.canonical_fingerprint()
    # completed TBoxes embed the edited axioms: every one of them goes
    assert report.results == len(pairs)
    assert report.completions > 0 and report.schema_tboxes > 0
    assert report.as_dict()["schema_fingerprint"] == old_schema.canonical_fingerprint()


def test_trivial_evolve_keeps_everything(corpus):
    """A fingerprint-equal edit (a rename) keys the same entries: all hits."""
    old_schema, _, pairs = corpus
    renamed = old_schema.copy(name="renamed")
    assert renamed.canonical_fingerprint() == old_schema.canonical_fingerprint()
    with ContainmentEngine() as engine:
        engine.check_many(pairs[:4], schema=old_schema)
        hits_before = engine.stats.results.hits
        engine.check_many(pairs[:4], schema=renamed)
        assert engine.stats.results.hits == hits_before + 4


def test_evolve_deletes_the_old_namespace_from_the_store(corpus, tmp_path):
    old_schema, _, pairs = corpus
    path = tmp_path / "evolve.db"
    with ContainmentEngine(persist=path) as engine:
        engine.check_many(pairs, schema=old_schema)
        report = engine.invalidate_schema(old_schema)
        assert report.store_rows >= len(pairs), (
            "the old schema's persisted result rows must be dropped"
        )


def test_empty_left_verdicts_match_cold_start(corpus):
    """The one schema-blind verdict class is recomputed bit-identically."""
    old_schema, new_schema, pairs = corpus
    empty_left = UC2RPQ([], name="nothing")
    _, right = pairs[0]
    with ContainmentEngine() as engine:
        engine.contains(empty_left, right, old_schema)
        report = engine.invalidate_schema(old_schema)
        assert report.results == 1
        updated = engine.contains(empty_left, right, new_schema)
    with ContainmentEngine() as cold:
        fresh = cold.contains(empty_left, right, new_schema)
    assert result_fingerprint(updated) == result_fingerprint(fresh)
    assert updated.schema_name == new_schema.name


def test_live_worker_pool_answers_correctly_after_evolve(corpus, cold_baseline):
    """An already-started process pool answers post-update requests correctly."""
    old_schema, new_schema, pairs = corpus
    with ContainmentEngine(max_workers=2) as engine:
        engine.check_many(pairs, schema=old_schema, parallel="process")
        engine.invalidate_schema(old_schema)
        results = engine.check_many(pairs, schema=new_schema, parallel="process")
    assert [result_fingerprint(result) for result in results] == cold_baseline


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
