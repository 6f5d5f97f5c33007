"""Differential correctness over the workload zoo.

Every prior PR asserted "fingerprints verified identical across backends"
as a manual ritual — one bench run, eyeballed.  This layer makes the claim
an enforced, seeded, reproducible test: one fixed-seed corpus of 200+
generated (schema, query) pairs plus the adversarial families, decided on
every execution backend (serial / process) crossed with the
persistence axis (no store / cold store / warm store), asserting
bit-identical verdicts **and** ``result_fingerprint``s against the serial
no-store baseline.

The fingerprint is the strong form of the check: it digests every
verdict-relevant field of a :class:`ContainmentResult` (containment bit,
regime, names, pattern counts, TBox fingerprint — everything except wall
time), so a backend that got the right boolean by a different computation
still fails here.
"""

import pytest

from repro.engine import ContainmentEngine, result_fingerprint
from repro.workloads.zoo import ZOO_SEED, property_corpus, zoo_corpus

BACKENDS = ("serial", "process")

#: ≥200 generated pairs, the acceptance floor for this layer.
SCHEMAS = 10
QUERIES_PER_SCHEMA = 20


@pytest.fixture(scope="module")
def corpus():
    pairs = property_corpus(ZOO_SEED, schemas=SCHEMAS, queries_per_schema=QUERIES_PER_SCHEMA)
    assert len(pairs) >= 200
    return pairs


@pytest.fixture(scope="module")
def baseline(corpus):
    """The serial, store-less ground truth: (verdicts, fingerprints)."""
    with ContainmentEngine() as engine:
        results = engine.check_many(corpus)
    return (
        [result.contained for result in results],
        [result_fingerprint(result) for result in results],
    )


def run_corpus(corpus, backend, persist=None):
    with ContainmentEngine(persist=persist) as engine:
        results = engine.check_many(corpus, parallel=backend)
    return (
        [result.contained for result in results],
        [result_fingerprint(result) for result in results],
    )


def test_corpus_is_seeded_and_distinct(corpus):
    """Same seed, same corpus — and the pairs do not collapse to one key."""
    again = property_corpus(ZOO_SEED, schemas=SCHEMAS, queries_per_schema=QUERIES_PER_SCHEMA)
    assert [
        (str(left), str(right), schema.canonical_fingerprint())
        for left, right, schema in corpus
    ] == [
        (str(left), str(right), schema.canonical_fingerprint())
        for left, right, schema in again
    ]
    keys = {
        (left.canonical_token(), right.canonical_token(), schema.canonical_fingerprint())
        for left, right, schema in corpus
    }
    # the regex space is small enough that a few pairs collide by chance;
    # what matters is that the corpus doesn't collapse to a handful of keys
    assert len(keys) >= 0.8 * len(corpus)


def test_baseline_has_both_verdicts(baseline):
    """A generator whose corpus is all-contained (or none) tests nothing."""
    verdicts, _ = baseline
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_matches_baseline_without_store(corpus, baseline, backend):
    assert run_corpus(corpus, backend) == baseline


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_matches_baseline_with_cold_store(corpus, baseline, backend, tmp_path):
    store = tmp_path / f"zoo-{backend}.db"
    assert run_corpus(corpus, backend, persist=store) == baseline


def test_warm_store_replay_matches_baseline(corpus, baseline, tmp_path):
    """A second engine over the populated store must replay bit-identically.

    Warm verdicts come off disk, not the solver — the round-trip through
    the store's serialisation is exactly where a fingerprint could silently
    drift, so the warm pass asserts both the fingerprints and that the
    store actually served hits (a silently disabled store would "pass" by
    re-solving).
    """
    store = tmp_path / "zoo-warm.db"
    cold = run_corpus(corpus, "serial", persist=store)
    assert cold == baseline
    with ContainmentEngine(persist=store) as engine:
        results = engine.check_many(corpus)
        hits = engine.store.stats.as_dict()["hits"]
    warm = (
        [result.contained for result in results],
        [result_fingerprint(result) for result in results],
    )
    assert warm == baseline
    assert hits == len(corpus)


@pytest.mark.parametrize("backend", ("process",))
def test_adversarial_families_match_serial(backend):
    """The hardness-derived suites agree across backends too.

    The tree-device and ATM-fragment pairs exercise regex shapes (nesting
    macros, wide signed-label unions under stars) the property generator
    rarely hits; a backend divergence localised to those shapes would slip
    past the property corpus.
    """
    families = zoo_corpus(families=("tree-device", "atm-fragments"))
    requests = [pair for family in families.values() for pair in family]
    serial = run_corpus(requests, "serial")
    assert run_corpus(requests, backend) == serial
