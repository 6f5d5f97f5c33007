"""The memoised TBox fingerprint and the cached statement tokens.

``TBox.canonical_fingerprint()`` is memoised on the TBox and every statement
caches its canonical token, so a completed TBox shared by many results is
canonicalised once.  These tests hold the memo against a from-scratch
reference after every mutation, check that neither cache reaches a pickle,
and count the canonicalisations the process backend's lightening costs.
"""

import hashlib
import pickle
from collections import Counter

import pytest

from repro.dl import ExistsCI, SubclassOf, SubclassOfBottom, TBox, conj, schema_to_extended_tbox
from repro.dl.tbox import _canonical_statement_token_uncached
from repro.engine import ContainmentEngine
from repro.engine.parallel import TBoxDigest, _lighten_containment
from repro.graph import forward
from repro.workloads import medical
from repro.workloads.zoo import ZOO_SEED, zoo_corpus


def reference_fingerprint(tbox: TBox) -> str:
    """SHA-256 of the sorted statement tokens, built without any cache."""
    tokens = sorted(_canonical_statement_token_uncached(statement) for statement in tbox)
    return hashlib.sha256(("tbox[" + ";".join(tokens) + "]").encode("utf-8")).hexdigest()


def assert_fresh(tbox: TBox) -> str:
    fingerprint = tbox.canonical_fingerprint()
    assert fingerprint == reference_fingerprint(tbox)
    return fingerprint


A_B = SubclassOf(conj("A"), "B")
B_C = SubclassOf(conj("B"), "C")
A_R_B = ExistsCI(conj("A"), forward("r"), conj("B"))
NOT_AC = SubclassOfBottom(conj("A", "C"))


@pytest.fixture
def tbox():
    result = TBox([A_B, A_R_B], name="T")
    assert_fresh(result)  # the memo is filled before every mutation below
    return result


class TestMemoInvalidation:
    def test_add(self, tbox):
        before = tbox.canonical_fingerprint()
        assert not tbox.add(A_B)
        assert assert_fresh(tbox) == before
        assert tbox.add(B_C)
        assert assert_fresh(tbox) != before

    def test_extend(self, tbox):
        before = tbox.canonical_fingerprint()
        assert tbox.extend([A_B, B_C, NOT_AC]) == 2
        assert assert_fresh(tbox) != before

    def test_discard(self, tbox):
        before = tbox.canonical_fingerprint()
        assert tbox.discard([B_C]) == 0
        assert assert_fresh(tbox) == before
        assert tbox.discard([A_B]) == 1
        assert assert_fresh(tbox) != before

    def test_union_with_new_statements(self, tbox):
        before = tbox.canonical_fingerprint()
        union = tbox.union(TBox([A_B, B_C], name="U"))
        assert assert_fresh(union) != before
        assert assert_fresh(tbox) == before

    def test_union_without_new_statements(self, tbox):
        before = tbox.canonical_fingerprint()
        union = tbox.union(TBox([A_R_B], name="U"))
        assert assert_fresh(union) == before

    def test_copy_then_mutate_the_copy(self, tbox):
        before = tbox.canonical_fingerprint()
        twin = tbox.copy(name="twin")
        assert assert_fresh(twin) == before
        twin.add(B_C)
        assert assert_fresh(twin) != before
        assert assert_fresh(tbox) == before

    def test_copy_then_mutate_the_original(self, tbox):
        before = tbox.canonical_fingerprint()
        twin = tbox.copy()
        tbox.discard([A_B])
        assert assert_fresh(tbox) != before
        assert assert_fresh(twin) == before

    def test_from_distinct(self, tbox):
        built = TBox.from_distinct([B_C, A_B, A_R_B])
        assert assert_fresh(built) != tbox.canonical_fingerprint()
        built.add(NOT_AC)
        assert_fresh(built)

    def test_pickle_round_trip(self, tbox):
        before = tbox.canonical_fingerprint()
        clone = pickle.loads(pickle.dumps(tbox))
        assert clone._fingerprint is None
        assert assert_fresh(clone) == before
        clone.add(B_C)
        assert assert_fresh(clone) != before


def test_caches_stay_out_of_pickles():
    tbox = schema_to_extended_tbox(medical.source_schema())
    before = pickle.dumps(tbox)
    assert_fresh(tbox)
    assert pickle.dumps(tbox) == before
    statement = next(iter(tbox))
    clone = pickle.loads(pickle.dumps(statement))
    assert "_canonical_token" in statement.__dict__
    assert "_canonical_token" not in clone.__dict__
    assert clone == statement


def _zoo_results(engine, families=None):
    return [
        engine.contains(left, right, schema)
        for family, pairs in zoo_corpus(ZOO_SEED).items()
        if families is None or family in families
        for left, right, schema in pairs
    ]


def test_memo_matches_the_reference_on_every_zoo_completion():
    engine = ContainmentEngine()
    try:
        results = _zoo_results(engine)
    finally:
        engine.close()
    completions = {id(r.completion.tbox): r.completion.tbox for r in results if r.completion}
    assert len(completions) == 126
    for tbox in completions.values():
        assert_fresh(tbox)  # computes and memoises
        assert_fresh(tbox)  # answers from the memo


def test_a_shared_completion_is_canonicalised_once(monkeypatch):
    calls = Counter()
    canonical_token = TBox.canonical_token

    def counting_canonical_token(self):
        calls[id(self)] += 1
        return canonical_token(self)

    monkeypatch.setattr(TBox, "canonical_token", counting_canonical_token)
    engine = ContainmentEngine()
    try:
        results = _zoo_results(engine, families=("atm-fragments",))
    finally:
        engine.close()
    assert len(results) == 18
    # one call per result, as separate worker chunks would lighten them
    digests = [_lighten_containment(result).completion.tbox for result in results]
    assert all(isinstance(digest, TBoxDigest) for digest in digests)
    shared, carriers = Counter(id(r.completion.tbox) for r in results).most_common(1)[0]
    assert carriers == 16
    assert calls[shared] == 1
    assert all(count == 1 for count in calls.values())
    assert [d.canonical_fingerprint() for d in digests] == [
        reference_fingerprint(r.completion.tbox) for r in results
    ]
