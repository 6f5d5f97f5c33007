"""Each schema is encoded once: the bulk-built ``T_S``, the memoised
:class:`repro.chase.TBoxIndex` of a TBox, and the per-schema ``S°`` and
allowed-edge memos.

The committed fixture ``data/schema_tbox_order.json`` pins the *order* of
the encoded statements, which :meth:`TBox.canonical_fingerprint` (a digest
of the sorted statement tokens) cannot see: the chase merges and seeds in
statement order.  It holds, keyed by schema fingerprint, the ordered digest
of ``schema_to_extended_tbox(S°)`` for every extended schema ``S°`` that a
cold pass over the zoo corpus and over the analysis jobs encodes, and of
``schema_to_l0(target)`` for every type-check target.  It was written by the
triple-by-triple encoder that the bulk encoder replaced; rerunning this file
as a script (``PYTHONPATH=src python tests/test_encoding_memos.py``) prints
the digests of the checkout it runs in.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import sys
import threading
from pathlib import Path

import pytest

from repro.analysis import check_equivalence, elicit_schema, type_check
from repro.chase import ChaseEngine, TBoxIndex
from repro.containment import cycle_reversal
from repro.containment import solver as containment_solver
from repro.containment.booleanize import booleanize
from repro.containment.cycle_reversal import complete, simplify_s_driven
from repro.dl import TBox, label_coverage_statement, schema_to_extended_tbox, schema_to_l0
from repro.dl.concepts import AtMostOneCI, ExistsCI, conj
from repro.dl.tbox import canonical_statement_token
from repro.engine import ContainmentEngine
from repro.exceptions import SchemaError, SolverError, TBoxError
from repro.graph.labels import forward, inverse
from repro.rpq import parse_c2rpq
from repro.rpq.queries import UC2RPQ
from repro.schema import Multiplicity, Schema
from repro.workloads import fhir, medical, social, synthetic
from repro.workloads.zoo import ZOO_SEED, zoo_corpus

_ORDER_FIXTURE = Path(__file__).parent / "data" / "schema_tbox_order.json"


def ordered_digest(tbox: TBox) -> str:
    """SHA-256 over the statement tokens in iteration order."""
    text = "\n".join(canonical_statement_token(statement) for statement in tbox)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def typecheck_targets():
    """The target schema of every analysis type-check job."""
    targets = [medical.target_schema(), fhir.schema_v4(), social.schema_v2()]
    return targets + [synthetic.chain_schema(length) for length in (2, 4, 6)]


def analysis_jobs():
    """The 24 type checking, equivalence and elicitation jobs of perfbench's
    ``analysis`` workload, each a function of the engine it runs on."""
    s0, s1 = medical.source_schema(), medical.target_schema()
    v3, v4 = fhir.schema_v3(), fhir.schema_v4()
    g1, g2 = social.schema_v1(), social.schema_v2()
    t_med = medical.migration()
    t_fhir = fhir.migration_v3_to_v4()
    t_soc = social.reification()

    def typecheck(transformation, source, target):
        return lambda engine: type_check(transformation, source, target, engine=engine)

    def equivalent(left, right, schema):
        return lambda engine: check_equivalence(left, right, schema, engine=engine)

    def elicit(transformation, source):
        return lambda engine: elicit_schema(transformation, source, engine=engine)

    jobs = [
        typecheck(t_med, s0, s1),
        typecheck(medical.broken_migration(), s0, s1),
        typecheck(medical.redundant_migration(), s0, s1),
        typecheck(t_fhir, v3, v4),
        typecheck(fhir.broken_migration_v3_to_v4(), v3, v4),
        typecheck(t_soc, g1, g2),
        typecheck(social.broken_reification(), g1, g2),
        equivalent(t_med, medical.redundant_migration(), s0),
        equivalent(t_med, medical.broken_migration(), s0),
        equivalent(t_fhir, fhir.broken_migration_v3_to_v4(), v3),
        equivalent(t_soc, social.broken_reification(), g1),
        elicit(t_med, s0),
        elicit(medical.broken_migration(), s0),
        elicit(t_fhir, v3),
        elicit(t_soc, g1),
    ]
    for length in (2, 4, 6):
        chain = synthetic.chain_schema(length)
        copy = synthetic.chain_copy_transformation(length)
        jobs.append(typecheck(copy, chain, chain))
        jobs.append(equivalent(copy, synthetic.chain_copy_transformation(length), chain))
        jobs.append(elicit(synthetic.chain_collapse_transformation(length), chain))
    return jobs


def run_analysis(engine):
    for job in analysis_jobs():
        job(engine)


def run_zoo(engine):
    for pairs in zoo_corpus(ZOO_SEED).values():
        for left, right, schema in pairs:
            engine.contains(left, right, schema)


CORPORA = {"analysis": run_analysis, "zoo": run_zoo}


def encoded_extended_schemas():
    """Every ``S°`` that cold passes over both corpora encode, by fingerprint."""
    schemas = {}
    original = containment_solver.schema_to_extended_tbox

    def recording(schema):
        schemas[schema.canonical_fingerprint()] = schema
        return original(schema)

    containment_solver.schema_to_extended_tbox = recording
    try:
        for run in CORPORA.values():
            engine = ContainmentEngine()
            try:
                run(engine)
            finally:
                engine.close()
    finally:
        containment_solver.schema_to_extended_tbox = original
    return schemas


def order_digests():
    """The fixture's content, computed by the checkout this runs in."""
    return {
        "extended": {
            key: ordered_digest(schema_to_extended_tbox(schema))
            for key, schema in sorted(encoded_extended_schemas().items())
        },
        "l0": {
            schema.canonical_fingerprint(): ordered_digest(schema_to_l0(schema))
            for schema in typecheck_targets()
        },
    }


# --------------------------------------------------------------------------- #
# one instrumented cold pass per corpus
# --------------------------------------------------------------------------- #
_BUCKETS = ("subclass", "bottoms", "forall", "exists", "no_exists", "at_most")
_ROLE_BUCKETS = ("forall_by_role", "exists_by_role", "no_exists_by_role", "at_most_by_role")


def assert_same_buckets(index, reference):
    """Every bucket holds the same statements in the same order."""
    for name in _BUCKETS:
        assert getattr(index, name) == getattr(reference, name), name
    for name in _ROLE_BUCKETS:
        assert list(getattr(index, name).items()) == list(getattr(reference, name).items()), name


class _Pass:
    """Counts the from-scratch index builds of one cold pass, and records
    every union ``T̂_S° ∪ T_¬Q`` and every completion's index uses."""

    def __init__(self, monkeypatch, run):
        self.builds = 0
        self.encoded = set()
        self.unions = []
        # per complete() call with a finmod cycle: its rounds, and whether the
        # TBox changed after the last round's index (simplification or a
        # last round that still added statements)
        self.completions = []
        last_indexed = []
        recorder = self
        init, union, of = TBoxIndex.__init__, TBox.union, TBoxIndex.of.__func__
        encode, run_complete = containment_solver.schema_to_extended_tbox, containment_solver.complete

        def counting_init(index, tbox):
            recorder.builds += 1
            init(index, tbox)

        def recording_union(tbox, other, name=None):
            result = union(tbox, other, name)
            recorder.unions.append(result)
            return result

        def recording_encode(schema):
            recorder.encoded.add(schema.canonical_fingerprint())
            return encode(schema)

        def snapshot_of(cls, tbox):
            last_indexed[:] = [tbox.statements()]
            return of(cls, tbox)

        def recording_complete(*args, **kwargs):
            last_indexed.clear()
            result = run_complete(*args, **kwargs)
            if not result.skipped:
                changed = result.tbox.statements() != last_indexed[0]
                recorder.completions.append((result.rounds, changed))
            return result

        with monkeypatch.context() as patch:
            patch.setattr(TBoxIndex, "__init__", counting_init)
            patch.setattr(TBox, "union", recording_union)
            patch.setattr(containment_solver, "schema_to_extended_tbox", recording_encode)
            patch.setattr(containment_solver, "complete", recording_complete)
            patch.setattr(cycle_reversal.TBoxIndex, "of", classmethod(snapshot_of))
            engine = ContainmentEngine()
            try:
                run(engine)
            finally:
                engine.close()


@pytest.fixture(scope="module", params=sorted(CORPORA))
def cold_pass(request):
    with pytest.MonkeyPatch.context() as monkeypatch:
        yield request.param, _Pass(monkeypatch, CORPORA[request.param])


class TestIndexBuilds:
    def test_one_build_per_schema_tbox_and_changed_completion_round(self, cold_pass):
        corpus, recorded = cold_pass
        # every T̂_S° is bucketed once; a union derives its index from it; a
        # completion round rebuilds only after the round before it added
        # statements, and the chase reuses the last round's index unless the
        # TBox changed after it
        expected = len(recorded.encoded) + sum(
            rounds - 1 + changed for rounds, changed in recorded.completions
        )
        assert recorded.builds == expected
        assert recorded.builds == {"analysis": 26, "zoo": 52}[corpus]
        assert len(recorded.encoded) == {"analysis": 26, "zoo": 12}[corpus]

    def test_derived_index_matches_an_index_of_the_union(self, cold_pass, monkeypatch):
        corpus, recorded = cold_pass
        assert len(recorded.unions) >= len(recorded.encoded)
        fresh = [TBoxIndex(union) for union in recorded.unions]
        builds = []
        init = TBoxIndex.__init__

        def counting_init(index, tbox):
            builds.append(tbox)
            init(index, tbox)

        monkeypatch.setattr(TBoxIndex, "__init__", counting_init)
        derived = [TBoxIndex.of(union) for union in recorded.unions]
        # every union kept the index it derived from T̂_S°'s
        assert builds == []
        for index, reference in zip(derived, fresh):
            assert_same_buckets(index, reference)


class TestStatementOrder:
    def test_encoded_tboxes_keep_the_committed_statement_order(self):
        expected = json.loads(_ORDER_FIXTURE.read_text())
        assert len(expected["extended"]) == 38 and len(expected["l0"]) == 6
        assert order_digests() == expected

    def test_bulk_construction_rejects_repeats(self, medical_source_schema):
        statements = list(schema_to_l0(medical_source_schema))
        assert TBox.from_distinct(statements) == TBox(statements)
        with pytest.raises(TBoxError):
            TBox.from_distinct(statements + statements[:1])
        with pytest.raises(TBoxError):
            TBox.from_distinct(statements + ["A ⊑ B"])


# --------------------------------------------------------------------------- #
# hygiene of the memos
# --------------------------------------------------------------------------- #
def _two_label_schema():
    schema = Schema(["A", "B"], ["r"], name="S")
    schema.set_edge("A", "r", "B", "+", "?")
    return schema


def _queries():
    left = UC2RPQ.from_query(parse_c2rpq("p(x) := (r)(x, y)"))
    right = UC2RPQ.from_query(parse_c2rpq("q(x) := A(x)"))
    return left, right


class TestSchemaMemos:
    def test_extended_schema_is_shared_until_set(self):
        schema = _two_label_schema()
        first = booleanize(schema, *_queries()).schema
        assert booleanize(schema, *_queries()).schema is first
        schema.set("B", "r-", "A", "0")
        fresh = booleanize(schema, *_queries()).schema
        assert fresh is not first
        assert fresh.multiplicity("B", "r-", "A") is Multiplicity.ZERO
        assert first.multiplicity("B", "r-", "A") is Multiplicity.OPTIONAL
        assert fresh.canonical_fingerprint() != first.canonical_fingerprint()

    def test_forbids_edge_answers_follow_set(self):
        schema = _two_label_schema()
        assert not schema.forbids_edge("A", "r", "B")
        assert schema.forbids_edge("B", "r", "A")
        schema.set("B", "r-", "A", "0")
        assert schema.forbids_edge("A", "r", "B")
        schema.set_edge("B", "r", "A", "*", "*")
        assert not schema.forbids_edge("B", "r", "A")
        with pytest.raises(SchemaError):
            schema.forbids_edge("A", "r", "C")
        with pytest.raises(SchemaError):
            schema.forbids_edge("A", "s", "B")

    def test_pickle_omits_the_memos(self):
        schema = _two_label_schema()
        before = pickle.dumps(schema)
        booleanize(schema, *_queries())
        schema.forbids_edge("A", "r", "B")
        assert pickle.dumps(schema) == before
        restored = pickle.loads(before)
        assert restored == schema and not restored.forbids_edge("A", "r", "B")


class TestTBoxIndexMemo:
    def test_of_memoises_and_copy_shares(self, medical_source_schema):
        tbox = schema_to_extended_tbox(medical_source_schema)
        index = TBoxIndex.of(tbox)
        assert TBoxIndex.of(tbox) is index
        assert ChaseEngine(tbox).index is index
        assert TBoxIndex.of(tbox.copy()) is index

    def test_add_drops_the_index(self, medical_source_schema):
        tbox = schema_to_extended_tbox(medical_source_schema)
        index = TBoxIndex.of(tbox)
        assert not tbox.add(next(iter(tbox)))
        assert TBoxIndex.of(tbox) is index
        statement = ExistsCI(conj("Vaccine", "Antigen"), forward("designTarget"), conj("Antigen"))
        assert tbox.add(statement)
        fresh = TBoxIndex.of(tbox)
        assert fresh is not index and statement in fresh.exists
        assert statement not in index.exists

    def test_simplification_drops_the_index(self, example52_schema):
        tbox = schema_to_extended_tbox(example52_schema)
        # implied by A ⊑ ∃≤1s⁻.A, from δ(A, s⁻, A) = ?
        composite = AtMostOneCI(conj("A", "B"), inverse("s"), conj("A"))
        tbox.add(composite)
        index = TBoxIndex.of(tbox)
        assert composite in index.at_most
        simplify_s_driven(tbox, example52_schema)
        assert composite not in tbox
        assert composite not in TBoxIndex.of(tbox).at_most
        # nothing left to remove: the index stays
        kept = TBoxIndex.of(tbox)
        simplify_s_driven(tbox, example52_schema)
        assert TBoxIndex.of(tbox) is kept

    def test_completion_without_a_finmod_cycle_reuses_the_index(self, medical_source_schema):
        tbox = schema_to_extended_tbox(medical_source_schema)
        index = TBoxIndex.of(tbox)
        result = complete(tbox, medical_source_schema)
        assert result.skipped and TBoxIndex.of(result.tbox) is index

    def test_union_with_a_non_horn_tbox_defers_the_error(self, medical_source_schema):
        tbox = schema_to_extended_tbox(medical_source_schema)
        TBoxIndex.of(tbox)
        union = tbox.union(TBox([label_coverage_statement(medical_source_schema.node_labels)]))
        with pytest.raises(SolverError):
            TBoxIndex.of(union)

    def test_pickle_omits_the_index(self, medical_source_schema):
        tbox = schema_to_extended_tbox(medical_source_schema)
        before = pickle.dumps(tbox)
        TBoxIndex.of(tbox)
        assert pickle.dumps(tbox) == before
        restored = pickle.loads(before)
        assert restored == tbox
        assert_same_buckets(TBoxIndex.of(restored), TBoxIndex.of(tbox))


class TestSharedMemos:
    def test_threads_racing_on_the_memos_get_equal_answers(self, fhir_schemas):
        # every thread asks each fresh schema and TBox first: a lost memo
        # update costs a rebuild, never a different answer
        base = fhir_schemas[0]
        reference_index = TBoxIndex(schema_to_extended_tbox(base))
        triples = [(a, r, b) for a in sorted(base.node_labels) for r in sorted(base.edge_labels)
                   for b in sorted(base.node_labels)]
        reference_edges = [
            base.multiplicity(a, forward(r), b).forbids or base.multiplicity(b, inverse(r), a).forbids
            for a, r, b in triples
        ]
        reference_extended = booleanize(base.copy(), *_fhir_queries()).schema.canonical_fingerprint()
        shared = [(base.copy(), schema_to_extended_tbox(base)) for _ in range(20)]
        failures = []

        def work():
            try:
                for schema, tbox in shared:
                    assert_same_buckets(TBoxIndex.of(tbox), reference_index)
                    assert [schema.forbids_edge(*triple) for triple in triples] == reference_edges
                    extended = booleanize(schema, *_fhir_queries()).schema
                    assert extended.canonical_fingerprint() == reference_extended
            except Exception as error:  # noqa: BLE001 - reported by the main thread
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


def _fhir_queries():
    left = UC2RPQ.from_query(parse_c2rpq("p(x, y) := (subject)(x, y)"))
    right = UC2RPQ.from_query(parse_c2rpq("q(x, y) := (subject)(x, y)"))
    return left, right


if __name__ == "__main__":
    json.dump(order_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
