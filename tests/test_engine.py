"""The cached containment engine: correctness of every cache, accuracy of the
statistics, and the batch API.

The central invariant: an engine-served result must be indistinguishable (in
every verdict-relevant field) from one computed by a fresh, cache-free
:class:`ContainmentSolver` — whatever mix of schemas, queries and repetition
warmed the caches beforehand.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import repro
from repro.analysis import check_equivalence, elicit_schema, type_check
from repro.containment import ContainmentConfig, ContainmentSolver, contains
from repro.dl import schema_to_extended_tbox
from repro.engine import (
    CacheStats,
    ContainmentEngine,
    ContainmentRequest,
    LRUCache,
    default_engine,
    reset_default_engine,
)
from repro.rpq import C2RPQ, UC2RPQ, Atom, parse_c2rpq
from repro.rpq.regex import concat, edge, node, star, union
from repro.schema import Schema
from repro.workloads import fhir, medical, synthetic


def verdict(result):
    """Every verdict-relevant field of a containment result."""
    return (
        result.contained,
        result.regime,
        result.schema_name,
        result.left_name,
        result.right_name,
        result.tbox_size,
        result.patterns_checked,
        result.reason,
    )


# --------------------------------------------------------------------------- #
# engine results == fresh solver results
# --------------------------------------------------------------------------- #
def _cases():
    """(schema, left, right) triples across several workloads and shapes."""
    medical_schema = medical.source_schema()
    chain = synthetic.chain_schema(3)
    fhir_schema = fhir.schema_v3()
    example52 = Schema(["A"], ["s", "r"], name="S52")
    example52.set_edge("A", "s", "A", "+", "?")
    example52.set_edge("A", "r", "A", "*", "*")
    cases = [
        (
            medical_schema,
            parse_c2rpq("p(x) := (Vaccine . designTarget . crossReacting*)(x, y)"),
            parse_c2rpq("q(x) := Vaccine(x)"),
        ),
        (
            medical_schema,
            parse_c2rpq("p(x) := Antigen(x)"),
            parse_c2rpq("q(x) := Vaccine(x)"),
        ),
        (
            chain,
            C2RPQ([Atom(concat(edge("e0"), edge("e1"), edge("e2")), "x", "y")], ["x"], name="p"),
            parse_c2rpq("q(x) := L0(x)"),
        ),
        (
            example52,
            parse_c2rpq("p(x) := (s . s)(x, y)"),
            parse_c2rpq("q(x) := (s-)(x, y)"),
        ),
        (
            fhir_schema,
            parse_c2rpq("p(x) := Patient(x)"),
            parse_c2rpq("q(x) := Patient(x)"),
        ),
    ]
    return cases


@pytest.mark.parametrize("index", range(len(_cases())), ids=lambda i: f"case{i}")
def test_engine_matches_fresh_solver(index):
    schema, left, right = _cases()[index]
    fresh = ContainmentSolver(schema).contains(left, right)
    engine = ContainmentEngine()
    cold = engine.contains(left, right, schema)
    warm = engine.contains(left, right, schema)
    assert verdict(cold) == verdict(fresh)
    assert verdict(warm) == verdict(fresh)
    # the completed TBoxes are bit-identical across cached and fresh runs
    for served in (cold, warm):
        assert (
            served.completion.tbox.canonical_fingerprint()
            == fresh.completion.tbox.canonical_fingerprint()
        )


def test_cache_hits_return_independent_witness_graphs():
    """Mutating a served counterexample must not corrupt later cache hits."""
    schema, left, right = _cases()[1]  # a non-contained instance with a witness
    engine = ContainmentEngine()
    first = engine.contains(left, right, schema)
    assert not first.contained and first.witness_pattern is not None
    second = engine.contains(left, right, schema)
    assert second.witness_pattern is not first.witness_pattern
    second.witness_pattern.add_label(next(iter(second.witness_pattern.nodes())), "Tampered")
    third = engine.contains(left, right, schema)
    assert not any("Tampered" in third.witness_pattern.labels(n) for n in third.witness_pattern.nodes())


def test_cache_hit_reports_current_schema_name():
    """The result cache is name-insensitive for schemas, but a served result
    must still carry the calling schema's name."""
    schema, left, right = _cases()[0]
    renamed = schema.copy(name="renamed-twin")
    engine = ContainmentEngine()
    engine.contains(left, right, schema)
    served = engine.contains(left, right, renamed)
    assert engine.stats.results.hits == 1  # same fingerprint, served warm
    assert served.schema_name == "renamed-twin"


def test_engine_matches_fresh_solver_after_mixed_warmup():
    """Interleaving many schemas/queries must not cross-contaminate results."""
    cases = _cases()
    engine = ContainmentEngine()
    for _ in range(2):
        for schema, left, right in cases:
            engine.contains(left, right, schema)
    for schema, left, right in cases:
        fresh = ContainmentSolver(schema).contains(left, right)
        assert verdict(engine.contains(left, right, schema)) == verdict(fresh)


def test_engine_respects_config():
    """Distinct configs key distinct cache entries with distinct outcomes."""
    schema, left, right = _cases()[0]
    loose = ContainmentConfig()
    ablation = ContainmentConfig(apply_completion=False)
    engine = ContainmentEngine()
    for config in (loose, ablation, loose, ablation):
        fresh = ContainmentSolver(schema, config).contains(left, right)
        assert verdict(engine.contains(left, right, schema, config)) == verdict(fresh)


def test_schema_mutation_cannot_serve_stale_results():
    """Mutating a schema between calls changes its fingerprint, so the warm
    engine recomputes instead of replaying the old verdict."""
    schema = Schema(["A", "B"], ["r"], name="S")
    schema.set_edge("A", "r", "B", "*", "*")
    left = parse_c2rpq("p(x) := (r)(x, y)")
    right = parse_c2rpq("q(x) := A(x)")
    engine = ContainmentEngine()
    before = engine.contains(left, right, schema)
    assert verdict(before) == verdict(ContainmentSolver(schema).contains(left, right))
    schema.set_edge("B", "r", "B", "*", "*")  # now B-nodes may also have r-edges
    after = engine.contains(left, right, schema)
    assert verdict(after) == verdict(ContainmentSolver(schema).contains(left, right))
    assert before.contained and not after.contained


# --------------------------------------------------------------------------- #
# property-style: random queries, engine == fresh solver
# --------------------------------------------------------------------------- #
PROPERTY_SCHEMA = Schema(["A", "B"], ["r", "s"], name="prop")
PROPERTY_SCHEMA.set_edge("A", "r", "B", "+", "?")
PROPERTY_SCHEMA.set_edge("B", "s", "A", "*", "*")
PROPERTY_SCHEMA.set_edge("A", "s", "A", "?", "?")

_label = st.sampled_from(["A", "B"])
_edge = st.sampled_from(["r", "s", "r-", "s-"])


@st.composite
def schema_regexes(draw, depth=2):
    """Small regexes over the property schema's alphabet."""
    if depth == 0:
        if draw(st.booleans()):
            return node(draw(_label))
        return edge(draw(_edge))
    choice = draw(st.integers(min_value=0, max_value=3))
    if choice == 0:
        return draw(schema_regexes(depth=0))
    if choice == 1:
        return concat(draw(schema_regexes(depth=depth - 1)), draw(schema_regexes(depth=depth - 1)))
    if choice == 2:
        return union(draw(schema_regexes(depth=depth - 1)), draw(schema_regexes(depth=depth - 1)))
    return star(draw(schema_regexes(depth=depth - 1)))


_property_engine = ContainmentEngine()


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(regex=schema_regexes(), right_label=_label)
def test_engine_equals_fresh_solver_on_random_queries(regex, right_label):
    left = C2RPQ([Atom(regex, "x", "y")], ["x"], name="p")
    right = C2RPQ([Atom(node(right_label), "x", "x")], ["x"], name="q")
    fresh = ContainmentSolver(PROPERTY_SCHEMA).contains(left, right)
    served = _property_engine.contains(left, right, PROPERTY_SCHEMA)
    assert verdict(served) == verdict(fresh)
    # and a second, certainly-cached call replays the same verdict
    assert verdict(_property_engine.contains(left, right, PROPERTY_SCHEMA)) == verdict(fresh)


# --------------------------------------------------------------------------- #
# cache statistics
# --------------------------------------------------------------------------- #
def test_result_cache_statistics_are_exact():
    schema, left, right = _cases()[0]
    engine = ContainmentEngine()
    assert engine.stats.results.lookups == 0
    engine.contains(left, right, schema)
    engine.contains(left, right, schema)
    engine.contains(left, right, schema)
    stats = engine.stats
    assert stats.contains_calls == 3
    assert stats.results.misses == 1
    assert stats.results.hits == 2
    assert stats.results.lookups == 3
    assert stats.results.hit_rate == pytest.approx(2 / 3)
    assert stats.results.evictions == 0
    # one schema encoding and one completion were built, never rebuilt
    assert stats.schema_tboxes.misses == 1
    assert stats.completions.misses == 1


def test_evictions_are_counted_and_bounded():
    schema = medical.source_schema()
    right = parse_c2rpq("q(x) := Vaccine(x)")
    lefts = [parse_c2rpq(f"p{i}(x) := (crossReacting{'*' * (i % 2)})(x, y)") for i in range(2)]
    lefts += [parse_c2rpq("p2(x) := Vaccine(x)"), parse_c2rpq("p3(x) := Antigen(x)")]
    engine = ContainmentEngine(result_cache_size=2)
    for left in lefts:
        engine.contains(left, right, schema)
    stats = engine.stats
    assert stats.results.misses == len(lefts)
    assert stats.results.evictions == len(lefts) - 2
    assert engine.cache_sizes()["results"] == 2
    # the evicted first instance is recomputed — a miss, not a stale hit
    fresh = ContainmentSolver(schema).contains(lefts[0], right)
    assert verdict(engine.contains(lefts[0], right, schema)) == verdict(fresh)
    assert engine.stats.results.misses == len(lefts) + 1


def test_cache_stats_snapshot_is_independent():
    cache = LRUCache("probe", 4)
    cache.put("k", 1)
    cache.get("k")
    snapshot = cache.stats.snapshot()
    cache.get("missing")
    assert snapshot.misses == 0 and cache.stats.misses == 1
    assert isinstance(snapshot, CacheStats)


def test_clear_and_invalidate_schema():
    schema, left, right = _cases()[0]
    other_schema, other_left, other_right = _cases()[2]
    engine = ContainmentEngine()
    engine.contains(left, right, schema)
    engine.contains(other_left, other_right, other_schema)
    assert engine.cache_sizes()["results"] == 2
    report = engine.invalidate_schema(schema)
    assert report.results == 1
    assert report.schema_fingerprint == schema.canonical_fingerprint()
    assert engine.cache_sizes()["results"] == 1
    engine.clear()
    assert all(count == 0 for count in engine.cache_sizes().values())
    # counters survive clearing; correctness is unaffected
    fresh = ContainmentSolver(schema).contains(left, right)
    assert verdict(engine.contains(left, right, schema)) == verdict(fresh)


# --------------------------------------------------------------------------- #
# the batch API
# --------------------------------------------------------------------------- #
def _batch_and_schema():
    schema = medical.source_schema()
    rights = [parse_c2rpq("q(x) := Vaccine(x)"), parse_c2rpq("q2(x) := Antigen(x)")]
    lefts = [
        parse_c2rpq("p0(x) := (Vaccine . designTarget)(x, y)"),
        parse_c2rpq("p1(x) := (designTarget . crossReacting*)(x, y)"),
        parse_c2rpq("p2(x) := Antigen(x)"),
    ]
    return schema, [(left, right) for left in lefts for right in rights]


def test_check_many_preserves_order_and_matches_sequential():
    schema, batch = _batch_and_schema()
    baseline = [ContainmentSolver(schema).contains(left, right) for left, right in batch]
    engine = ContainmentEngine()
    results = engine.check_many(batch, schema=schema)
    assert [verdict(r) for r in results] == [verdict(r) for r in baseline]
    assert engine.stats.batches == 1


def test_check_many_parallel_matches_sequential():
    schema, batch = _batch_and_schema()
    sequential = ContainmentEngine().check_many(batch, schema=schema)
    parallel = ContainmentEngine().check_many(batch, schema=schema, parallel=True, max_workers=4)
    assert [verdict(r) for r in parallel] == [verdict(r) for r in sequential]
    # and on a warm engine too
    engine = ContainmentEngine()
    engine.check_many(batch, schema=schema)
    warm_parallel = engine.check_many(batch, schema=schema, parallel=True)
    assert [verdict(r) for r in warm_parallel] == [verdict(r) for r in sequential]


def test_check_many_accepts_requests_and_mixed_schemas():
    medical_schema = medical.source_schema()
    chain = synthetic.chain_schema(2)
    requests = [
        ContainmentRequest(
            parse_c2rpq("p(x) := Vaccine(x)"), parse_c2rpq("q(x) := Vaccine(x)"), medical_schema
        ),
        (
            C2RPQ([Atom(concat(edge("e0"), edge("e1")), "x", "y")], ["x"], name="p"),
            parse_c2rpq("q(x) := L0(x)"),
            chain,
        ),
    ]
    results = ContainmentEngine().check_many(requests)
    assert [r.schema_name for r in results] == [medical_schema.name, chain.name]
    assert all(r.contained for r in results)


def test_check_many_requires_a_schema():
    with pytest.raises(TypeError):
        ContainmentEngine().check_many(
            [(parse_c2rpq("p(x) := A(x)"), parse_c2rpq("q(x) := A(x)"))]
        )
    with pytest.raises(TypeError):
        ContainmentEngine().check_many([("only-one-element",)], schema=medical.source_schema())


# --------------------------------------------------------------------------- #
# the stateless wrapper and the default engine
# --------------------------------------------------------------------------- #
def test_module_level_contains_routes_through_default_engine():
    reset_default_engine()
    try:
        schema, left, right = _cases()[0]
        fresh = ContainmentSolver(schema).contains(left, right)
        first = contains(left, right, schema)
        second = contains(left, right, schema)
        assert verdict(first) == verdict(second) == verdict(fresh)
        stats = default_engine().stats
        assert stats.contains_calls == 2
        assert stats.results.hits == 1
        assert repro.default_engine() is default_engine()
    finally:
        reset_default_engine()


# --------------------------------------------------------------------------- #
# the analysis layer on a shared engine
# --------------------------------------------------------------------------- #
def test_type_check_identical_with_and_without_engine():
    source, target = medical.source_schema(), medical.target_schema()
    migration = medical.migration()
    engine = ContainmentEngine()
    cold = type_check(migration, source, target, engine=engine)
    warm = type_check(migration, source, target, engine=engine)
    plain = type_check(migration, source, target)
    assert cold.well_typed == warm.well_typed == plain.well_typed
    assert cold.containment_calls == warm.containment_calls == plain.containment_calls
    assert engine.stats.results.hits >= warm.containment_calls


def test_equivalence_and_elicitation_accept_engine():
    source = medical.source_schema()
    engine = ContainmentEngine()
    equivalence = check_equivalence(
        medical.migration(), medical.redundant_migration(), source, engine=engine
    )
    assert equivalence.equivalent
    elicited_warm = elicit_schema(medical.migration(), source, engine=engine)
    elicited_plain = elicit_schema(medical.migration(), source)
    assert elicited_warm.schema == elicited_plain.schema
    assert engine.stats.results.lookups > 0


# --------------------------------------------------------------------------- #
# canonical fingerprints (the cache-key material)
# --------------------------------------------------------------------------- #
def test_schema_fingerprint_is_semantic():
    schema = Schema(["A", "B"], ["r"], name="S")
    schema.set_edge("A", "r", "B", "+", "?")
    renamed = schema.copy(name="entirely-different")
    assert schema.canonical_fingerprint() == renamed.canonical_fingerprint()
    with_explicit_zero = schema.copy()
    with_explicit_zero.set("A", "r", "A", "0")  # semantically a no-op
    assert schema.canonical_fingerprint() == with_explicit_zero.canonical_fingerprint()
    mutated = schema.copy()
    mutated.set("A", "r", "A", "*")
    assert schema.canonical_fingerprint() != mutated.canonical_fingerprint()


def test_query_fingerprint_ignores_names_and_disjunct_order():
    one = parse_c2rpq("p(x) := (A . r)(x, y)")
    two = parse_c2rpq("other(x) := (A . r)(x, y)")
    assert one.canonical_fingerprint() == two.canonical_fingerprint()
    other_var = parse_c2rpq("p(x) := (A . r)(x, z)")
    assert one.canonical_fingerprint() != other_var.canonical_fingerprint()
    union_one = UC2RPQ([one, other_var], name="U")
    union_two = UC2RPQ([other_var, two], name="V")
    assert union_one.canonical_fingerprint() == union_two.canonical_fingerprint()


def test_schema_fingerprint_injective_on_adversarial_labels():
    """Labels containing the serialisation's own delimiters must not let two
    different schemas collide (every variable-width field is length-prefixed)."""
    tricky_edge = "p|1:B|*;1:A|q"
    one = Schema(["A", "B"], ["p", "q", tricky_edge], name="S1")
    one.set("A", tricky_edge, "B", "*")
    two = Schema(["A", "B"], ["p", "q", tricky_edge], name="S2")
    two.set("A", "p", "B", "*")
    two.set("A", "q", "B", "*")
    assert one.canonical_fingerprint() != two.canonical_fingerprint()


def test_tbox_fingerprint_ignores_statement_order():
    schema = medical.source_schema()
    tbox = schema_to_extended_tbox(schema)
    reversed_tbox = type(tbox)(reversed(tbox.statements()), name="reversed")
    assert tbox.canonical_fingerprint() == reversed_tbox.canonical_fingerprint()
    smaller = type(tbox)(tbox.statements()[:-1], name="smaller")
    assert tbox.canonical_fingerprint() != smaller.canonical_fingerprint()


def test_automata_cache_is_keyed_by_schema_context():
    """One engine serving two schemas must not share pinned symbol tables."""
    engine = ContainmentEngine()
    schema_a = medical.source_schema()
    schema_b = medical.target_schema()
    regex = parse_c2rpq("p(x) := (a*)(x, y)").atoms[0].regex
    bundle_a = engine.solver(schema_a)._compile_automaton(regex)
    bundle_b = engine.solver(schema_b)._compile_automaton(regex)
    assert bundle_a.context == schema_a.canonical_fingerprint()
    assert bundle_b.context == schema_b.canonical_fingerprint()
    assert bundle_a is not bundle_b
    # but within one schema the bundle is shared (cache hit)
    assert engine.solver(schema_a)._compile_automaton(regex) is bundle_a


def test_compile_automaton_override_substitutes_bundles():
    """Subclasses substitute automata by overriding _compile_automaton."""
    from repro.core import compile_regex

    compiled = []

    class CountingSolver(ContainmentSolver):
        def _compile_automaton(self, regex):
            if self._intern_context is None:
                self._intern_context = self.schema.canonical_fingerprint()
            bundle = compile_regex(regex, self._intern_context)
            compiled.append(bundle)
            return bundle

    solver = CountingSolver(medical.source_schema())
    result = solver.contains(
        parse_c2rpq("p(x) := (designTarget)(x, y)"), parse_c2rpq("q(x) := Vaccine(x)")
    )
    assert result.contained
    assert compiled  # the pipeline routed through the override


# --------------------------------------------------------------------------- #
# lifecycle: context manager, idempotent close, use-after-close
# --------------------------------------------------------------------------- #
def test_engine_context_manager_closes_and_rejects_use_after_close(tmp_path):
    schema = medical.source_schema()
    left = parse_c2rpq("p(x) := (designTarget)(x, y)")
    right = parse_c2rpq("q(x) := Vaccine(x)")

    with ContainmentEngine(persist=tmp_path / "store.db") as engine:
        assert engine.contains(left, right, schema).contained
        assert not engine.closed
    assert engine.closed
    assert engine.store.disabled  # the store went down with the engine

    engine.close()  # double close is a documented no-op, not an error

    # use-after-close names the mistake instead of limping along on a dead
    # store (or surfacing as sqlite3.ProgrammingError from a write-back)
    with pytest.raises(RuntimeError, match="has been closed"):
        engine.contains(left, right, schema)
    with pytest.raises(RuntimeError, match="has been closed"):
        engine.check_many([(left, right)], schema=schema)
    with pytest.raises(RuntimeError, match="has been closed"):
        engine.solver(schema)
    with pytest.raises(RuntimeError, match="has been closed"):
        engine.process_pool()

    # statistics stay readable for post-mortem reports
    assert engine.stats.contains_calls == 1
    assert engine.stats.store is not None


def test_engine_context_manager_closes_on_exceptions():
    engine = ContainmentEngine()
    with pytest.raises(ValueError, match="boom"):
        with engine:
            raise ValueError("boom")
    assert engine.closed


def test_entering_a_closed_engine_raises():
    engine = ContainmentEngine()
    engine.close()
    with pytest.raises(RuntimeError, match="has been closed"):
        with engine:
            pass  # pragma: no cover - the enter must already have raised
