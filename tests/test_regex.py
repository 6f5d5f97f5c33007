"""Tests for two-way regular expressions and their parser."""

import dataclasses
import random
import sys

import pytest

from repro.exceptions import ParseError, QueryError
from repro.rpq import (
    EMPTY,
    EPSILON,
    Concat,
    Star,
    Union,
    concat,
    edge,
    node,
    optional,
    parse_regex,
    plus,
    star,
    union,
    word,
)
from repro.rpq.regex import EdgeStep, NodeTest, Regex


class TestConstruction:
    def test_node_test_requires_label(self):
        with pytest.raises(QueryError):
            NodeTest("")

    def test_edge_step_from_string(self):
        assert edge("r").signed.label == "r"
        assert edge("r-").signed.is_inverse

    def test_concat_of_nothing_is_epsilon(self):
        assert concat() == EPSILON

    def test_union_of_nothing_is_empty(self):
        assert union() == EMPTY

    def test_plus_desugars_to_concat_star(self):
        expr = plus(edge("r"))
        assert isinstance(expr, Concat)
        assert isinstance(expr.right, Star)

    def test_optional_desugars_to_union_epsilon(self):
        expr = optional(edge("r"))
        assert isinstance(expr, Union)
        assert EPSILON in (expr.left, expr.right)

    def test_word_uses_case_convention(self):
        expr = word("Vaccine", "designTarget", "Antigen")
        symbols = list(expr.symbols())
        assert isinstance(symbols[0], NodeTest)
        assert isinstance(symbols[1], EdgeStep)
        assert isinstance(symbols[2], NodeTest)

    def test_operator_sugar(self):
        expr = node("A") * edge("r") + node("B")
        assert isinstance(expr, Union)


class TestProperties:
    def test_alphabets(self):
        expr = concat(node("A"), edge("r"), star(edge("s-")))
        assert expr.node_labels() == {"A"}
        assert expr.edge_labels() == {"r", "s"}

    def test_size_counts_ast_nodes(self):
        assert node("A").size() == 1
        assert concat(node("A"), edge("r")).size() == 3

    def test_nullable(self):
        assert star(edge("r")).nullable()
        assert EPSILON.nullable()
        assert not edge("r").nullable()
        assert union(edge("r"), EPSILON).nullable()
        assert not concat(edge("r"), star(edge("s"))).nullable()

    def test_empty_language_detection(self):
        assert EMPTY.is_empty_language()
        assert concat(edge("r"), EMPTY).is_empty_language()
        assert not union(EMPTY, edge("r")).is_empty_language()

    def test_reverse_inverts_edges_and_order(self):
        expr = concat(edge("r"), edge("s"))
        assert str(expr.reverse()) == "s- . r-"

    def test_reverse_is_involutive(self):
        expr = concat(node("A"), star(union(edge("r"), edge("s-"))))
        assert expr.reverse().reverse() == expr

    def test_reverse_keeps_node_tests(self):
        assert node("A").reverse() == node("A")

    def test_equality_and_hashing(self):
        assert concat(edge("r"), edge("s")) == concat(edge("r"), edge("s"))
        assert len({star(edge("r")), star(edge("r"))}) == 1


class TestParser:
    def test_example_32_query(self):
        expr = parse_regex("Vaccine . designTarget . crossReacting* . Antigen")
        assert expr.node_labels() == {"Vaccine", "Antigen"}
        assert expr.edge_labels() == {"designTarget", "crossReacting"}

    def test_plus_postfix_versus_union(self):
        postfix = parse_regex("r . s+ . r")
        assert postfix.edge_labels() == {"r", "s"}
        union_expr = parse_regex("a + b")
        assert isinstance(union_expr, Union)

    def test_example_52_query(self):
        expr = parse_regex("r . s+ . r")
        # s+ unfolds to s·s*
        assert "s" in str(expr)

    def test_inverse_edges(self):
        expr = parse_regex("a-")
        assert isinstance(expr, EdgeStep) and expr.signed.is_inverse

    def test_epsilon_and_empty(self):
        assert parse_regex("<eps>") == EPSILON
        assert parse_regex("<empty>") == EMPTY

    def test_parentheses_and_nesting(self):
        expr = parse_regex("(a . b)* + c?")
        assert isinstance(expr, Union)

    def test_juxtaposition_is_concatenation(self):
        assert parse_regex("A r B") == parse_regex("A . r . B")

    def test_case_convention(self):
        expr = parse_regex("Antigen . crossReacting")
        symbols = list(expr.symbols())
        assert isinstance(symbols[0], NodeTest) and isinstance(symbols[1], EdgeStep)

    def test_round_trip_via_str(self):
        expr = parse_regex("(Vaccine . designTarget . crossReacting*) + exhibits-")
        assert parse_regex(str(expr)) == expr

    def test_unbalanced_parenthesis_rejected(self):
        with pytest.raises(ParseError):
            parse_regex("(a . b")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_regex("a ..")

    def test_unexpected_character_rejected(self):
        with pytest.raises(ParseError):
            parse_regex("a ; b")


class TestStructuralHashCaching:
    """The cached structural hash that replaced the forbidden __eq__/__hash__."""

    def test_hash_agrees_with_equality(self):
        assert hash(concat(edge("r"), edge("s"))) == hash(concat(edge("r"), edge("s")))
        assert hash(star(edge("r"))) != hash(plus(edge("r")))

    def test_hash_is_computed_once_and_cached(self):
        expr = star(union(edge("r"), concat(node("A"), edge("s"))))
        assert "_structural_hash" not in expr.__dict__
        first = hash(expr)
        assert expr.__dict__["_structural_hash"] == first
        assert hash(expr) == first

    def test_subexpressions_cache_independently(self):
        inner = concat(edge("r"), edge("s"))
        outer = star(inner)
        hash(outer)
        # hashing the tree populated the child's cache too (children are
        # hashed first, each exactly once)
        assert "_structural_hash" in inner.__dict__

    def test_canonical_token_is_cached(self):
        from repro.rpq.regex import canonical_token

        expr = union(edge("r"), star(node("A")))
        token = canonical_token(expr)
        assert expr.__dict__["_canonical_token"] == token
        assert canonical_token(expr) is token

    def test_pickling_drops_the_caches(self):
        import pickle

        from repro.rpq.regex import canonical_token

        expr = star(concat(edge("r"), node("A")))
        hash(expr)
        canonical_token(expr)
        clone = pickle.loads(pickle.dumps(expr))
        assert "_structural_hash" not in clone.__dict__
        assert "_canonical_token" not in clone.__dict__
        assert clone == expr
        assert hash(clone) == hash(expr)  # same process: same seed
        assert canonical_token(clone) == canonical_token(expr)

    def test_all_node_kinds_hash(self):
        for expr in (
            EMPTY,
            EPSILON,
            node("A"),
            edge("r"),
            concat(edge("r"), edge("s")),
            union(edge("r"), edge("s")),
            star(edge("r")),
        ):
            assert isinstance(hash(expr), int)
            assert expr in {expr}


# --------------------------------------------------------------------------- #
# traversals on an explicit stack: deep trees, unchanged outputs
# --------------------------------------------------------------------------- #
def _recursive_token(expr):
    """The recursive canonical token the iterative one replaced."""
    if isinstance(expr, EdgeStep):
        text = str(expr.signed)
        return f"r{len(text)}:{text}"
    if isinstance(expr, NodeTest):
        return f"n{len(expr.label)}:{expr.label}"
    if isinstance(expr, Concat):
        return f"(.{_recursive_token(expr.left)} {_recursive_token(expr.right)})"
    if isinstance(expr, Union):
        return f"(+{_recursive_token(expr.left)} {_recursive_token(expr.right)})"
    if isinstance(expr, Star):
        return f"(*{_recursive_token(expr.inner)})"
    return "0" if expr == EMPTY else "e"


def _copy(expr):
    """A structurally equal tree of fresh nodes."""
    return type(expr)(*(
        _copy(value) if isinstance(value, Regex) else value
        for value in (getattr(expr, f.name) for f in dataclasses.fields(expr))
    ))


def _dataclass_hash(expr):
    """The structural hash as the dataclass fields define it."""
    return hash((type(expr).__name__, tuple(getattr(expr, f.name) for f in dataclasses.fields(expr))))


_SAMPLES = (
    EMPTY,
    EPSILON,
    node("A"),
    edge("r-"),
    parse_regex("(a + b- . A)* . c? . (A + <eps>)"),
    concat(EMPTY, star(star(edge("a")))),
    union(node("Label with spaces"), edge("x")),
)


class TestIterativeTraversals:
    def test_fields_are_the_dataclass_fields(self):
        from repro.rpq.regex import EmptyLanguage, Epsilon

        for cls in (EmptyLanguage, Epsilon, NodeTest, EdgeStep, Concat, Union, Star):
            assert cls._fields == tuple(f.name for f in dataclasses.fields(cls)), cls

    def test_outputs_match_the_recursive_definitions(self):
        from repro.rpq.regex import canonical_token
        from repro.workloads.zoo import random_regex

        rng = random.Random(7)
        samples = list(_SAMPLES) + [random_regex(rng, ("a", "b", "c"), depth=4) for _ in range(200)]
        for expr in samples:
            assert hash(expr) == _dataclass_hash(expr)
            assert canonical_token(expr) == _recursive_token(expr)
            twin = _copy(expr)
            assert twin is not expr and twin == expr and hash(twin) == hash(expr)
            assert expr.reverse().reverse() == expr

    def test_equality_is_structural(self):
        assert parse_regex("a . (b + A)*") == parse_regex("a . (b + A)*")
        assert parse_regex("a . (b + A)*") != parse_regex("a . (b + B)*")
        assert parse_regex("a . b") != parse_regex("a + b")
        assert concat(edge("a"), node("A")) != concat(edge("a"), edge("A"))
        assert edge("a") != edge("a-")
        assert node("A") != "A" and EMPTY != EPSILON
        assert Regex.__eq__(edge("a"), "a") is NotImplemented

    def test_reverse_inverts_edges_and_swaps_concatenations(self):
        assert parse_regex("a . b- . A").reverse() == Concat(node("A"), Concat(edge("b"), edge("a-")))
        assert parse_regex("(a + B)* . <eps>").reverse() == parse_regex("<eps> . (a- + B)*")

    def test_wide_union_containment_at_the_default_recursion_limit(self):
        from repro.engine import ContainmentEngine
        from repro.rpq import parse_c2rpq
        from repro.schema import Schema

        assert sys.getrecursionlimit() <= 1000
        schema = Schema(["A", "B"], ["e0", "e1"], name="S")
        schema.set_edge("A", "e0", "B", "*", "*")
        schema.set_edge("A", "e1", "B", "*", "*")
        alternatives = " + ".join(f"e{i}" for i in range(2000))
        single = parse_c2rpq("P() := (e1)(x, y)")
        wide = parse_c2rpq(f"Q() := ({alternatives})(x, y)")
        engine = ContainmentEngine()
        try:
            assert engine.contains(single, wide, schema).contained
            assert not engine.contains(wide, single, schema).contained
        finally:
            engine.close()

    def test_long_concatenation_at_the_default_recursion_limit(self):
        from repro.core import compile_regex
        from repro.engine import ContainmentEngine
        from repro.rpq import parse_c2rpq
        from repro.rpq.regex import canonical_token
        from repro.schema import Schema

        assert sys.getrecursionlimit() <= 1000
        schema = Schema(["A"], ["e0", "e1"], name="Loops")
        schema.set_edge("A", "e0", "A", "*", "*")
        schema.set_edge("A", "e1", "A", "*", "*")
        steps = " . ".join(f"e{i % 2}" for i in range(2000))
        long_path = parse_c2rpq(f"C() := ({steps})(x, y)")
        single = parse_c2rpq("P() := (e1)(x, y)")
        regex = long_path.atoms[0].regex
        assert regex.size() == 3999 and len(list(regex.symbols())) == 2000
        assert not regex.nullable() and not regex.is_empty_language()
        assert regex.reverse().reverse() == regex
        assert canonical_token(regex).count("(.") == 1999
        assert compile_regex(regex).nfa.state_count() == 2001
        engine = ContainmentEngine()
        try:
            assert engine.contains(long_path, long_path, schema).contained
            assert engine.contains(long_path, single, schema).contained
            assert not engine.contains(single, long_path, schema).contained
        finally:
            engine.close()

    def test_equal_wide_unions_share_one_compiled_bundle(self):
        from repro.core import compile_regex

        first = union(*(edge(f"e{i}") for i in range(2000)))
        second = union(*(edge(f"e{i}") for i in range(2000)))
        assert first is not second and first == second
        assert compile_regex(first) is compile_regex(second)

    def test_reverse_is_cached_and_stays_out_of_pickles(self):
        import pickle

        from repro.rpq.regex import canonical_token

        expr = parse_regex("a . (b- + A)* . c")
        before = pickle.dumps(expr)
        reversed_expr = expr.reverse()
        assert expr.reverse() is reversed_expr
        assert str(reversed_expr) == "c- . (b + A)* . a-"
        hash(expr)
        canonical_token(expr)
        assert pickle.dumps(expr) == before
        clone = pickle.loads(before)
        assert "_reversed" not in clone.__dict__
        assert clone.reverse() == reversed_expr
        # ∅, ε and node tests reverse to themselves and cache nothing
        for leaf in (EMPTY, EPSILON, node("A")):
            assert leaf.reverse() is leaf
            assert "_reversed" not in leaf.__dict__

    def test_pickle_round_trip_keeps_shared_subtrees(self):
        import pickle

        inner = union(edge("a"), node("A"))
        expr = concat(plus(inner), inner.reverse())
        clone = pickle.loads(pickle.dumps(expr))
        assert clone == expr and type(clone) is Concat
        # plus(φ) = φ · φ*: one φ object in the original, one in the clone
        assert clone.left.left is clone.left.right.inner
        assert str(clone) == str(expr) and repr(clone) == repr(expr)

    def test_wide_union_prints_and_pickles_at_the_default_recursion_limit(self):
        import pickle

        assert sys.getrecursionlimit() <= 1000
        wide = union(*(edge(f"e{i}") for i in range(2000)))
        text = str(wide)
        assert text == " + ".join(f"e{i}" for i in range(2000))
        assert parse_regex(text) == wide
        assert repr(wide).startswith("Union(left=Union(left=")
        assert repr(wide).count("EdgeStep(signed=") == 2000
        clone = pickle.loads(pickle.dumps(wide, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone == wide and hash(clone) == hash(wide)
        steps = concat(*(edge(f"e{i % 2}") for i in range(2000)))
        assert pickle.loads(pickle.dumps(steps)) == steps
        assert str(steps).count(" . ") == 1999

    def test_wide_union_through_the_process_backend_and_the_store(self, tmp_path):
        from repro.engine import ContainmentEngine, result_fingerprint
        from repro.rpq import parse_c2rpq
        from repro.schema import Schema

        schema = Schema(["A", "B"], ["e0", "e1"], name="S")
        schema.set_edge("A", "e0", "B", "*", "*")
        schema.set_edge("A", "e1", "B", "*", "*")
        alternatives = " + ".join(f"e{i}" for i in range(2000))
        single = parse_c2rpq("P() := (e1)(x, y)")
        wide = parse_c2rpq(f"Q() := ({alternatives})(x, y)")
        pairs = [(single, wide), (wide, single)]
        with ContainmentEngine() as engine:
            serial = [result_fingerprint(r) for r in engine.check_many(pairs, schema=schema)]
        path = tmp_path / "deep.db"
        with ContainmentEngine(max_workers=2, persist=path) as engine:
            results = engine.check_many(pairs, schema=schema, parallel="process")
            assert [result.contained for result in results] == [True, False]
            assert [result_fingerprint(r) for r in results] == serial
            assert engine.stats.store.writes == len(pairs)
        with ContainmentEngine(persist=path) as replay:
            results = replay.check_many(pairs, schema=schema)
            assert [result_fingerprint(r) for r in results] == serial
            assert replay.stats.store.hits == len(pairs)
