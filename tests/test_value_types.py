"""The value-type contract of signed labels and concept inclusions, and the
transformation's edge-rule index.

Signed labels and the seven statement kinds are tuples, so their hashing,
equality and order run in C.  These tests pin what callers rely on: equal
values hash equal, statements of different kinds never compare equal,
nothing can be assigned, the order of signed labels is the old
``(label, direction.value)`` order, the textual forms are unchanged, and
pickles round-trip without the cached canonical token.  They also check
``edge_query``'s index lookup against the scan it replaced, on every
transformation the workloads and the perfbench analysis jobs use.
"""

import importlib.util
import pickle
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path
from typing import List

import pytest

from repro.dl.concepts import (
    TOP,
    AtMostOneCI,
    DisjunctionCI,
    ExistsCI,
    ForAllCI,
    NoExistsCI,
    SubclassOf,
    SubclassOfBottom,
    conj,
)
from repro.dl.tbox import canonical_statement_token
from repro.graph.labels import Direction, SignedLabel, forward, inverse, signed_closure
from repro.rpq.parser import parse_c2rpq
from repro.rpq.queries import C2RPQ, UC2RPQ
from repro.schema.parser import parse_schema, schema_to_text
from repro.schema.schema import Schema
from repro.transform import Transformation, edge_query, trim
from repro.transform.grouping import _canonicalise, canonical_variables
from repro.transform.parser import parse_transformation
from repro.workloads import fhir, medical, social, synthetic

ROLE_KINDS = (ForAllCI, ExistsCI, NoExistsCI, AtMostOneCI)


def _one_of_each():
    """One statement of every kind; single-name conjunctions keep reprs
    independent of the hash seed."""
    a, b = conj("A"), conj("B")
    return [
        SubclassOf(a, "B"),
        SubclassOfBottom(a),
        ForAllCI(a, inverse("r"), b),
        ExistsCI(TOP, forward("r"), b),
        NoExistsCI(a, forward("s"), TOP),
        AtMostOneCI(a, inverse("s"), b),
        DisjunctionCI(TOP, ("B", "A")),
    ]


# --------------------------------------------------------------------------- #
# equality, hashing, immutability
# --------------------------------------------------------------------------- #
class TestEqualityAndHashing:
    @pytest.mark.parametrize("statement", _one_of_each(), ids=lambda s: type(s).__name__)
    def test_equal_statements_hash_equal(self, statement):
        # rebuilt from fresh field objects, not shared ones
        fields = [frozenset(set(value)) if isinstance(value, frozenset) else value
                  for value in statement[1:]]
        twin = type(statement)(*fields)
        assert twin == statement and twin is not statement
        assert hash(twin) == hash(statement)
        assert len({twin, statement}) == 1

    def test_conjunction_order_does_not_matter(self):
        left = ExistsCI(conj("A", "B"), forward("r"), conj("C", "D"))
        right = ExistsCI(frozenset(["B", "A"]), SignedLabel("r"), conj(["D"], "C"))
        assert left == right and hash(left) == hash(right)

    def test_same_fields_of_different_kinds_are_unequal(self):
        body, role, head = conj("A"), forward("r"), conj("B")
        statements = [kind(body, role, head) for kind in ROLE_KINDS]
        assert len(set(statements)) == len(ROLE_KINDS)
        for left in statements:
            for right in statements:
                assert (left == right) == (left is right)
        assert SubclassOfBottom(body) != DisjunctionCI(body, ())
        assert SubclassOf(body, "B") != DisjunctionCI(body, "B")

    def test_signed_labels_hash_by_value(self):
        assert SignedLabel("r") == forward("r") and hash(SignedLabel("r")) == hash(forward("r"))
        assert SignedLabel("r", Direction.INVERSE) == inverse("r")
        assert forward("r") != inverse("r")

    @pytest.mark.parametrize("statement", _one_of_each(), ids=lambda s: type(s).__name__)
    def test_assigning_a_field_raises(self, statement):
        for name in type(statement)._fields + ("other",):
            with pytest.raises(FrozenInstanceError):
                setattr(statement, name, None)
        with pytest.raises(FrozenInstanceError):
            del statement.body

    def test_signed_label_fields_are_read_only(self):
        label = inverse("r")
        for name in ("label", "direction", "is_inverse", "other"):
            with pytest.raises(AttributeError):
                setattr(label, name, None)
        assert (label.label, label.direction, label.is_inverse) == ("r", Direction.INVERSE, True)

    def test_invalid_direction_is_rejected(self):
        with pytest.raises(ValueError):
            SignedLabel("r", "-")

    def test_single_name_conjunction(self):
        assert conj("A") == frozenset({"A"}) and type(conj("A")) is frozenset
        assert conj("A", "B") == frozenset({"A", "B"})
        assert conj(["A", "B"]) == frozenset({"A", "B"})
        assert conj() == TOP


# --------------------------------------------------------------------------- #
# order
# --------------------------------------------------------------------------- #
def test_signed_closure_sorts_in_the_old_order():
    labels = ["b", "a", "ab", "a_b", "a-b", "B", "a.b", "z9", "z10"]
    closure = list(signed_closure(labels))
    old_order = sorted(closure, key=lambda label: (label.label, label.direction.value))
    assert sorted(closure) == old_order
    assert sorted(reversed(closure)) == old_order
    assert forward("a") < inverse("a") < forward("b")


# --------------------------------------------------------------------------- #
# textual forms
# --------------------------------------------------------------------------- #
def test_str_and_repr_are_unchanged():
    expected = [
        ("A ⊑ B", "SubclassOf(body=frozenset({'A'}), head='B')"),
        ("A ⊑ ⊥", "SubclassOfBottom(body=frozenset({'A'}))"),
        ("A ⊑ ∀r-.B",
         "ForAllCI(body=frozenset({'A'}), role=SignedLabel('r-'), head=frozenset({'B'}))"),
        ("⊤ ⊑ ∃r.B",
         "ExistsCI(body=frozenset(), role=SignedLabel('r'), head=frozenset({'B'}))"),
        ("A ⊑ ¬∃s.⊤",
         "NoExistsCI(body=frozenset({'A'}), role=SignedLabel('s'), head=frozenset())"),
        ("A ⊑ ∃≤1s-.B",
         "AtMostOneCI(body=frozenset({'A'}), role=SignedLabel('s-'), head=frozenset({'B'}))"),
        ("⊤ ⊑ A ⊔ B", "DisjunctionCI(body=frozenset(), alternatives=('B', 'A'))"),
    ]
    assert [(str(s), repr(s)) for s in _one_of_each()] == expected
    assert str(ExistsCI(conj("B", "A"), forward("r"), TOP)) == "A ⊓ B ⊑ ∃r.⊤"
    assert (str(forward("r")), str(inverse("r"))) == ("r", "r-")
    assert (repr(forward("r")), repr(inverse("r"))) == ("SignedLabel('r')", "SignedLabel('r-')")


def test_canonical_tokens_are_unchanged():
    assert [canonical_statement_token(s) for s in _one_of_each()] == [
        "SubclassOf|1:A|1:B",
        "SubclassOfBottom|1:A",
        "ForAllCI|1:A|2:r-|1:B",
        "ExistsCI||1:r|1:B",
        "NoExistsCI|1:A|1:s|",
        "AtMostOneCI|1:A|2:s-|1:B",
        "DisjunctionCI||1:A,1:B",
    ]


def test_parse_outputs_are_unchanged():
    assert SignedLabel.parse(" knows- ") == inverse("knows")
    assert type(SignedLabel.parse("knows")) is SignedLabel
    text = "q(x, y) := (knows- . Person . worksAt)(x, y), Person(y)"
    query = parse_c2rpq(text)
    assert str(query) == text
    assert repr(query.atoms[0].regex) == (
        "Concat(left=Concat(left=EdgeStep(signed=SignedLabel('knows-')), "
        "right=NodeTest(label='Person')), right=EdgeStep(signed=SignedLabel('worksAt')))"
    )
    text = schema_to_text(medical.source_schema())
    assert schema_to_text(parse_schema(text)) == text


# --------------------------------------------------------------------------- #
# pickling
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("statement", _one_of_each(), ids=lambda s: type(s).__name__)
def test_statement_pickles_round_trip_without_the_token(statement):
    token = canonical_statement_token(statement)
    assert statement.__dict__ == {"_canonical_token": token}
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        blob = pickle.dumps(statement, protocol)
        assert token.encode("utf-8") not in blob
        clone = pickle.loads(blob)
        assert type(clone) is type(statement)
        assert clone == statement and hash(clone) == hash(statement)
        assert "_canonical_token" not in clone.__dict__
        assert canonical_statement_token(clone) == token


@pytest.mark.parametrize("label", [forward("r"), inverse("r")])
def test_signed_label_pickles_round_trip(label):
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(label, protocol))
        assert type(clone) is SignedLabel
        assert clone == label and hash(clone) == hash(label)
        assert clone.direction is label.direction


# --------------------------------------------------------------------------- #
# the edge-rule index against the scan it replaced
# --------------------------------------------------------------------------- #
def _scanned_edge_query(
    transformation: Transformation, source_label: str, role: SignedLabel, target_label: str
) -> UC2RPQ:
    """``edge_query`` as it was before the index: one scan over every edge
    rule per call (kept as the reference)."""
    source_constructor = transformation.constructor_for_label(source_label)
    target_constructor = transformation.constructor_for_label(target_label)
    name = f"Q_{source_label},{role},{target_label}"
    if source_constructor is None or target_constructor is None:
        return UC2RPQ([], name=name)
    x_vars = canonical_variables("x", source_constructor.arity)
    y_vars = canonical_variables("y", target_constructor.arity)
    disjuncts: List[C2RPQ] = []
    for index, rule in enumerate(transformation.edge_rules):
        if rule.edge_label != role.label:
            continue
        if not role.is_inverse:
            if (
                rule.source_constructor.name == source_constructor.name
                and rule.target_constructor.name == target_constructor.name
            ):
                disjuncts.append(
                    _canonicalise(
                        rule.body,
                        rule.source_variables + rule.target_variables,
                        x_vars + y_vars,
                        f"e{index}",
                    )
                )
        else:
            if (
                rule.source_constructor.name == target_constructor.name
                and rule.target_constructor.name == source_constructor.name
            ):
                disjuncts.append(
                    _canonicalise(
                        rule.body,
                        rule.target_variables + rule.source_variables,
                        x_vars + y_vars,
                        f"e{index}",
                    )
                )
    return UC2RPQ(disjuncts, name=name)


def _perfbench_analysis_inputs():
    """The transformations and schemas the perfbench analysis jobs close over."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_value_type_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
        jobs = module.analysis_jobs()
    finally:
        del sys.modules[spec.name]
    pairs = []
    for job in jobs:
        cells = [cell.cell_contents for cell in job.run.__closure__ or ()]
        schemas = [value for value in cells if isinstance(value, Schema)]
        pairs.extend(
            (value, schemas[0]) for value in cells if isinstance(value, Transformation)
        )
    assert pairs
    return pairs


def _transformations():
    """Every transformation of repro.workloads and of the perfbench analysis
    jobs, and each one trimmed modulo its source schema (the analyses group
    the trimmed rules)."""
    pairs = [
        (medical.migration(), medical.source_schema()),
        (medical.broken_migration(), medical.source_schema()),
        (medical.redundant_migration(), medical.source_schema()),
        (fhir.migration_v3_to_v4(), fhir.schema_v3()),
        (fhir.broken_migration_v3_to_v4(), fhir.schema_v3()),
        (social.reification(), social.schema_v1()),
        (social.broken_reification(), social.schema_v1()),
    ]
    for length in (2, 3, 4, 6):
        chain = synthetic.chain_schema(length)
        pairs.append((synthetic.chain_copy_transformation(length), chain))
        pairs.append((synthetic.chain_collapse_transformation(length), chain))
    pairs.extend(_perfbench_analysis_inputs())
    result = []
    for transformation, schema in pairs:
        result.append(transformation)
        result.append(trim(transformation, schema))
    return result


def test_indexed_edge_query_matches_the_scan():
    compared = nonempty = 0
    for transformation in _transformations():
        # a label without a constructor and an edge label without rules, too
        node_labels = sorted(transformation.node_labels()) + ["NoSuchLabel"]
        roles = list(signed_closure(sorted(transformation.edge_labels()) + ["noSuchEdge"]))
        for source in node_labels:
            for role in roles:
                for target in node_labels:
                    indexed = edge_query(transformation, source, role, target)
                    scanned = _scanned_edge_query(transformation, source, role, target)
                    assert indexed.name == scanned.name
                    assert [str(d) for d in indexed.disjuncts] == [str(d) for d in scanned.disjuncts]
                    assert [d.name for d in indexed.disjuncts] == [d.name for d in scanned.disjuncts]
                    assert indexed.disjuncts == scanned.disjuncts
                    compared += 1
                    nonempty += bool(scanned.disjuncts)
    assert nonempty > 0 and compared > nonempty


def test_adding_a_rule_drops_the_index_and_the_node_labels():
    transformation = parse_transformation(
        """
        transformation T {
          Person(fP(x)) <- (Person)(x);
          Group(fG(x)) <- (Group)(x);
          member(fP(x), fG(y)) <- (memberOf)(x, y);
        }
        """
    )
    assert transformation.node_labels() == {"Person", "Group"}
    assert len(edge_query(transformation, "Person", forward("member"), "Group")) == 1
    assert edge_query(transformation, "Group", forward("member"), "Person").is_empty()
    extra = parse_transformation(
        """
        transformation U {
          Club(fC(x)) <- (Club)(x);
          member(fP(x), fG(y)) <- (leads)(x, y);
          member(fG(x), fP(y)) <- (memberOf)(y, x);
        }
        """
    )
    for rule in extra.rules():
        transformation.add(rule)
    assert transformation.node_labels() == {"Person", "Group", "Club"}
    q_member = edge_query(transformation, "Person", forward("member"), "Group")
    assert [d.name for d in q_member.disjuncts] == [
        d.name for d in _scanned_edge_query(transformation, "Person", forward("member"), "Group")
    ]
    assert len(q_member) == 2
    assert len(edge_query(transformation, "Group", forward("member"), "Person")) == 1
