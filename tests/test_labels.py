"""Tests for signed edge labels (Σ±)."""

import pickle

import pytest

from repro.graph.labels import Direction, SignedLabel, forward, inverse, is_valid_label, signed_closure
from repro.workloads.zoo import ZOO_SEED, zoo_corpus


class TestValidity:
    def test_plain_label_is_valid(self):
        assert is_valid_label("knows")

    def test_empty_label_is_invalid(self):
        assert not is_valid_label("")

    def test_whitespace_is_invalid(self):
        assert not is_valid_label("a b")

    def test_trailing_dash_is_reserved(self):
        assert not is_valid_label("knows-")

    def test_non_string_is_invalid(self):
        assert not is_valid_label(42)

    def test_signed_label_rejects_invalid(self):
        with pytest.raises(ValueError):
            SignedLabel("bad label")


class TestDirections:
    def test_forward_helper(self):
        label = forward("knows")
        assert label.label == "knows"
        assert not label.is_inverse

    def test_inverse_helper(self):
        label = inverse("knows")
        assert label.is_inverse

    def test_flip(self):
        assert Direction.FORWARD.flip() is Direction.INVERSE
        assert Direction.INVERSE.flip() is Direction.FORWARD

    def test_double_inverse_is_identity(self):
        label = forward("knows")
        assert label.inverse().inverse() == label

    def test_inverse_changes_direction_only(self):
        label = forward("knows").inverse()
        assert label.label == "knows"
        assert label.direction is Direction.INVERSE


class TestTextualForm:
    def test_str_forward(self):
        assert str(forward("knows")) == "knows"

    def test_str_inverse(self):
        assert str(inverse("knows")) == "knows-"

    def test_parse_forward(self):
        assert SignedLabel.parse("knows") == forward("knows")

    def test_parse_inverse(self):
        assert SignedLabel.parse("knows-") == inverse("knows")

    def test_parse_strips_whitespace(self):
        assert SignedLabel.parse("  knows ") == forward("knows")

    def test_round_trip(self):
        for label in (forward("a"), inverse("a")):
            assert SignedLabel.parse(str(label)) == label


class TestSignedClosure:
    def test_closure_has_both_directions(self):
        closure = set(signed_closure(["a", "b"]))
        assert closure == {forward("a"), inverse("a"), forward("b"), inverse("b")}

    def test_closure_of_empty_is_empty(self):
        assert list(signed_closure([])) == []

    def test_labels_are_ordered_and_hashable(self):
        assert len({forward("a"), forward("a")}) == 1
        assert sorted([inverse("b"), forward("a")]) == [forward("a"), inverse("b")]


class TestSharedInstances:
    """forward/inverse hand out cached instances; validation still applies."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: forward(""),
            lambda: inverse("a b"),
            lambda: inverse("a-"),
            lambda: SignedLabel.parse("a--"),
            lambda: SignedLabel("x y"),
        ],
    )
    def test_invalid_labels_still_raise(self, make):
        with pytest.raises(ValueError):
            make()

    def test_invalid_label_raises_again_after_a_failed_call(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                forward("bad label")

    @pytest.mark.parametrize("label", [forward("r"), inverse("r"), SignedLabel("s", Direction.INVERSE)])
    def test_double_inverse_is_identity(self, label):
        assert label.inverse().inverse() == label
        assert label.inverse() != label

    @pytest.mark.parametrize("label", [forward("r"), inverse("r")])
    def test_hash_survives_pickling(self, label):
        restored = pickle.loads(pickle.dumps(label))
        assert restored == label
        assert hash(restored) == hash(label)
        assert pickle.loads(pickle.dumps(label.direction)) is label.direction


def _zoo_schemas(count):
    schemas = []
    for pairs in zoo_corpus(ZOO_SEED).values():
        for _, _, schema in pairs:
            if all(schema is not seen for seen in schemas):
                schemas.append(schema)
            if len(schemas) == count:
                return schemas
    return schemas


@pytest.mark.parametrize("schema", _zoo_schemas(3), ids=lambda schema: schema.name)
def test_forbids_edge_reads_both_directions_of_the_table(schema):
    checked = 0
    for source in sorted(schema.node_labels):
        for label in sorted(schema.edge_labels):
            for target in sorted(schema.node_labels):
                explicit = (
                    schema.multiplicity(source, SignedLabel(label, Direction.FORWARD), target).forbids
                    or schema.multiplicity(target, SignedLabel(label, Direction.INVERSE), source).forbids
                )
                assert schema.forbids_edge(source, label, target) == explicit
                checked += 1
    assert checked > 0
