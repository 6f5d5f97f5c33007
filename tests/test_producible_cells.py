"""The producible cells of a transformation are exactly the cells whose
grouped edge query is non-empty.

The analyses decide a cell ``(A, R, B)`` that is not in
:meth:`Transformation.producible_cells` without building ``Q_{A,R,B}``, so
the set must hold every cell whose query has a disjunct and no other.  Each
test compares it with brute force: ``not edge_query(T, A, R, B).is_empty()``
over every cell of the labels the transformation knows (its node labels and
the labels of its constructors) and every signed edge label.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import check_equivalence, type_check
from repro.graph import forward, inverse, signed_closure
from repro.rpq.queries import C2RPQ, Atom
from repro.rpq.regex import edge
from repro.schema import Schema
from repro.transform import edge_query, trim
from repro.transform.constructors import NodeConstructor
from repro.transform.parser import parse_transformation
from repro.transform.rules import EdgeRule
from repro.workloads import fhir, medical, social, synthetic


def brute_force_cells(transformation):
    labels = set(transformation.node_labels())
    labels |= {constructor.label for constructor in transformation.registry if constructor.label}
    labels.add("NoSuchLabel")
    roles = list(signed_closure(sorted(transformation.edge_labels() | {"noSuchEdge"})))
    return {
        (source, role, target)
        for source in labels
        for role in roles
        for target in labels
        if not edge_query(transformation, source, role, target).is_empty()
    }


def assert_matches_brute_force(transformation):
    cells = transformation.producible_cells()
    assert isinstance(cells, frozenset)
    assert cells == brute_force_cells(transformation), transformation.describe()
    return cells


def packaged_transformations():
    transformations = [
        medical.migration(),
        medical.broken_migration(),
        medical.redundant_migration(),
        fhir.migration_v3_to_v4(),
        fhir.broken_migration_v3_to_v4(),
        social.reification(),
        social.broken_reification(),
    ]
    for length in range(1, 7):
        transformations.append(synthetic.chain_copy_transformation(length))
        transformations.append(synthetic.chain_collapse_transformation(length))
    return transformations


@pytest.mark.parametrize(
    "transformation", packaged_transformations(), ids=lambda transformation: transformation.name
)
def test_every_packaged_migration_and_chain(transformation):
    cells = assert_matches_brute_force(transformation)
    # each cell is read both ways: an inverse cell for every forward one
    forward_cells = {cell for cell in cells if not cell[1].is_inverse}
    assert forward_cells and len(cells) == 2 * len(forward_cells)
    assert {(target, role.inverse(), source) for source, role, target in forward_cells} == (
        cells - forward_cells
    )


def test_trimmed_migrations():
    # the analyses sweep the trimmed transformation, a new object
    pairs = [
        (medical.migration(), medical.source_schema()),
        (medical.broken_migration(), medical.source_schema()),
        (fhir.broken_migration_v3_to_v4(), fhir.schema_v3()),
        (social.broken_reification(), social.schema_v1()),
    ]
    for transformation, schema in pairs:
        assert_matches_brute_force(trim(transformation, schema))


def test_inverse_roles_and_self_loops():
    transformation = parse_transformation(
        """
        transformation T {
          A(fA(x)) <- (A)(x);
          B(fB(x)) <- (B)(x);
          r(fA(x), fB(y)) <- (r)(x, y);
          s(fA(x), fA(y)) <- (s)(x, y);
        }
        """
    )
    cells = assert_matches_brute_force(transformation)
    assert cells == {
        ("A", forward("r"), "B"),
        ("B", inverse("r"), "A"),
        ("A", forward("s"), "A"),
        ("A", inverse("s"), "A"),
    }


def test_a_constructor_dedicated_to_no_label_produces_no_cell():
    transformation = parse_transformation(
        """
        transformation T {
          A(fA(x)) <- (A)(x);
          r(fA(x), g(y)) <- (r)(x, y);
          s(g(x), fA(y)) <- (s)(x, y);
          t(fA(x), fA(y)) <- (t)(x, y);
        }
        """
    )
    cells = assert_matches_brute_force(transformation)
    assert cells == {("A", forward("t"), "A"), ("A", inverse("t"), "A")}


def test_a_label_dedicated_by_an_edge_rule_alone():
    # the edge rule's constructors carry their labels, and no node rule
    # defines B: Q_{A,r,B} is still non-empty
    transformation = parse_transformation("transformation T { A(fA(x)) <- (A)(x); }")
    body = C2RPQ([Atom(edge("r"), "x", "y")], ["x", "y"], name="r_body")
    source, target = NodeConstructor("fA", 1, "A"), NodeConstructor("fB", 1, "B")
    transformation.add(EdgeRule("r", source, ("x",), target, ("y",), body))
    cells = assert_matches_brute_force(transformation)
    assert cells == {("A", forward("r"), "B"), ("B", inverse("r"), "A")}


def test_add_drops_the_cells():
    transformation = parse_transformation(
        """
        transformation T {
          A(fA(x)) <- (A)(x);
          r(fA(x), fB(y)) <- (r)(x, y);
        }
        """
    )
    assert assert_matches_brute_force(transformation) == set()
    # a node rule dedicates fB to B: the edge rule now produces two cells
    for rule in parse_transformation("transformation U { B(fB(x)) <- (B)(x); }").rules():
        transformation.add(rule)
    assert assert_matches_brute_force(transformation) == {
        ("A", forward("r"), "B"),
        ("B", inverse("r"), "A"),
    }
    for rule in parse_transformation("transformation U { s(fB(x), fA(y)) <- (s)(x, y); }").rules():
        transformation.add(rule)
    assert len(assert_matches_brute_force(transformation)) == 4


def test_an_analysis_after_add_sees_the_new_cells():
    source, target = medical.source_schema(), medical.target_schema()
    transformation = parse_transformation(
        """
        transformation T {
          Vaccine(fV(x)) <- (Vaccine)(x);
          Antigen(fA(x)) <- (Antigen)(x);
        }
        """
    )
    assert type_check(transformation, source, target, pre_trimmed=True).coverage.checks == []
    for rule in parse_transformation(
        "transformation U { designTarget(fV(x), fA(y)) <- (designTarget)(x, y); }"
    ).rules():
        transformation.add(rule)
    checks = type_check(transformation, source, target, pre_trimmed=True).coverage.checks
    assert [(check.source_label, str(check.role), check.target_label) for check in checks] == [
        ("Antigen", "designTarget-", "Vaccine"),
        ("Vaccine", "designTarget", "Antigen"),
    ]


def test_equivalence_compares_a_cell_only_one_side_produces():
    # the edge sweep skips a cell only when neither transformation produces it
    rules = """
        A(fA(x)) <- (A)(x);
        B(fB(x)) <- (B)(x);
        r(fA(x), fB(y)) <- (r)(x, y);
    """
    left = parse_transformation("transformation L {" + rules + "}")
    right = parse_transformation("transformation R {" + rules + "r(fB(x), fA(y)) <- (r)(x, y); }")
    schema = Schema(["A", "B"], ["r"], name="S")
    schema.set_edge("A", "r", "B", "*", "*")
    schema.set_edge("B", "r", "A", "*", "*")
    for first, second in ((left, right), (right, left)):
        result = check_equivalence(first, second, schema, pre_trimmed=True)
        assert [difference.description for difference in result.differences] == [
            "the r-edges from B- to A-nodes produced by the two transformations differ"
        ]


def random_transformation(rng):
    labels = ["A", "B", "C", "D"]
    defined = rng.sample(labels, rng.randint(0, len(labels)))
    lines = [f"{label}(f{label}(x)) <- ({label})(x);" for label in defined]
    constructors = [f"f{label}" for label in labels] + ["g"]
    for _ in range(rng.randint(0, 6)):
        label = rng.choice(["r", "s", "t"])
        source, target = rng.choice(constructors), rng.choice(constructors)
        lines.append(f"{label}({source}(x), {target}(y)) <- ({label})(x, y);")
    return parse_transformation("transformation R {\n" + "\n".join(lines) + "\n}")


def test_a_seeded_family():
    rng = random.Random(38)
    sizes = []
    for _ in range(200):
        transformation = random_transformation(rng)
        sizes.append(len(assert_matches_brute_force(transformation)))
    assert min(sizes) == 0 and max(sizes) >= 8, sizes
