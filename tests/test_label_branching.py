"""Label branching of the containment solver: the per-schema candidate table
against the edge-by-edge compatibility check it replaced, the label cap's
regime, and the count the traced benchmark reads."""

import random

from repro.chase.solver import build_pattern
from repro.containment import ContainmentConfig, ContainmentSolver
from repro.containment.booleanize import booleanize
from repro.graph import forward, inverse
from repro.rpq import UC2RPQ, parse_c2rpq
from repro.rpq.regex import EdgeStep, NodeTest
from repro.schema import Schema
from repro.workloads.zoo import ZOO_SEED, zoo_corpus


# --------------------------------------------------------------------------- #
# the reference: one forbids_edge probe per label, edge and neighbour label
# --------------------------------------------------------------------------- #
def locally_compatible(pattern, schema, node, label):
    """The earlier check, kept here only as the reference for the table of
    ``ContainmentSolver._label_candidates``."""
    for edge_label, target in pattern.out_neighbours(node):
        if edge_label not in schema.edge_labels:
            return False
        target_labels = pattern.labels(target) & schema.node_labels
        targets = target_labels or schema.node_labels
        if all(schema.forbids_edge(label, edge_label, t) for t in targets):
            return False
    for edge_label, source in pattern.in_neighbours(node):
        if edge_label not in schema.edge_labels:
            return False
        source_labels = pattern.labels(source) & schema.node_labels
        sources = source_labels or schema.node_labels
        if all(schema.forbids_edge(s, edge_label, label) for s in sources):
            return False
    return True


def reference_candidates(pattern, schema):
    unlabeled = [
        node
        for node in sorted(pattern.nodes(), key=repr)
        if not (pattern.labels(node) & schema.node_labels)
    ]
    candidate_lists = []
    for node in unlabeled:
        candidates = [
            label
            for label in sorted(schema.node_labels)
            if locally_compatible(pattern, schema, node, label)
        ]
        if not candidates:
            return None
        candidate_lists.append(candidates)
    return unlabeled, candidate_lists


# atoms whose variables close cycles and self-loops once words are attached
SHAPES = [
    parse_c2rpq(text).atoms
    for text in (
        "q() := (r)(x, y)",
        "q() := (r)(x, x)",
        "q() := (r)(x, y), (r)(y, z), (r)(z, x)",
        "q() := (r)(x, y), (r)(x, y)",
        "q() := (r)(x, y), (r)(y, y), (r)(z, y)",
    )
]


def random_word(rng, node_labels, edge_labels):
    word = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.3:
            word.append(NodeTest(rng.choice(node_labels)))
        else:
            signed = inverse if rng.random() < 0.4 else forward
            word.append(EdgeStep(signed(rng.choice(edge_labels))))
    return tuple(word)


def seeded_patterns(rng, schema, count):
    # a label outside the schema and an edge label outside it are mixed in,
    # so nodes without a schema label and edges no labelling allows both occur
    node_labels = sorted(schema.node_labels) + ["Foreign"]
    edge_labels = sorted(schema.edge_labels) + (["foreign"] if rng.random() < 0.1 else [])
    for _ in range(count):
        atoms = rng.choice(SHAPES)
        words = [random_word(rng, node_labels, edge_labels) for _ in atoms]
        inverse_steps = any(
            isinstance(symbol, EdgeStep) and symbol.signed.is_inverse
            for word in words
            for symbol in word
        )
        yield build_pattern(atoms, words)[0], inverse_steps


def _as_union(query):
    return query if isinstance(query, UC2RPQ) else UC2RPQ.from_query(query)


def zoo_schemas():
    """Every zoo schema, and the extended schema S° the solver branches over."""
    schemas = {}
    for pairs in zoo_corpus(ZOO_SEED).values():
        for left, right, schema in pairs:
            extended = booleanize(schema, _as_union(left), _as_union(right)).schema
            for candidate in (schema, extended):
                schemas.setdefault(candidate.canonical_fingerprint(), candidate)
    return list(schemas.values())


def test_candidate_table_matches_the_compatibility_check_on_zoo_schemas():
    rng = random.Random(25)
    seen = {"none": 0, "branching": 0, "self-loop": 0, "inverse": 0}
    schemas = zoo_schemas()
    assert len(schemas) >= 20
    for schema in schemas:
        solver = ContainmentSolver(schema)
        for pattern, inverse_steps in seeded_patterns(rng, schema, 60):
            expected = reference_candidates(pattern, schema)
            assert solver._label_candidates(pattern, schema) == expected, pattern.describe()
            if expected is None:
                seen["none"] += 1
            elif any(len(options) > 1 for options in expected[1]):
                seen["branching"] += 1
            if any(source == target for source, _, target in pattern.edges()):
                seen["self-loop"] += 1
            seen["inverse"] += inverse_steps
    assert min(seen.values()) >= 50, seen


def test_neighbours_with_several_schema_labels_union_their_entries():
    schema = Schema(["A", "B", "C"], ["r"])
    schema.set_edge("A", "r", "B", "*", "*")
    schema.set_edge("C", "r", "C", "*", "*")
    atoms = parse_c2rpq("q() := (r)(x, y)").atoms
    pattern = build_pattern(atoms, [(EdgeStep(forward("r")), NodeTest("B"), NodeTest("C"))])[0]
    solver = ContainmentSolver(schema)
    assert solver._label_candidates(pattern, schema) == (["var:x"], [["A", "C"]])
    assert solver._label_candidates(pattern, schema) == reference_candidates(pattern, schema)


# --------------------------------------------------------------------------- #
# the label cap
# --------------------------------------------------------------------------- #
def _two_sources_schema():
    schema = Schema(["A", "B", "C"], ["r"])
    schema.set_edge("A", "r", "C", "*", "*")
    schema.set_edge("B", "r", "C", "*", "*")
    return schema


def test_a_capped_labelling_is_never_a_conclusive_containment():
    # x may be A or B; with one labelling allowed only x:A is chased, which
    # satisfies q, so the containment looked exact although x:B refutes it
    schema = _two_sources_schema()
    left = parse_c2rpq("p() := (r)(x, y)")
    right = parse_c2rpq("q() := (A)(z)")
    capped = ContainmentSolver(schema, ContainmentConfig(max_label_assignments=1)).contains(left, right)
    assert capped.contained and capped.regime == "truncated" and not capped.conclusive
    full = ContainmentSolver(schema).contains(left, right)
    assert not full.contained and full.regime == "exact"


def test_count_agrees_with_the_labellings_yielded():
    rng = random.Random(26)
    schema = _two_sources_schema()
    capped = {True: 0, False: 0}
    for cap in (1, 2, 3, 2_000):
        solver = ContainmentSolver(schema, ContainmentConfig(max_label_assignments=cap))
        for pattern, _ in seeded_patterns(rng, schema, 100):
            labellings = list(solver._label_assignments(pattern, schema))
            graphs = [labelled for labelled in labellings if labelled is not None]
            assert solver._count_label_assignments(pattern, schema) == len(graphs)
            # the cap marker comes last, and only when labellings were left out
            assert None not in labellings[:-1]
            candidates = solver._label_candidates(pattern, schema)
            total = 0
            if candidates is not None:
                total = 1
                for options in candidates[1]:
                    total *= len(options)
            assert (labellings[-1:] == [None]) == (total > cap)
            capped[total > cap] += 1
    assert min(capped.values()) >= 20, capped
