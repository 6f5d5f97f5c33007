"""The workload zoo: property-based random instances and adversarial suites.

The packaged batches (:mod:`repro.workloads.batches`) are friendly: four
hand-written schemas whose containment tests the paper's examples were built
around.  The complexity story says the system's worst case looks nothing
like them — containment modulo schema is EXPTIME-hard (Theorem F.1, via the
ATM reduction of Appendix F) — and the cache tiers, the coalescer and the
parallel backend are only honest if they are also measured on inputs that
*miss*: thousands of distinct fingerprints, deeply nested regexes, and the
hardness construction's own query shapes.  This module grows both ends of
that spectrum:

* **Property-based generation** (:func:`property_corpus`) — a seeded random
  schema/query generator with size knobs.  Every schema renders losslessly
  through the :mod:`repro.schema.parser` DSL and every query through its
  source text, so generated corpora travel over the service wire format and
  through replay traces (:mod:`repro.workloads.replay`) bit-identically.
  With default knobs a corpus is cheap enough for tier-1 differential tests;
  with ``schemas=200, queries_per_schema=10`` it produces thousands of
  distinct request fingerprints to stress cache eviction and store growth.

* **Adversarial families** (:func:`tree_device_suite`,
  :func:`atm_fragment_suite`, :data:`ZOO_FAMILIES`) — named, reusable
  instances scaled down from the EXPTIME-hardness machinery of
  :mod:`repro.hardness`: the Figure 6 tree-enforcing device, and
  fragment-vs-union pairs sliced out of the Theorem F.1 reduction's negative
  query (the structural-violation union), whose nesting device ``p[q] =
  p·q·q⁻`` and inverse-edge unions are exactly the shapes the friendly
  workloads never produce.  The full reduction instance is deliberately not
  in the suite — deciding it takes tens of seconds even at ``space=2`` —
  but every fragment exercises the same macros over the same Figure 7
  schema.

:func:`zoo_corpus` concatenates the families into the ``(left, right,
schema)`` triple format of :meth:`~repro.engine.ContainmentEngine.check_many`
— the input shape shared by the differential test layer
(``tests/test_differential.py``) and the replay trace generator.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..rpq.queries import Atom, C2RPQ
from ..rpq.regex import Regex, Union, concat, edge, node, star, union
from ..schema.schema import Schema

__all__ = [
    "ZOO_SEED",
    "ZOO_FAMILIES",
    "ZooPair",
    "random_schema",
    "random_regex",
    "random_pair",
    "property_corpus",
    "single_axiom_edit",
    "evolution_corpus",
    "HEAVY_EVOLUTION_WORD_CAP",
    "heavy_evolution_corpus",
    "tree_device_suite",
    "atm_fragment_suite",
    "zoo_corpus",
]

#: The fixed seed behind every zoo default — tests, benchmarks and traces
#: built without an explicit seed are reproducible against each other.
ZOO_SEED = 20230808

#: One containment request: ``(left, right, schema)``.
ZooPair = Tuple[Any, Any, Schema]

#: Multiplicity alphabet for random constraints.  Repetition is the bias:
#: ``?``/``*`` keep the chase cheap, the single ``1`` admits schemas whose
#: completions force real pattern extension without dominating the runtime.
_DEFAULT_MULTIPLICITIES = "??**1"


# --------------------------------------------------------------------------- #
# property-based generation
# --------------------------------------------------------------------------- #
def random_schema(
    rng: random.Random,
    index: int = 0,
    *,
    node_labels: int = 3,
    edge_labels: int = 3,
    constraints_per_edge: Tuple[int, int] = (1, 3),
    multiplicities: str = _DEFAULT_MULTIPLICITIES,
) -> Schema:
    """One seeded random schema; distinct *index* values never collide.

    Labels are namespaced by *index* (``N7x0`` … / ``r7x0`` …) so corpora
    of many schemas have pairwise disjoint label sets — and therefore
    pairwise distinct canonical fingerprints, the property the cache- and
    store-growth scenarios rely on.  Node labels start upper-case and edge
    labels lower-case, matching the case convention the regex parser uses to
    tell Γ from Σ, so the schema and every query over it round-trip through
    the textual DSL (asserted in ``tests/test_workloads.py``).
    """
    if node_labels < 1 or edge_labels < 1:
        raise ValueError("random_schema needs at least one node and one edge label")
    labels = [f"N{index}x{j}" for j in range(node_labels)]
    edges = [f"r{index}x{j}" for j in range(edge_labels)]
    schema = Schema(labels, edges, name=f"Zoo{index}")
    low, high = constraints_per_edge
    for edge_label in edges:
        for _ in range(rng.randint(low, high)):
            schema.set_edge(
                rng.choice(labels),
                edge_label,
                rng.choice(labels),
                rng.choice(multiplicities),
                rng.choice("?*"),
            )
    return schema


def random_regex(
    rng: random.Random,
    edge_labels: Sequence[str],
    *,
    depth: int = 2,
    inverse_probability: float = 0.25,
    star_probability: float = 0.3,
) -> Regex:
    """A seeded random two-way regex over *edge_labels*.

    *depth* bounds the operator-tree height; each level picks concatenation,
    union or (with *star_probability*) Kleene star, bottoming out in edge
    labels that are inverted with *inverse_probability*.  The shapes mirror
    what the hardness reduction composes by hand — nested unions over signed
    labels under stars — at sizes the solver decides in milliseconds.
    """
    if depth <= 0 or rng.random() < 0.45:
        label = rng.choice(list(edge_labels))
        if rng.random() < inverse_probability:
            return edge(f"{label}-")
        return edge(label)
    roll = rng.random()
    if roll < 0.45:
        return concat(
            random_regex(rng, edge_labels, depth=depth - 1,
                         inverse_probability=inverse_probability,
                         star_probability=star_probability),
            random_regex(rng, edge_labels, depth=depth - 1,
                         inverse_probability=inverse_probability,
                         star_probability=star_probability),
        )
    inner = random_regex(rng, edge_labels, depth=depth - 1,
                         inverse_probability=inverse_probability,
                         star_probability=star_probability)
    if roll < 0.8:
        other = random_regex(rng, edge_labels, depth=depth - 1,
                             inverse_probability=inverse_probability,
                             star_probability=star_probability)
        return union(inner, other)
    if rng.random() < star_probability:
        return star(inner)
    return concat(inner, random_regex(rng, edge_labels, depth=depth - 1,
                                      inverse_probability=inverse_probability,
                                      star_probability=star_probability))


def random_pair(
    rng: random.Random,
    schema: Schema,
    tag: str,
    *,
    depth: int = 2,
    inverse_probability: float = 0.25,
    star_probability: float = 0.3,
) -> Tuple[C2RPQ, C2RPQ]:
    """One random ``(left, right)`` containment pair over *schema*.

    The left query is a unary single-atom C2RPQ over a random regex; the
    right is a node-label test — the acyclic right-hand shape the decision
    procedure requires, and the same shape the packaged batches use, so
    verdicts split between contained and not contained rather than
    collapsing to one answer.

    Both queries are normalised through one ``str`` → ``parse_c2rpq``
    round-trip before being returned: the regex printer flattens nested
    unions while the parser re-associates them to the left, so a freshly
    built right-nested union would not be token-identical to its own source
    text.  One round-trip reaches the printer/parser fixpoint, making the
    textual form canonical — the property replay traces and the service
    wire format depend on.
    """
    from ..rpq.parser import parse_c2rpq

    edges = sorted(schema.edge_labels)
    labels = sorted(schema.node_labels)
    regex = random_regex(
        rng, edges, depth=depth,
        inverse_probability=inverse_probability, star_probability=star_probability,
    )
    left = C2RPQ([Atom(regex, "x", "y")], ["x"], name=f"p{tag}")
    right = C2RPQ([Atom(node(rng.choice(labels)), "x", "x")], ["x"], name=f"q{tag}")
    return parse_c2rpq(str(left)), parse_c2rpq(str(right))


def property_corpus(
    seed: int = ZOO_SEED,
    *,
    schemas: int = 10,
    queries_per_schema: int = 20,
    node_labels: int = 3,
    edge_labels: int = 3,
    depth: int = 2,
    inverse_probability: float = 0.25,
    star_probability: float = 0.3,
    multiplicities: str = _DEFAULT_MULTIPLICITIES,
) -> List[ZooPair]:
    """The seeded property-based corpus: ``schemas × queries_per_schema`` pairs.

    Identical arguments produce the identical corpus (same objects in the
    same order, same canonical tokens), which is the contract the
    differential tests and the replay trace generator build on.  Every
    request is fingerprint-distinct from every other with overwhelming
    probability at the default knobs; the size knobs scale the corpus from
    a tier-1 test fixture to a cache-eviction stress load.
    """
    if schemas < 1 or queries_per_schema < 1:
        raise ValueError("property_corpus needs schemas >= 1 and queries_per_schema >= 1")
    rng = random.Random(seed)
    corpus: List[ZooPair] = []
    for i in range(schemas):
        schema = random_schema(
            rng, i,
            node_labels=node_labels, edge_labels=edge_labels,
            multiplicities=multiplicities,
        )
        for k in range(queries_per_schema):
            left, right = random_pair(
                rng, schema, f"{i}x{k}",
                depth=depth,
                inverse_probability=inverse_probability,
                star_probability=star_probability,
            )
            corpus.append((left, right, schema))
    return corpus


# --------------------------------------------------------------------------- #
# schema evolution scenarios
# --------------------------------------------------------------------------- #
#: How a single-axiom edit rewrites one multiplicity: each symbol maps to a
#: different one, so the edited schema always fingerprints differently, and
#: no edit introduces a ZERO (the edit stays "small" — it never forbids an
#: edge the queries may traverse).
_EDIT_CYCLE = {"?": "*", "*": "?", "1": "+", "+": "1", "0": "?"}


def single_axiom_edit(
    schema: Schema, *, seed: int = ZOO_SEED, name: Optional[str] = None
) -> Schema:
    """A copy of *schema* with exactly one multiplicity axiom changed.

    The "one constraint changed, re-check everything" scenario of a schema
    update (``POST /schema-update``): same node and edge
    labels (so every query stays well-formed), one declared constraint's
    multiplicity rewritten via a fixed non-identity cycle (so the canonical
    fingerprint always changes).  Deterministic in *seed*.
    """
    rng = random.Random(seed)
    constraints = list(schema.declared_constraints())
    edited = schema.copy(name=name or f"{schema.name}v2")
    if not constraints:
        # a constraint-free schema: declaring one optional edge is the
        # smallest semantic edit available
        label = sorted(schema.node_labels)[0]
        edited.set_edge(label, sorted(schema.edge_labels)[0], label, "?", "?")
        return edited
    source, signed, target, mult = rng.choice(constraints)
    edited.set(source, signed, target, _EDIT_CYCLE.get(str(mult), "?"))
    return edited


def evolution_corpus(
    seed: int = ZOO_SEED,
    *,
    queries: int = 32,
    node_labels: int = 3,
    edge_labels: int = 3,
    depth: int = 3,
    inverse_probability: float = 0.25,
    star_probability: float = 0.45,
) -> Tuple[Schema, Schema, List[Tuple[C2RPQ, C2RPQ]]]:
    """One zoo schema, its single-axiom edit, and shared query pairs.

    Returns ``(old_schema, new_schema, pairs)`` where every ``(left,
    right)`` pair is well-formed over both schemas (the edit preserves the
    label sets).  This is the fixture behind ``tests/test_evolve.py`` and
    the evolve smoke check: deep, star-heavy left regexes make automaton
    compilation and the pumped enumeration the dominant per-pair cost —
    exactly the artefacts that stay warm when the old schema is invalidated
    (:meth:`~repro.engine.ContainmentEngine.invalidate_schema`; the compile
    memo is keyed by regex, not schema).
    """
    if queries < 1:
        raise ValueError("evolution_corpus needs queries >= 1")
    rng = random.Random(seed)
    old_schema = random_schema(rng, 0, node_labels=node_labels, edge_labels=edge_labels)
    new_schema = single_axiom_edit(old_schema, seed=seed)
    pairs = [
        random_pair(
            rng, old_schema, f"e{k}",
            depth=depth,
            inverse_probability=inverse_probability,
            star_probability=star_probability,
        )
        for k in range(queries)
    ]
    return old_schema, new_schema, pairs


#: Word cap for the heavy evolution corpus: every consumer (the ≥2x bench
#: gate in ``benchmarks/bench_schema_evolution.py``) must pass
#: ``SatisfiabilityConfig(max_words_per_atom=HEAVY_EVOLUTION_WORD_CAP)`` so
#: the chase stays bounded while the automata stay big — and so their
#: fingerprints agree.
HEAVY_EVOLUTION_WORD_CAP = 24


def _balanced_union(parts: List[Regex]) -> Regex:
    # the regex traversals work at any depth, so union() would do; the
    # balanced shape stays because it fixes this corpus's regexes, and with
    # them their automata's state numbering
    while len(parts) > 1:
        parts = [
            union(parts[i], parts[i + 1]) if i + 1 < len(parts) else parts[i]
            for i in range(0, len(parts), 2)
        ]
    return parts[0]


def heavy_evolution_corpus(
    seed: int = ZOO_SEED,
    *,
    queries: int = 8,
    union_width: int = 128,
    word_length: int = 6,
) -> Tuple[Schema, Schema, List[Tuple[C2RPQ, C2RPQ]]]:
    """The compilation-dominated variant of :func:`evolution_corpus`.

    Each left query is one atom over a balanced union of *union_width*
    random length-*word_length* edge walks, so building (and trimming) its
    NFA dwarfs the chase — provided callers cap enumeration at
    :data:`HEAVY_EVOLUTION_WORD_CAP` words per atom.  This is the shape
    where keeping compiled automata warm across a schema update
    (:meth:`~repro.engine.ContainmentEngine.invalidate_schema` of the old
    schema) pays: the ≥2x warm-vs-cold gate of
    ``benchmarks/bench_schema_evolution.py`` runs exactly this corpus.
    """
    if queries < 1:
        raise ValueError("heavy_evolution_corpus needs queries >= 1")
    rng = random.Random(seed)
    old_schema = random_schema(rng, 0)
    new_schema = single_axiom_edit(old_schema, seed=seed)
    labels = sorted(old_schema.edge_labels)
    anchor = sorted(old_schema.node_labels)[0]
    pairs: List[Tuple[C2RPQ, C2RPQ]] = []
    for k in range(queries):
        left_regex = _balanced_union(
            [
                _concat_walk([rng.choice(labels) for _ in range(word_length)])
                for _ in range(union_width)
            ]
        )
        left = C2RPQ([Atom(left_regex, "x", "y")], ["x"], name=f"hp{k}")
        right = C2RPQ([Atom(node(anchor), "x", "x")], ["x"], name="hq")
        pairs.append((left, right))
    return old_schema, new_schema, pairs


def _concat_walk(walk_labels: Sequence[str]) -> Regex:
    result = edge(walk_labels[0])
    for label in walk_labels[1:]:
        result = concat(result, edge(label))
    return result


# --------------------------------------------------------------------------- #
# adversarial families from the hardness machinery
# --------------------------------------------------------------------------- #
def _union_parts(regex: Regex) -> List[Regex]:
    """Flatten nested unions into their leaf alternatives."""
    if isinstance(regex, Union):
        parts: List[Regex] = []
        for child in regex.children():
            parts.extend(_union_parts(child))
        return parts
    return [regex]


def tree_device_suite() -> List[ZooPair]:
    """The Figure 6 tree-enforcing device as containment pairs.

    The positive traversal query and the negative structural-violation query
    over the two-label tree schema, paired in both directions and against
    plain label tests — small queries whose nesting device ``p[q] = p·q·q⁻``
    and inverse-edge stars drive the automaton pipeline much harder than
    their size suggests.
    """
    from ..hardness.reduction import tree_device_queries, tree_device_schema

    schema = tree_device_schema()
    positive, negative = tree_device_queries()
    leaf = C2RPQ([Atom(node("Leaf"), "u", "u")], [], name="q_leaf")
    inner = C2RPQ([Atom(node("Node"), "u", "u")], [], name="q_node")
    return [
        (positive, negative, schema),
        (negative, negative, schema),
        (positive, leaf, schema),
        (negative, inner, schema),
        (leaf, negative, schema),
    ]


def atm_fragment_suite(
    *,
    words: Sequence[str] = ("11", "10"),
    space: int = 2,
    max_fragments_per_instance: int = 8,
) -> List[ZooPair]:
    """Scaled-down Theorem F.1 instances: negative-query fragments.

    For each input word, the full reduction instance is built from the tiny
    alternating AND/OR machine (:func:`repro.hardness.atm.alternating_and_or_machine`)
    — its Figure 7 schema and the negative query ``q``, a union of
    structural-violation patterns ("two symbols at one position", "two
    heads", "a universal state with an existential transition edge", …).
    The suite pairs individual violation fragments against the full union:
    each fragment is contained in ``q`` by construction, while ``q`` itself
    is *not* contained in any single fragment, so both verdict shapes appear
    and every pair forces the solver through the reduction's nesting macros
    and wide signed-label unions.  Deciding a fragment pair costs fractions
    of a second where the full positive-vs-negative instance costs tens —
    the "scaled down from hardness" trade the zoo is for.
    """
    from ..hardness.atm import alternating_and_or_machine
    from ..hardness.reduction import build_instance

    machine = alternating_and_or_machine()
    suite: List[ZooPair] = []
    for word in words:
        instance = build_instance(machine, word, space=space)
        fragments = _union_parts(instance.negative.atoms[0].regex)
        step = max(1, len(fragments) // max_fragments_per_instance)
        chosen = fragments[::step][:max_fragments_per_instance]
        for position, fragment in enumerate(chosen):
            left = C2RPQ(
                [Atom(fragment, "u", "v")], [],
                name=f"frag_{machine.name}_{word}_{position}",
            )
            suite.append((left, instance.negative, instance.schema))
        # the reverse direction: the union is not inside its first fragment
        if chosen:
            head = C2RPQ(
                [Atom(chosen[0], "u", "v")], [],
                name=f"fraghead_{machine.name}_{word}",
            )
            suite.append((instance.negative, head, instance.schema))
    return suite


#: The named adversarial families: ``name -> zero-argument builder``.
#: ``property`` is parameterised separately (it has size knobs); these are
#: the fixed worst-case suites.
ZOO_FAMILIES: Dict[str, Callable[[], List[ZooPair]]] = {
    "tree-device": tree_device_suite,
    "atm-fragments": atm_fragment_suite,
}


def zoo_corpus(
    seed: int = ZOO_SEED,
    *,
    schemas: int = 10,
    queries_per_schema: int = 12,
    families: Optional[Sequence[str]] = None,
    **knobs: Any,
) -> Dict[str, List[ZooPair]]:
    """Every requested family, keyed by name (``property`` first).

    *families* defaults to ``("property", *ZOO_FAMILIES)``; extra keyword
    arguments are forwarded to :func:`property_corpus`.  The return shape is
    per-family so callers (the zoo bench suite, the differential tests) can
    time and report each family separately while still flattening into one
    ``check_many`` batch.
    """
    selected = tuple(families) if families is not None else ("property", *ZOO_FAMILIES)
    corpus: Dict[str, List[ZooPair]] = {}
    for name in selected:
        if name == "property":
            corpus[name] = property_corpus(
                seed, schemas=schemas, queries_per_schema=queries_per_schema, **knobs
            )
        elif name in ZOO_FAMILIES:
            corpus[name] = ZOO_FAMILIES[name]()
        else:
            known = ", ".join(("property", *ZOO_FAMILIES))
            raise ValueError(f"unknown zoo family {name!r} (expected one of {known})")
    return corpus
