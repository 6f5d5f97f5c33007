"""Ready-made containment batches over the packaged workloads.

Every batch is a ``(schema, [(left, right), ...])`` pair suitable for
:meth:`repro.engine.ContainmentEngine.check_many` — the shared input format
of the CLI (``python -m repro batch``/``bench``), the parallel-backend tests
and ``benchmarks/bench_parallel_scaling.py``.  The pairs are pairwise
distinct (no request is a fingerprint-duplicate of another), so a cold run
measures real decision-procedure work rather than result-cache replays, and
they mix contained and non-contained instances so determinism checks cover
both verdict shapes, witness patterns included.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..rpq.parser import parse_c2rpq
from ..rpq.queries import Atom, C2RPQ
from ..rpq.regex import concat, edge, star
from ..schema.schema import Schema
from . import fhir, medical, social, synthetic

__all__ = [
    "BUILTIN_WORKLOADS",
    "containment_batch",
    "fhir_batch",
    "medical_batch",
    "mixed_batch",
    "social_batch",
    "synthetic_batch",
    "workload_schemas",
]

Pair = Tuple[Any, Any]

#: The workload names the CLI and benchmarks accept.
BUILTIN_WORKLOADS = ("medical", "fhir", "social", "synthetic")


def medical_batch() -> Tuple[Schema, List[Pair]]:
    """Derived-path queries over the Figure 1 schema ``S0``."""
    schema = medical.source_schema()
    rights = [
        parse_c2rpq("qV(x) := Vaccine(x)"),
        parse_c2rpq("qA(x) := Antigen(x)"),
        parse_c2rpq("qP(x) := Pathogen(x)"),
    ]
    lefts = []
    for stars in (0, 1, 2):
        tail = concat(*([edge("crossReacting")] * stars)) if stars else concat()
        regex = concat(edge("designTarget"), tail, star(edge("crossReacting")))
        lefts.append(C2RPQ([Atom(regex, "x", "y")], ["x"], name=f"p{stars}"))
    lefts.append(parse_c2rpq("px(x) := (exhibits . crossReacting*)(x, y)"))
    lefts.append(parse_c2rpq("pb(x) := (designTarget . crossReacting- )(x, y)"))
    return schema, [(left, right) for left in lefts for right in rights]


def fhir_batch() -> Tuple[Schema, List[Pair]]:
    """Care-path queries over the FHIR v3 patient-record schema."""
    schema = fhir.schema_v3()
    rights = [
        parse_c2rpq("qPat(x) := Patient(x)"),
        parse_c2rpq("qEnc(x) := Encounter(x)"),
        parse_c2rpq("qPra(x) := Practitioner(x)"),
    ]
    lefts = [
        parse_c2rpq("gp(x) := (generalPractitioner)(x, y)"),
        parse_c2rpq("org(x) := (generalPractitioner . worksFor)(x, y)"),
        parse_c2rpq("care(x) := (subject . generalPractitioner)(x, y)"),
        parse_c2rpq("named(x) := (name)(x, y)"),
        parse_c2rpq("visited(x) := (subject- . performer)(x, y)"),
    ]
    return schema, [(left, right) for left in lefts for right in rights]


def social_batch() -> Tuple[Schema, List[Pair]]:
    """Friendship/membership queries over the social-network v1 schema."""
    schema = social.schema_v1()
    rights = [
        parse_c2rpq("qPer(x) := Person(x)"),
        parse_c2rpq("qGrp(x) := Group(x)"),
    ]
    lefts = [
        parse_c2rpq("friends(x) := (friend . friend*)(x, y)"),
        parse_c2rpq("member(x) := (memberOf)(x, y)"),
        parse_c2rpq("mods(x) := (memberOf . moderatedBy)(x, y)"),
        parse_c2rpq("peer(x) := (memberOf . memberOf-)(x, y)"),
        parse_c2rpq("reach(x) := (friend* . memberOf)(x, y)"),
    ]
    return schema, [(left, right) for left in lefts for right in rights]


def synthetic_batch(length: int = 8) -> Tuple[Schema, List[Pair]]:
    """The scaling batch: path queries of every prefix length × many rights.

    Over :func:`repro.workloads.synthetic.chain_schema`\\ ``(length)`` the
    lefts are the paths ``e0``, ``e0·e1``, …, ``e0·…·e(length-1)`` and the
    rights assert the start label ``Lj`` for ``j ∈ {0, …, length}``, giving
    ``length × (length + 1)`` distinct requests (contained exactly when
    ``j = 0``).  Distinct right queries make the batch spread across worker
    ranges under right-token sub-sharding while every request still shares
    the one schema — the worst case for schema-major routing and hence the
    scaling benchmark's workload.
    """
    if length < 1:
        raise ValueError("synthetic_batch needs length >= 1")
    schema = synthetic.chain_schema(length)
    rights = [parse_c2rpq(f"q{j}(x) := L{j}(x)") for j in range(length + 1)]
    pairs: List[Pair] = []
    for prefix in range(1, length + 1):
        path = concat(*(edge(f"e{i}") for i in range(prefix)))
        left = C2RPQ([Atom(path, "x", "y")], ["x"], name=f"p{prefix}")
        pairs.extend((left, right) for right in rights)
    return schema, pairs


def mixed_batch(length: int = 6) -> List[Tuple[Any, Any, Schema]]:
    """Every built-in workload in one multi-schema batch.

    Returns ``(left, right, schema)`` triples — the per-request-schema form
    of :meth:`~repro.engine.ContainmentEngine.check_many` — concatenating
    the medical, FHIR, social and ``synthetic(length)`` batches.  This is
    the persistent-store benchmark's workload: four schemas with disjoint
    fingerprints exercise every cache tier (results, schema TBoxes,
    completions) rather than letting one hot schema mask the
    cold-start cost of the others.
    """
    requests: List[Tuple[Any, Any, Schema]] = []
    for name in ("medical", "fhir", "social"):
        schema, pairs = containment_batch(name)
        requests.extend((left, right, schema) for left, right in pairs)
    schema, pairs = synthetic_batch(length)
    requests.extend((left, right, schema) for left, right in pairs)
    return requests


def containment_batch(name: str, *, length: int = 8) -> Tuple[Schema, List[Pair]]:
    """The named built-in batch; *length* only applies to ``synthetic``."""
    if name == "medical":
        return medical_batch()
    if name == "fhir":
        return fhir_batch()
    if name == "social":
        return social_batch()
    if name == "synthetic":
        return synthetic_batch(length)
    raise ValueError(f"unknown workload {name!r} (expected one of {', '.join(BUILTIN_WORKLOADS)})")


def workload_schemas(name: str, *, length: int = 8) -> Dict[str, Schema]:
    """The named workload's schemas, keyed by role (``source``/``target``)."""
    if name == "medical":
        return {"source": medical.source_schema(), "target": medical.target_schema()}
    if name == "fhir":
        return {"source": fhir.schema_v3(), "target": fhir.schema_v4()}
    if name == "social":
        return {"source": social.schema_v1(), "target": social.schema_v2()}
    if name == "synthetic":
        return {"source": synthetic.chain_schema(length)}
    raise ValueError(f"unknown workload {name!r} (expected one of {', '.join(BUILTIN_WORKLOADS)})")
