"""Seeded inputs for the four workloads.

The seed never changes how much work a pass does, only which requests carry
it.  Drawing the zoo's property family from the seed itself
(``zoo_corpus(seed)``) made one cold serial pass take anywhere from 2.2 s to
9.6 s over seeds 1-10 on the 2-vCPU reference VM, because a single heavy
pair can dominate a pass; no bound a regression gate can use survives that.
Shuffling the pairs was tried too: which ATM fragment pays for the shared
completion then depends on the order, and with it the latency tail.  So the
workloads use the fixed corpora at ``ZOO_SEED`` in corpus order, and the
seed

* renames every zoo query (``p0x0`` becomes ``p0x0_s<seed>``), which changes
  every result-cache key, store key, transport token and result
  fingerprint, so nothing one seed computed can answer another; and
* draws the ``serve-mixed`` arrival times, hot repeats and heavy positions.

The ``analysis`` jobs are the paper's own examples and do not depend on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis import check_equivalence, elicit_schema, type_check
from repro.rpq.queries import C2RPQ, UC2RPQ
from repro.schema.parser import schema_to_text
from repro.workloads import fhir, medical, social, synthetic
from repro.workloads.batches import mixed_batch
from repro.workloads.zoo import ZOO_SEED, zoo_corpus

__all__ = [
    "AnalysisJob",
    "Arrival",
    "ServeInputs",
    "ZooItem",
    "analysis_jobs",
    "phase_schedule",
    "serve_inputs",
    "zoo_items",
]


@dataclass(frozen=True)
class ZooItem:
    """One containment pair; ``key`` names it independently of the seed."""

    key: str
    left: Any
    right: Any
    schema: Any


def _renamed(query: Any, suffix: str) -> Any:
    if isinstance(query, UC2RPQ):
        return UC2RPQ(query.disjuncts, name=query.name + suffix)
    return C2RPQ(query.atoms, query.free_variables, name=query.name + suffix)


def zoo_items(seed: int) -> List[ZooItem]:
    """The 143 zoo pairs (120 property, 5 tree-device, 18 ATM fragments) in
    corpus order, renamed by *seed*."""
    suffix = f"_s{seed}"
    return [
        ZooItem(f"{family}/{index}", _renamed(left, suffix), _renamed(right, suffix), schema)
        for family, pairs in zoo_corpus(ZOO_SEED).items()
        for index, (left, right, schema) in enumerate(pairs)
    ]


# --------------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class AnalysisJob:
    """One of the paper's operations; ``run(engine)`` returns the answer the
    known-answer table (``answers.ANALYSIS_ANSWERS``) states for ``key``,
    and the number of containment calls the operation issued."""

    key: str
    run: Callable[[Any], Any]


def _elicited_multiplicities(transformation, source, edges):
    def run(engine):
        result = elicit_schema(transformation, source, engine=engine)
        answer = {edge: str(result.schema.multiplicity(*edge)) for edge in edges}
        return answer, result.containment_calls

    return run


def analysis_jobs() -> List[AnalysisJob]:
    """Type checking, equivalence and elicitation over the packaged
    migrations and the synthetic chains."""
    s0, s1 = medical.source_schema(), medical.target_schema()
    v3, v4 = fhir.schema_v3(), fhir.schema_v4()
    g1, g2 = social.schema_v1(), social.schema_v2()
    t_med, t_med_broken, t_med_redundant = (
        medical.migration(), medical.broken_migration(), medical.redundant_migration()
    )
    t_fhir, t_fhir_broken = fhir.migration_v3_to_v4(), fhir.broken_migration_v3_to_v4()
    t_soc, t_soc_broken = social.reification(), social.broken_reification()

    def typecheck(transformation, source, target):
        def run(engine):
            result = type_check(transformation, source, target, engine=engine)
            return result.well_typed, result.containment_calls
        return run

    def equivalent(left, right, schema):
        def run(engine):
            result = check_equivalence(left, right, schema, engine=engine)
            return result.equivalent, result.containment_calls
        return run

    jobs = [
        AnalysisJob("typecheck/medical", typecheck(t_med, s0, s1)),
        AnalysisJob("typecheck/medical-broken", typecheck(t_med_broken, s0, s1)),
        AnalysisJob("typecheck/medical-redundant", typecheck(t_med_redundant, s0, s1)),
        AnalysisJob("typecheck/fhir", typecheck(t_fhir, v3, v4)),
        AnalysisJob("typecheck/fhir-broken", typecheck(t_fhir_broken, v3, v4)),
        AnalysisJob("typecheck/social", typecheck(t_soc, g1, g2)),
        AnalysisJob("typecheck/social-broken", typecheck(t_soc_broken, g1, g2)),
        AnalysisJob("equivalence/medical-redundant", equivalent(t_med, t_med_redundant, s0)),
        AnalysisJob("equivalence/medical-broken", equivalent(t_med, t_med_broken, s0)),
        AnalysisJob("equivalence/fhir-broken", equivalent(t_fhir, t_fhir_broken, v3)),
        AnalysisJob("equivalence/social-broken", equivalent(t_soc, t_soc_broken, g1)),
        AnalysisJob("elicitation/medical", _elicited_multiplicities(
            t_med, s0, [("Vaccine", "designTarget", "Antigen"), ("Vaccine", "targets", "Antigen"),
                        ("Pathogen", "exhibits", "Antigen"), ("Antigen", "targets", "Antigen")])),
        AnalysisJob("elicitation/medical-broken", _elicited_multiplicities(
            t_med_broken, s0, [("Vaccine", "targets", "Antigen")])),
        AnalysisJob("elicitation/fhir", _elicited_multiplicities(
            t_fhir, v3, [("Patient", "primaryCare", "Practitioner"),
                         ("Patient", "organization", "Organization"),
                         ("Encounter", "participant", "Practitioner"),
                         ("Encounter", "subject", "Patient")])),
        AnalysisJob("elicitation/social", _elicited_multiplicities(
            t_soc, g1, [("Membership", "who", "Person"), ("Membership", "inGroup", "Group"),
                        ("Group", "moderatedBy", "Person")])),
    ]
    for length in (2, 4, 6):
        chain = synthetic.chain_schema(length)
        copy = synthetic.chain_copy_transformation(length)
        collapse = synthetic.chain_collapse_transformation(length)
        jobs.append(AnalysisJob(f"typecheck/chain-copy-{length}", typecheck(copy, chain, chain)))
        jobs.append(AnalysisJob(f"equivalence/chain-copy-{length}", equivalent(copy, synthetic.chain_copy_transformation(length), chain)))
        jobs.append(AnalysisJob(f"elicitation/chain-collapse-{length}", _elicited_multiplicities(collapse, chain,
                                                         [("L0", "shortcut", f"L{length}")])))
    return jobs


# --------------------------------------------------------------------------- #
# serve-mixed
# --------------------------------------------------------------------------- #
#: Payload classes of the serve-mixed mix, with their shares of requests.
FRESH_SHARE = 0.03
ATM_SHARE = 0.004


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: due ``at`` seconds into its phase; ``kind`` is
    ``hot``/``fresh``/``atm`` and ``key`` the payload."""

    at: float
    kind: str
    key: str


@dataclass
class ServeInputs:
    """The payload pools: text payloads by key (hot and fresh) and object
    triples for the ATM fragments, whose ε steps the query DSL cannot print."""

    hot: Dict[str, Dict[str, str]]
    fresh: Dict[str, Dict[str, str]]
    atm: Dict[str, Tuple[Any, Any, Any]]

    def payload_text(self, key: str) -> Optional[Dict[str, str]]:
        return self.hot.get(key) or self.fresh.get(key)


def _payload(left, right, schema) -> Dict[str, str]:
    return {"schema": schema_to_text(schema), "left": str(left), "right": str(right)}


def serve_inputs(seed: int) -> ServeInputs:
    """Hot payloads: the 60 packaged mixed-batch pairs (medical, FHIR, social,
    chain of length 4).  Fresh payloads: the 120 renamed property pairs.
    ATM payloads: the 18 renamed ATM fragments."""
    hot = {
        f"hot/{index}": _payload(left, right, schema)
        for index, (left, right, schema) in enumerate(mixed_batch(length=4))
    }
    fresh: Dict[str, Dict[str, str]] = {}
    atm: Dict[str, Tuple[Any, Any, Any]] = {}
    for item in sorted(zoo_items(seed), key=lambda item: item.key):
        if item.key.startswith("property/"):
            fresh[item.key] = _payload(item.left, item.right, item.schema)
        elif item.key.startswith("atm-fragments/"):
            atm[item.key] = (item.left, item.right, item.schema)
    return ServeInputs(hot, fresh, atm)


def phase_schedule(
    inputs: ServeInputs, seed: int, rate: float, duration: float, level: str, pass_index: int
) -> List[Arrival]:
    """A seeded open-loop schedule of ``round(rate * duration)`` arrivals.

    Conditioned on its count, a Poisson process places its arrivals as
    sorted uniform draws over the window, so this is Poisson traffic with a
    fixed count.  The composition is fixed too: every hot payload at least
    once plus seeded repeats, and a fixed slice of the fresh and ATM pools
    (renamed by the seed, each sent once, so each misses every cache in its
    phase).  The heavy requests sit at evenly spaced positions with a seeded
    offset, so the work a phase does, and how much traffic lands behind each
    heavy request, does not hinge on where a shuffle happened to put them.
    Each pass draws its own schedule; the layer counts of a pass do not
    depend on which one.
    """
    rng = random.Random(f"{seed}/{level}/{pass_index}")
    count = round(rate * duration)
    times = sorted(rng.uniform(0.0, duration) for _ in range(count))
    atm_count = round(ATM_SHARE * count)
    fresh_count = round(FRESH_SHARE * count)
    hot_keys = sorted(inputs.hot)
    hot_count = count - atm_count - fresh_count
    if (fresh_count > len(inputs.fresh) or atm_count > len(inputs.atm)
            or hot_count < len(hot_keys)):
        raise ValueError("the phase cannot hold its fixed payload mix at this rate")
    heavy = [("atm", key) for key in sorted(inputs.atm)[:atm_count]]
    heavy += [("fresh", key) for key in sorted(inputs.fresh)[:fresh_count]]
    rng.shuffle(heavy)
    hot = hot_keys + [hot_keys[rng.randrange(len(hot_keys))] for _ in range(hot_count - len(hot_keys))]
    rng.shuffle(hot)
    offset = rng.random()
    heavy_at = {int((slot + offset) * count / len(heavy)): slot for slot in range(len(heavy))}
    arrivals = []
    for position, at in enumerate(times):
        if position in heavy_at:
            kind, key = heavy[heavy_at[position]]
        else:
            kind, key = "hot", hot.pop()
        arrivals.append(Arrival(at, kind, key))
    return arrivals
