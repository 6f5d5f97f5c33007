"""repro — static analysis of graph database transformations.

A from-scratch Python implementation of the framework of Boneva, Groz,
Hidders, Murlak and Staworko, *Static Analysis of Graph Database
Transformations* (PODS 2023): labeled graphs, schemas with participation
constraints, two-way regular path queries, Datalog-like graph transformations
with node constructors, and the EXPTIME static-analysis procedures — type
checking, equivalence and target schema elicitation — built on containment of
UC2RPQs in acyclic UC2RPQs modulo schema.

The most common entry points are re-exported here; see the subpackages for
the full API:

* :mod:`repro.graph` — the labeled graph data model;
* :mod:`repro.schema` — schemas and conformance;
* :mod:`repro.rpq` — regular path queries and their evaluation;
* :mod:`repro.transform` — transformations and their application;
* :mod:`repro.analysis` — type checking, equivalence, schema elicitation;
* :mod:`repro.containment` — query containment modulo schema;
* :mod:`repro.engine` — the cached containment engine and its batch API;
* :mod:`repro.store` — the disk-persistent result store behind
  ``ContainmentEngine(persist=path)``;
* :mod:`repro.service` — the long-running containment service behind
  ``python -m repro serve`` (request coalescer, HTTP/stdio transports; not
  re-exported here — import :mod:`repro.service` directly);
* :mod:`repro.workloads` — ready-made scenarios (the paper's medical example,
  FHIR-style migrations, synthetic generators, service request streams).
"""

from .graph import Graph, GraphBuilder
from .schema import Multiplicity, Schema, check_conformance, conforms, parse_schema
from .rpq import C2RPQ, UC2RPQ, Atom, parse_c2rpq, parse_regex, satisfies
from .transform import (
    EdgeRule,
    NodeConstructor,
    NodeRule,
    Transformation,
    parse_transformation,
)
from .analysis import (
    EquivalenceResult,
    TypeCheckResult,
    check_equivalence,
    elicit_schema,
    type_check,
)
from .containment import ContainmentResult, contains
from .engine import (
    ContainmentEngine,
    InvalidationReport,
    default_engine,
)
from .store import ResultStore

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "GraphBuilder",
    "Multiplicity",
    "Schema",
    "check_conformance",
    "conforms",
    "parse_schema",
    "C2RPQ",
    "UC2RPQ",
    "Atom",
    "parse_c2rpq",
    "parse_regex",
    "satisfies",
    "EdgeRule",
    "NodeConstructor",
    "NodeRule",
    "Transformation",
    "parse_transformation",
    "EquivalenceResult",
    "TypeCheckResult",
    "check_equivalence",
    "elicit_schema",
    "type_check",
    "ContainmentResult",
    "contains",
    "ContainmentEngine",
    "InvalidationReport",
    "default_engine",
    "ResultStore",
    "__version__",
]
