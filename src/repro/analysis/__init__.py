"""Static analysis of graph transformations: type checking, equivalence,
target schema elicitation (the paper's core contribution).

Re-exports:

* :func:`type_check` / :class:`TypeCheckResult` — does ``T(G)`` conform to
  the target schema for every conforming input ``G`` (Theorem 4.2)?
* :func:`check_equivalence` / :class:`EquivalenceResult` /
  :class:`EquivalenceDifference` — do two transformations agree on every
  conforming input (Lemma B.8)?
* :func:`elicit_schema` / :class:`ElicitationResult` — construct the
  containment-minimal target schema of a transformation (Lemma B.5);
* :func:`check_label_coverage` / :class:`CoverageResult` /
  :class:`CoverageCheck` — the "every output node is labeled" premise
  (Lemma B.6);
* :class:`StatementChecker` / :class:`StatementEntailment` — the Lemma B.7
  entailment tests for individual L0 statements;
* :func:`type_check_many` / :func:`check_equivalence_many` — batch variants
  running whole job lists serially on one shared engine
  (:mod:`repro.analysis.batch`).

All entry points accept an ``engine`` argument and otherwise share the
process-wide :func:`repro.engine.default_engine`, so their many containment
tests reuse per-schema caches.
"""

from .coverage import CoverageCheck, CoverageResult, check_label_coverage
from .statements import StatementChecker, StatementEntailment
from .typecheck import TypeCheckResult, type_check
from .elicitation import ElicitationResult, elicit_schema
from .equivalence import EquivalenceDifference, EquivalenceResult, check_equivalence
from .batch import check_equivalence_many, type_check_many

__all__ = [
    "CoverageCheck",
    "CoverageResult",
    "check_label_coverage",
    "StatementChecker",
    "StatementEntailment",
    "TypeCheckResult",
    "type_check",
    "type_check_many",
    "ElicitationResult",
    "elicit_schema",
    "EquivalenceDifference",
    "EquivalenceResult",
    "check_equivalence",
    "check_equivalence_many",
]
