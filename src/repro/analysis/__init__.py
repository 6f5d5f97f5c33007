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
  entailment tests for individual L0 statements.

All entry points accept an ``engine`` argument and otherwise share the
process-wide :func:`repro.engine.default_engine`, so their many containment
tests reuse per-schema caches; a batch of analyses is a loop over one
engine, ``[type_check(t, s, s2, engine=e) for t, s, s2 in jobs]``.  Each
analysis builds one solver from its engine and reports that solver's
``contains_calls`` as its ``containment_calls``, so the count is the number
of containment tests it issued, trimming included.  The grouped queries
``Q_A`` and ``Q_{A,R,B}`` are memoised on the transformation
(:mod:`repro.transform.grouping`), so every analysis of one transformation
object builds each once.
"""

from .coverage import CoverageCheck, CoverageResult, check_label_coverage
from .statements import StatementChecker, StatementEntailment
from .typecheck import TypeCheckResult, type_check
from .elicitation import ElicitationResult, elicit_schema
from .equivalence import EquivalenceDifference, EquivalenceResult, check_equivalence

__all__ = [
    "CoverageCheck",
    "CoverageResult",
    "check_label_coverage",
    "StatementChecker",
    "StatementEntailment",
    "TypeCheckResult",
    "type_check",
    "ElicitationResult",
    "elicit_schema",
    "EquivalenceDifference",
    "EquivalenceResult",
    "check_equivalence",
]
