"""Containment of UC2RPQs in acyclic UC2RPQs modulo schema (Section 5).

Re-exports, one per pipeline stage (see docs/ARCHITECTURE.md):

* :func:`contains` — the stateless entry point ``P ⊆_S Q`` (routed through
  the shared :mod:`repro.engine` caches);
* :class:`ContainmentSolver` / :class:`ContainmentConfig` /
  :class:`ContainmentResult` — the cache-free decision procedure, its
  resource bounds and its outcome record;
* :func:`booleanize` / :class:`Booleanization` — stage 1, the Lemma D.1
  reduction of free variables to marker labels;
* :func:`encode_query` / :func:`encode_uc2rpq` / :func:`interleave_regex` —
  stage 2, the Theorem 5.6 interleaving rewrite;
* :func:`filter_query` / :func:`filter_uc2rpq` / :func:`filter_foreign_labels`
  — the alphabet-restriction half of stage 2 used by the solver;
* :func:`roll_up` / :class:`RollingUp` — stage 3, the Lemma C.2 translation
  of the acyclic right query into the Horn TBox ``T_¬Q``;
* :func:`complete` / :class:`CompletionConfig` / :class:`CompletionResult` /
  :func:`schema_has_finmod_cycle` / :func:`simplify_s_driven` — stage 4,
  cycle reversal and the S-driven simplification (Theorem 5.4, Lemma D.5);
* :func:`entails_exists` / :func:`entails_at_most` /
  :func:`label_set_satisfiable` / :func:`triple_satisfiable` — CI
  entailment (Corollary E.7) by chasing unmarked tiny patterns, which the
  completion asks through one :class:`~repro.containment.entailment.EntailmentChecker`
  per round;
* :func:`find_counterexample` / :class:`Counterexample` /
  :func:`enumerate_conforming_graphs` — finite counterexample search for
  non-containment diagnostics.
"""

from .booleanize import Booleanization, booleanize
from .schema_encoding import (
    encode_query,
    encode_uc2rpq,
    filter_foreign_labels,
    filter_query,
    filter_uc2rpq,
    interleave_regex,
)
from .rolling_up import RollingUp, roll_up
from .entailment import (
    entails_at_most,
    entails_exists,
    label_set_satisfiable,
    triple_satisfiable,
)
from .cycle_reversal import (
    CompletionConfig,
    CompletionResult,
    complete,
    schema_has_finmod_cycle,
    simplify_s_driven,
)
from .counterexample import Counterexample, enumerate_conforming_graphs, find_counterexample
from .solver import ContainmentConfig, ContainmentResult, ContainmentSolver, contains

__all__ = [
    "Booleanization",
    "booleanize",
    "encode_query",
    "encode_uc2rpq",
    "filter_foreign_labels",
    "filter_query",
    "filter_uc2rpq",
    "interleave_regex",
    "RollingUp",
    "roll_up",
    "entails_at_most",
    "entails_exists",
    "label_set_satisfiable",
    "triple_satisfiable",
    "CompletionConfig",
    "CompletionResult",
    "complete",
    "schema_has_finmod_cycle",
    "simplify_s_driven",
    "Counterexample",
    "enumerate_conforming_graphs",
    "find_counterexample",
    "ContainmentConfig",
    "ContainmentResult",
    "ContainmentSolver",
    "contains",
]
