"""Horn-ALCIF chase: pattern consistency and C2RPQ satisfiability modulo TBoxes.

Re-exports:

* :class:`TBoxIndex` — statements indexed by kind and role, with the label
  closure operation every chase phase consults; built once per TBox
  (:meth:`TBoxIndex.of`) and derived, not rebuilt, for a union;
* :class:`TreeChecker` / :class:`TreeOutcome` — coinductive
  tree-extendability of deferred existential requirements (Appendix E),
  the fresh children a node creates for them, and the labels those
  children end with;
* :class:`ChaseEngine` / :class:`ChaseResult` — the four-phase chase over
  finite witness patterns, run on a private
  :class:`repro.chase.engine.WorkingPattern` copy of each;
* :class:`SatisfiabilitySolver` / :func:`is_satisfiable` with
  :class:`SatisfiabilityConfig` / :class:`SatisfiabilityResult` — witness
  enumeration in pumped normal form (Theorem 6.1) and its resource bounds;
  both run :func:`search_witnesses`, the one stage-5 search the containment
  solver also calls.  A verdict is ``exact`` when every atom is acyclic and
  no cap was reached, ``pumped`` when some atom has a productive cycle and
  no cap was reached, and ``truncated`` when ``max_words_per_atom`` was
  reached, a word reached ``max_word_length``, a non-empty language yielded
  no word, ``max_patterns`` was hit, or the pattern hook left patterns out;
* :func:`build_pattern` — materialise one witnessing word per atom as a
  labeled pattern graph.
"""

from .labelsets import TBoxIndex
from .tree import TreeChecker, TreeOutcome
from .engine import ChaseEngine, ChaseResult
from .solver import (
    SatisfiabilityConfig,
    SatisfiabilityResult,
    SatisfiabilitySolver,
    build_pattern,
    is_satisfiable,
    search_witnesses,
)

__all__ = [
    "TBoxIndex",
    "TreeChecker",
    "TreeOutcome",
    "ChaseEngine",
    "ChaseResult",
    "SatisfiabilityConfig",
    "SatisfiabilityResult",
    "SatisfiabilitySolver",
    "build_pattern",
    "is_satisfiable",
    "search_witnesses",
]
