"""Horn-ALCIF TBoxes and the L0 fragment (Sections 3–5, Appendix B).

A :class:`TBox` is a finite set of concept inclusions in the normal forms of
:mod:`repro.dl.concepts`.  The class keeps the statements grouped by kind so
that the chase engine and the cycle-reversing procedure can iterate over
exactly the statements they need, and it knows the two complexity parameters
that the paper tracks: the number of concept names ``k`` and the number of
at-most constraints ``ℓ``.

The *L0 fragment* (Appendix B) restricts statements to the three forms
``A ⊑ ∃R.B``, ``A ⊑ ¬∃R.B`` and ``A ⊑ ∃≤1R.B`` with single concept names on
both sides; it is in one-to-one correspondence with schemas (see
:mod:`repro.dl.schema_tbox`).
"""

from __future__ import annotations

import hashlib
from typing import FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..exceptions import SolverError, TBoxError
from ..graph.graph import Graph
from ..graph.labels import SignedLabel
from .concepts import (
    AtMostOneCI,
    ConceptInclusion,
    ConceptNames,
    DisjunctionCI,
    ExistsCI,
    ForAllCI,
    NoExistsCI,
    SubclassOf,
    SubclassOfBottom,
)

__all__ = ["TBox", "canonical_statement_token", "is_l0_statement", "is_coherent_l0"]


def canonical_statement_token(statement: ConceptInclusion) -> str:
    """A deterministic serialisation of one concept inclusion.

    Unlike ``repr`` (whose frozenset ordering depends on the per-process hash
    seed) the token sorts every conjunction, so it is stable across processes
    and suitable as cache-key material for the :mod:`repro.engine` caches.
    The token is built once per statement and cached on the (frozen)
    instance, as :func:`repro.rpq.regex.canonical_token` caches a regex's.
    """
    # getattr, not __dict__.get: reading __dict__ would give every statement
    # a dict of its own
    cached = getattr(statement, "_canonical_token", None)
    if cached is None:
        cached = _canonical_statement_token_uncached(statement)
        object.__setattr__(statement, "_canonical_token", cached)
    return cached


def _canonical_statement_token_uncached(statement: ConceptInclusion) -> str:
    parts = [type(statement).__name__]
    parts.append(",".join(f"{len(n)}:{n}" for n in sorted(statement.body)))  # type: ignore[attr-defined]
    role = getattr(statement, "role", None)
    if role is not None:
        text = str(role)
        parts.append(f"{len(text)}:{text}")
    head = getattr(statement, "head", None)
    if head is not None:
        if isinstance(head, frozenset):
            parts.append(",".join(f"{len(n)}:{n}" for n in sorted(head)))
        else:
            parts.append(f"{len(head)}:{head}")
    alternatives = getattr(statement, "alternatives", None)
    if alternatives is not None:
        parts.append(",".join(f"{len(n)}:{n}" for n in sorted(alternatives)))
    return "|".join(parts)


_HORN_KINDS = (
    SubclassOf,
    SubclassOfBottom,
    ForAllCI,
    ExistsCI,
    NoExistsCI,
    AtMostOneCI,
)


class TBox:
    """A set of ALCIF concept inclusions in normal form."""

    def __init__(self, statements: Iterable[ConceptInclusion] = (), name: str = "T") -> None:
        self.name = name
        self._statements: List[ConceptInclusion] = []
        self._seen: Set[ConceptInclusion] = set()
        # the repro.chase.TBoxIndex that TBoxIndex.of builds on first use and
        # the canonical_fingerprint() memo: every mutation drops both,
        # copy() shares them, pickling omits them
        self._index = None
        self._fingerprint: Optional[str] = None
        for statement in statements:
            self.add(statement)

    @classmethod
    def from_distinct(cls, statements: Iterable[ConceptInclusion], name: str = "T") -> "TBox":
        """A TBox of pairwise distinct statements, built in bulk.

        Equal to ``TBox(statements, name)``, without one membership test per
        statement; raises :class:`TBoxError` when two statements coincide.
        """
        result = cls(name=name)
        result._statements = list(statements)
        result._seen = set(result._statements)
        if len(result._seen) != len(result._statements):
            raise TBoxError("from_distinct() got a repeated statement")
        if not all(isinstance(statement, ConceptInclusion) for statement in result._statements):
            raise TBoxError("from_distinct() got something that is not a concept inclusion")
        return result

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add(self, statement: ConceptInclusion) -> bool:
        """Add a statement; returns ``True`` when it was new."""
        if not isinstance(statement, ConceptInclusion):
            raise TBoxError(f"not a concept inclusion: {statement!r}")
        if statement in self._seen:
            return False
        self._seen.add(statement)
        self._statements.append(statement)
        self._index = None
        self._fingerprint = None
        return True

    def extend(self, statements: Iterable[ConceptInclusion]) -> int:
        """Add several statements; returns the number of new ones."""
        return sum(1 for statement in statements if self.add(statement))

    def discard(self, statements: Iterable[ConceptInclusion]) -> int:
        """Remove the given statements; returns the number removed."""
        gone = self._seen.intersection(statements)
        if gone:
            self._statements = [s for s in self._statements if s not in gone]
            self._seen -= gone
            self._index = None
            self._fingerprint = None
        return len(gone)

    def union(self, other: "TBox", name: Optional[str] = None) -> "TBox":
        """Union of two TBoxes: this TBox's statements, then the new ones of
        *other*.

        When this TBox's index is built, the union's is derived from it
        (:meth:`repro.chase.TBoxIndex.extended`) rather than rebuilt.
        """
        result = self.copy(name=name or f"{self.name}∪{other.name}")
        added = [statement for statement in other._statements if statement not in self._seen]
        result._statements.extend(added)
        result._seen.update(added)
        if added:
            result._fingerprint = None
            if self._index is not None:
                try:
                    result._index = self._index.extended(added)
                except SolverError:
                    # not Horn: indexing the union raises when someone asks
                    result._index = None
        return result

    def copy(self, name: Optional[str] = None) -> "TBox":
        """A shallow copy (statements are immutable).

        The statements were checked when they were added here, so the copy
        takes the list and the membership set as they are, and shares the
        index and the fingerprint until either side changes.
        """
        result = TBox(name=name or self.name)
        result._statements = list(self._statements)
        result._seen = set(self._seen)
        result._index = self._index
        result._fingerprint = self._fingerprint
        return result

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_index"]
        del state["_fingerprint"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._index = None
        self._fingerprint = None

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[ConceptInclusion]:
        return iter(self._statements)

    def __len__(self) -> int:
        return len(self._statements)

    def __contains__(self, statement: ConceptInclusion) -> bool:
        return statement in self._seen

    def statements(self) -> Tuple[ConceptInclusion, ...]:
        """All statements, in insertion order."""
        return tuple(self._statements)

    def of_kind(self, kind) -> Iterator[ConceptInclusion]:
        """Iterate over the statements of one normal-form kind."""
        return (s for s in self._statements if isinstance(s, kind))

    def subclass_statements(self) -> Iterator[SubclassOf]:
        """The statements ``K ⊑ A``."""
        return self.of_kind(SubclassOf)  # type: ignore[return-value]

    def bottom_statements(self) -> Iterator[SubclassOfBottom]:
        """The statements ``K ⊑ ⊥``."""
        return self.of_kind(SubclassOfBottom)  # type: ignore[return-value]

    def forall_statements(self) -> Iterator[ForAllCI]:
        """The statements ``K ⊑ ∀R.K'``."""
        return self.of_kind(ForAllCI)  # type: ignore[return-value]

    def exists_statements(self) -> Iterator[ExistsCI]:
        """The statements ``K ⊑ ∃R.K'``."""
        return self.of_kind(ExistsCI)  # type: ignore[return-value]

    def no_exists_statements(self) -> Iterator[NoExistsCI]:
        """The statements ``K ⊑ ¬∃R.K'``."""
        return self.of_kind(NoExistsCI)  # type: ignore[return-value]

    def at_most_statements(self) -> Iterator[AtMostOneCI]:
        """The statements ``K ⊑ ∃≤1R.K'``."""
        return self.of_kind(AtMostOneCI)  # type: ignore[return-value]

    def disjunction_statements(self) -> Iterator[DisjunctionCI]:
        """The non-Horn statements ``K ⊑ A₁ ⊔ … ⊔ A_n``."""
        return self.of_kind(DisjunctionCI)  # type: ignore[return-value]

    def is_horn(self) -> bool:
        """``True`` when no disjunctive statement is present."""
        return not any(True for _ in self.disjunction_statements())

    def concept_names(self) -> FrozenSet[str]:
        """All concept names mentioned (complexity parameter ``k``)."""
        names: Set[str] = set()
        for statement in self._statements:
            names |= statement.concept_names()
        return frozenset(names)

    def role_names(self) -> FrozenSet[str]:
        """All base role names mentioned."""
        names: Set[str] = set()
        for statement in self._statements:
            names |= statement.role_names()
        return frozenset(names)

    def signed_roles(self) -> FrozenSet[SignedLabel]:
        """All signed roles mentioned in ∀/∃/¬∃/≤1 statements."""
        roles: Set[SignedLabel] = set()
        for statement in self._statements:
            role = getattr(statement, "role", None)
            if role is not None:
                roles.add(role)
        return frozenset(roles)

    def at_most_count(self) -> int:
        """The complexity parameter ℓ — the number of at-most constraints."""
        return sum(1 for _ in self.at_most_statements())

    def size(self) -> int:
        """Total number of statements ``|T|``."""
        return len(self._statements)

    def canonical_token(self) -> str:
        """Order- and name-insensitive serialisation (the *set* of statements)."""
        return "tbox[" + ";".join(sorted(canonical_statement_token(s) for s in self._statements)) + "]"

    def canonical_fingerprint(self) -> str:
        """SHA-256 digest of :meth:`canonical_token` (cache-key material).

        Memoised on the TBox and dropped by every mutation, like the index:
        a completed TBox shared by many results is canonicalised once.
        """
        if self._fingerprint is None:
            self._fingerprint = hashlib.sha256(self.canonical_token().encode("utf-8")).hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------ #
    # semantics over finite graphs
    # ------------------------------------------------------------------ #
    def holds_in(self, graph: Graph) -> bool:
        """``G ⊨ T`` for a finite graph, checked statement by statement."""
        return all(statement.holds_in(graph) for statement in self._statements)

    def violated_statements(self, graph: Graph) -> List[ConceptInclusion]:
        """The statements violated by *graph* (useful for diagnostics)."""
        return [statement for statement in self._statements if not statement.holds_in(graph)]

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """A human-readable listing of the TBox."""
        lines = [f"TBox {self.name} ({len(self)} statements)"]
        lines.extend(f"  {statement}" for statement in self._statements)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TBox({self.name!r}, {len(self)} statements)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TBox):
            return NotImplemented
        return self._seen == other._seen

    def __hash__(self) -> int:
        return hash(frozenset(self._seen))


def is_l0_statement(statement: ConceptInclusion) -> bool:
    """``True`` for statements of the L0 fragment: single concept names on
    both sides and one of the forms ∃ / ¬∃ / ∃≤1."""
    if not isinstance(statement, (ExistsCI, NoExistsCI, AtMostOneCI)):
        return False
    return len(statement.body) == 1 and len(statement.head) == 1


def is_coherent_l0(statements: Iterable[ConceptInclusion]) -> bool:
    """Coherence of an L0 TBox (Appendix B).

    A set of L0 statements is coherent when (1) it never contains both
    ``A ⊑ ∃R.B`` and ``A ⊑ ¬∃R.B`` and (2) it contains ``A ⊑ ∃≤1R.B``
    whenever it contains ``A ⊑ ¬∃R.B``.
    """
    exists: Set[Tuple[ConceptNames, SignedLabel, ConceptNames]] = set()
    no_exists: Set[Tuple[ConceptNames, SignedLabel, ConceptNames]] = set()
    at_most: Set[Tuple[ConceptNames, SignedLabel, ConceptNames]] = set()
    for statement in statements:
        if not is_l0_statement(statement):
            raise TBoxError(f"not an L0 statement: {statement}")
        key = (statement.body, statement.role, statement.head)  # type: ignore[attr-defined]
        if isinstance(statement, ExistsCI):
            exists.add(key)
        elif isinstance(statement, NoExistsCI):
            no_exists.add(key)
        elif isinstance(statement, AtMostOneCI):
            at_most.add(key)
    if exists & no_exists:
        return False
    return no_exists <= at_most
