"""Graph schemas with participation constraints (Section 3 of the paper).

A schema is a triple ``S = (Γ_S, Σ_S, δ_S)`` where ``Γ_S`` is a finite set of
allowed node labels, ``Σ_S`` a finite set of allowed edge labels and
``δ_S : Γ_S × Σ±_S × Γ_S → {?, 1, +, *, 0}`` assigns a participation
constraint to every (source label, signed edge label, target label) triple.
Triples that are not mentioned are implicitly forbidden (multiplicity ``0``).

A graph conforms to ``S`` when every node carries exactly one label from
``Γ_S``, every edge label belongs to ``Σ_S`` and for every node with label
``A`` and every ``R ∈ Σ±_S``, ``B ∈ Γ_S`` the number of its ``R``-successors
labeled ``B`` satisfies ``δ_S(A, R, B)``.
"""

from __future__ import annotations

import hashlib
from enum import Enum
from types import MappingProxyType
from typing import (
    Any, Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, Mapping, Optional, Tuple, Union,
)

from ..exceptions import SchemaError
from ..graph.labels import SignedLabel, forward, inverse, signed_closure

__all__ = ["Multiplicity", "Schema", "ConstraintTriple"]


class Multiplicity(Enum):
    """Participation constraints: how many successors of a kind are allowed."""

    ZERO = "0"
    ONE = "1"
    OPTIONAL = "?"
    PLUS = "+"
    STAR = "*"

    # ------------------------------------------------------------------ #
    @classmethod
    def parse(cls, text: Union[str, "Multiplicity"]) -> "Multiplicity":
        """Parse the one-character textual form used in figures and the DSL."""
        if isinstance(text, Multiplicity):
            return text
        for member in cls:
            if member.value == text:
                return member
        raise SchemaError(f"unknown multiplicity symbol: {text!r}")

    def allows(self, count: int) -> bool:
        """``True`` when a node may have exactly *count* matching successors."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if self is Multiplicity.ZERO:
            return count == 0
        if self is Multiplicity.ONE:
            return count == 1
        if self is Multiplicity.OPTIONAL:
            return count <= 1
        if self is Multiplicity.PLUS:
            return count >= 1
        return True  # STAR

    @property
    def requires_at_least_one(self) -> bool:
        """``True`` for ``1`` and ``+``."""
        return self in (Multiplicity.ONE, Multiplicity.PLUS)

    @property
    def requires_at_most_one(self) -> bool:
        """``True`` for ``0``, ``1`` and ``?``."""
        return self in (Multiplicity.ZERO, Multiplicity.ONE, Multiplicity.OPTIONAL)

    @property
    def forbids(self) -> bool:
        """``True`` for ``0``."""
        return self is Multiplicity.ZERO

    def allowed_counts(self) -> FrozenSet[Union[int, str]]:
        """A symbolic description of the allowed counts (used by ``is_at_most``)."""
        mapping = {
            Multiplicity.ZERO: frozenset({0}),
            Multiplicity.ONE: frozenset({1}),
            Multiplicity.OPTIONAL: frozenset({0, 1}),
            Multiplicity.PLUS: frozenset({1, "many"}),
            Multiplicity.STAR: frozenset({0, 1, "many"}),
        }
        return mapping[self]

    def is_at_most(self, other: "Multiplicity") -> bool:
        """The containment order ≼ of Proposition B.3, read semantically.

        ``m ≼ m'`` holds when every count allowed by ``m`` is allowed by
        ``m'`` (set inclusion of allowed counts).  The paper states the order
        as the closure of ``0 ≼ ?``, ``1 ≼ ?``, ``? ≼ +``, ``+ ≼ *``; the
        third generator is a typo (``{0,1} ⊄ {1,2,…}``) and the semantic
        reading used here (``? ≼ *`` instead) is the one consistent with
        Proposition B.3's proof, which argues via allowed successor counts.
        """
        return self.allowed_counts() <= other.allowed_counts()

    def __str__(self) -> str:
        return self.value


ConstraintTriple = Tuple[str, SignedLabel, str]


class Schema:
    """A graph schema ``(Γ_S, Σ_S, δ_S)`` with participation constraints."""

    def __init__(
        self,
        node_labels: Iterable[str],
        edge_labels: Iterable[str],
        constraints: Optional[Mapping[ConstraintTriple, Union[str, Multiplicity]]] = None,
        name: str = "S",
    ) -> None:
        self.name = name
        self.node_labels: FrozenSet[str] = frozenset(node_labels)
        self.edge_labels: FrozenSet[str] = frozenset(edge_labels)
        if not all(isinstance(label, str) and label for label in self.node_labels):
            raise SchemaError("node labels must be non-empty strings")
        if not all(isinstance(label, str) and label for label in self.edge_labels):
            raise SchemaError("edge labels must be non-empty strings")
        self._delta: Dict[ConstraintTriple, Multiplicity] = {}
        # memos of values derived from δ (threads racing on one compute equal
        # values); set() is the only writer of _delta and clears all three,
        # and pickling omits the last two
        self._fingerprint: Optional[str] = None
        self._derived: Dict[Hashable, Any] = {}
        self._allowed_edges: Optional[FrozenSet[Tuple[str, str, str]]] = None
        for (source, signed, target), mult in (constraints or {}).items():
            self.set(source, signed, target, mult)

    # ------------------------------------------------------------------ #
    # constraint table
    # ------------------------------------------------------------------ #
    def _check_triple(self, source: str, signed: SignedLabel, target: str) -> None:
        if source not in self.node_labels:
            raise SchemaError(f"unknown node label {source!r} in schema {self.name}")
        if target not in self.node_labels:
            raise SchemaError(f"unknown node label {target!r} in schema {self.name}")
        if signed.label not in self.edge_labels:
            raise SchemaError(f"unknown edge label {signed.label!r} in schema {self.name}")

    def set(
        self,
        source: str,
        signed: Union[SignedLabel, str],
        target: str,
        multiplicity: Union[str, Multiplicity],
    ) -> None:
        """Declare ``δ_S(source, signed, target) = multiplicity``."""
        if isinstance(signed, str):
            signed = SignedLabel.parse(signed)
        self._check_triple(source, signed, target)
        self._delta[(source, signed, target)] = Multiplicity.parse(multiplicity)
        self._fingerprint = None
        self._derived = {}
        self._allowed_edges = None

    def set_edge(
        self,
        source: str,
        label: str,
        target: str,
        out_multiplicity: Union[str, Multiplicity],
        in_multiplicity: Union[str, Multiplicity],
    ) -> None:
        """Declare both directions of an edge at once.

        ``out_multiplicity`` constrains how many ``label``-successors with
        label *target* each *source* node has; ``in_multiplicity`` constrains
        how many ``label⁻``-successors (i.e. predecessors) with label *source*
        each *target* node has.  This matches the graphical notation of
        Figure 1, e.g. ``A --r[* 1]--> B``.
        """
        self.set(source, forward(label), target, out_multiplicity)
        self.set(target, inverse(label), source, in_multiplicity)

    def multiplicity(
        self, source: str, signed: Union[SignedLabel, str], target: str
    ) -> Multiplicity:
        """Return ``δ_S(source, signed, target)``; unmentioned triples are ``0``."""
        if isinstance(signed, str):
            signed = SignedLabel.parse(signed)
        self._check_triple(source, signed, target)
        return self._delta.get((source, signed, target), Multiplicity.ZERO)

    @property
    def delta(self) -> Mapping[ConstraintTriple, Multiplicity]:
        """The declared entries of δ_S, read-only; undeclared triples are ``0``."""
        return MappingProxyType(self._delta)

    def declared_constraints(self) -> Iterator[Tuple[str, SignedLabel, str, Multiplicity]]:
        """Iterate over the explicitly declared constraints."""
        for (source, signed, target), mult in sorted(self._delta.items(), key=repr):
            yield source, signed, target, mult

    def all_constraints(self) -> Iterator[Tuple[str, SignedLabel, str, Multiplicity]]:
        """Iterate over δ_S on its whole domain Γ_S × Σ±_S × Γ_S (including implicit 0)."""
        for source in sorted(self.node_labels):
            for signed in sorted(signed_closure(sorted(self.edge_labels))):
                for target in sorted(self.node_labels):
                    yield source, signed, target, self.multiplicity(source, signed, target)

    def _allowed_edge_table(self) -> FrozenSet[Tuple[str, str, str]]:
        """The (A, r, B) with ``δ(A, r, B) ≠ 0`` and ``δ(B, r⁻, A) ≠ 0``.

        Only declared entries can be non-zero, so one walk over them finds
        every allowed edge.
        """
        if self._allowed_edges is None:
            zero = Multiplicity.ZERO
            self._allowed_edges = frozenset(
                (source, signed.label, target)
                for (source, signed, target), mult in self._delta.items()
                if not signed.is_inverse
                and mult is not zero
                and self._delta.get((target, signed.inverse(), source), zero) is not zero
            )
        return self._allowed_edges

    def allowed_edge_triples(self) -> Iterator[Tuple[str, str, str]]:
        """Iterate, sorted, over the (A, r, B) such that an r-edge from an A-node
        to a B-node is allowed (see :meth:`forbids_edge`)."""
        return iter(sorted(self._allowed_edge_table()))

    def forbids_edge(self, source: str, label: str, target: str) -> bool:
        """``True`` when no r-edge from an A-node to a B-node is allowed.

        An edge is allowed only when *neither* direction of the participation
        table forbids it: ``δ(A, r, B) ≠ 0`` and ``δ(B, r⁻, A) ≠ 0``.
        """
        if (source, label, target) in self._allowed_edge_table():
            return False
        self._check_triple(source, forward(label), target)
        return True

    def derived(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """``build()``, computed once per *key* and kept until the next :meth:`set`.

        For values that depend only on the schema, such as the extended
        schema ``S°`` of :func:`repro.containment.booleanize`; callers must
        treat the value as read-only.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
            return value

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def is_empty(self) -> bool:
        """``True`` when the schema has no node labels (only the empty graph conforms)."""
        return not self.node_labels

    def restrict(self, node_labels: Iterable[str], edge_labels: Iterable[str]) -> "Schema":
        """Return the schema restricted to the given label sets."""
        node_keep = self.node_labels & frozenset(node_labels)
        edge_keep = self.edge_labels & frozenset(edge_labels)
        result = Schema(node_keep, edge_keep, name=f"{self.name}|restricted")
        for source, signed, target, mult in self.declared_constraints():
            if source in node_keep and target in node_keep and signed.label in edge_keep:
                result.set(source, signed, target, mult)
        return result

    def canonical_token(self) -> str:
        """An injective serialisation of the schema's *semantics*.

        Explicitly declared ``0`` constraints are omitted (they coincide with
        the implicit default), constraints are sorted, and the schema name is
        excluded — so two schemas compare equal exactly when their tokens
        coincide.  This is the schema component of the :mod:`repro.engine`
        cache keys.
        """
        nodes = ",".join(f"{len(l)}:{l}" for l in sorted(self.node_labels))
        edges = ",".join(f"{len(l)}:{l}" for l in sorted(self.edge_labels))
        constraints = ";".join(
            sorted(
                f"{len(s)}:{s}|{len(str(signed))}:{signed}|{len(t)}:{t}|{mult}"
                for (s, signed, t), mult in self._delta.items()
                if mult is not Multiplicity.ZERO
            )
        )
        return f"schema[{nodes}][{edges}][{constraints}]"

    def canonical_fingerprint(self) -> str:
        """SHA-256 digest of :meth:`canonical_token` (cache-key material).

        Computed once per schema object and memoised until the next
        :meth:`set` (which :meth:`set_edge` goes through).
        """
        if self._fingerprint is None:
            self._fingerprint = hashlib.sha256(self.canonical_token().encode("utf-8")).hexdigest()
        return self._fingerprint

    def copy(self, name: Optional[str] = None) -> "Schema":
        """Return a copy of the schema."""
        result = Schema(self.node_labels, self.edge_labels, name=name or self.name)
        for source, signed, target, mult in self.declared_constraints():
            result.set(source, signed, target, mult)
        return result

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_derived"], state["_allowed_edges"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._derived = {}
        self._allowed_edges = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        if self.node_labels != other.node_labels or self.edge_labels != other.edge_labels:
            return False
        return all(
            self.multiplicity(a, r, b) == other.multiplicity(a, r, b)
            for a, r, b, _ in self.all_constraints()
        )

    def __hash__(self) -> int:
        return hash((self.node_labels, self.edge_labels))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schema({self.name!r}, nodes={sorted(self.node_labels)}, "
            f"edges={sorted(self.edge_labels)})"
        )

    def describe(self) -> str:
        """Return a human-readable listing of the declared constraints."""
        lines = [f"schema {self.name}"]
        lines.append(f"  node labels: {', '.join(sorted(self.node_labels)) or '-'}")
        lines.append(f"  edge labels: {', '.join(sorted(self.edge_labels)) or '-'}")
        for source, signed, target, mult in self.declared_constraints():
            lines.append(f"  {source} -{signed}-> {target} : {mult}")
        return "\n".join(lines)
