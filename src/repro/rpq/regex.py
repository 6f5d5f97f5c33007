"""Two-way regular expressions over node labels Γ and signed edge labels Σ±.

The grammar is the one from Section 3 / Appendix A of the paper::

    φ ::= ∅ | ε | A | R | φ·φ | φ+φ | φ*

where ``A ∈ Γ`` matches a node (the path stays in place and checks the node
label) and ``R ∈ Σ±`` matches an edge traversed forwards or backwards.  The
one-or-more operator ``φ⁺`` is provided as syntactic sugar for ``φ·φ*``.

Expressions are immutable and hashable; the module also implements the
*reversal* operation ``φ⁻`` used by the paper's nesting device (Appendix F).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import FrozenSet, Iterator, Tuple, Union

from ..exceptions import QueryError
from ..graph.labels import SignedLabel

__all__ = [
    "Regex",
    "EmptyLanguage",
    "Epsilon",
    "NodeTest",
    "EdgeStep",
    "Concat",
    "Union",
    "Star",
    "EMPTY",
    "EPSILON",
    "node",
    "edge",
    "concat",
    "union",
    "star",
    "plus",
    "optional",
    "word",
    "Symbol",
    "canonical_token",
]

# A symbol of the underlying alphabet: either a node-label test or an edge step.
Symbol = Union["NodeTest", "EdgeStep"]


class Regex:
    """Base class of two-way regular expressions."""

    # -- structural helpers -------------------------------------------------
    def children(self) -> Tuple["Regex", ...]:
        """Direct sub-expressions."""
        return ()

    def node_labels(self) -> FrozenSet[str]:
        """Node labels from Γ mentioned in the expression."""
        result = set()
        for symbol in self.symbols():
            if isinstance(symbol, NodeTest):
                result.add(symbol.label)
        return frozenset(result)

    def edge_labels(self) -> FrozenSet[str]:
        """Base edge labels from Σ mentioned in the expression."""
        result = set()
        for symbol in self.symbols():
            if isinstance(symbol, EdgeStep):
                result.add(symbol.signed.label)
        return frozenset(result)

    def symbols(self) -> Iterator[Symbol]:
        """Iterate over the alphabet symbols occurring in the expression."""
        for child in self.children():
            yield from child.symbols()

    def size(self) -> int:
        """Number of AST nodes (used by complexity-oriented benchmarks)."""
        return 1 + sum(child.size() for child in self.children())

    def reverse(self) -> "Regex":
        """The reversed expression φ⁻ (Appendix F): words read right-to-left
        with every edge step inverted."""
        raise NotImplementedError

    def nullable(self) -> bool:
        """``True`` when ε belongs to the language."""
        raise NotImplementedError

    def is_empty_language(self) -> bool:
        """``True`` when the language is syntactically guaranteed to be empty."""
        return False

    # -- operator sugar ------------------------------------------------------
    def __mul__(self, other: "Regex") -> "Regex":
        return concat(self, other)

    def __add__(self, other: "Regex") -> "Regex":
        return union(self, other)

    # -- hashing and serialisation -------------------------------------------
    # Expressions are used as cache keys throughout (the engine's automaton
    # cache, the compile memo of repro.core), so hashing a deep tree must not
    # recurse on every lookup.  The structural hash and the canonical token
    # are each computed once per node and cached on the (frozen) instance;
    # sub-expressions reuse their own cached values, so the cost is O(size)
    # on first use and O(1) afterwards.  Equality stays the
    # dataclass-generated structural comparison.
    def __hash__(self) -> int:
        cached = self.__dict__.get("_structural_hash")
        if cached is None:
            values = tuple(getattr(self, field.name) for field in dataclasses.fields(self))
            cached = hash((type(self).__name__, values))
            object.__setattr__(self, "_structural_hash", cached)
        return cached

    def __getstate__(self):
        # the cached hash mixes per-process values (str hashing is seeded);
        # drop both caches in transit so unpickled copies recompute locally
        state = dict(self.__dict__)
        state.pop("_structural_hash", None)
        state.pop("_canonical_token", None)
        return state


@dataclass(frozen=True)
class EmptyLanguage(Regex):
    """``∅`` — matches no path at all."""

    __hash__ = Regex.__hash__

    def reverse(self) -> Regex:
        return self

    def nullable(self) -> bool:
        return False

    def is_empty_language(self) -> bool:
        return True

    def __str__(self) -> str:
        return "<empty>"


@dataclass(frozen=True)
class Epsilon(Regex):
    """``ε`` — matches the empty path (any node to itself)."""

    __hash__ = Regex.__hash__

    def reverse(self) -> Regex:
        return self

    def nullable(self) -> bool:
        return True

    def __str__(self) -> str:
        return "<eps>"


@dataclass(frozen=True)
class NodeTest(Regex):
    """``A`` — matches an empty path whose (single) node carries label ``A``."""

    __hash__ = Regex.__hash__

    label: str

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise QueryError(f"invalid node label in regex: {self.label!r}")

    def symbols(self) -> Iterator[Symbol]:
        yield self

    def reverse(self) -> Regex:
        return self

    def nullable(self) -> bool:
        return False

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class EdgeStep(Regex):
    """``R`` for ``R ∈ Σ±`` — traverses one edge, forwards or backwards."""

    __hash__ = Regex.__hash__

    signed: SignedLabel

    def __post_init__(self) -> None:
        if not isinstance(self.signed, SignedLabel):
            raise QueryError(f"EdgeStep expects a SignedLabel, got {self.signed!r}")

    def symbols(self) -> Iterator[Symbol]:
        yield self

    def reverse(self) -> Regex:
        return EdgeStep(self.signed.inverse())

    def nullable(self) -> bool:
        return False

    def __str__(self) -> str:
        return str(self.signed)


@dataclass(frozen=True)
class Concat(Regex):
    """``φ·ψ`` — concatenation of paths."""

    __hash__ = Regex.__hash__

    left: Regex
    right: Regex

    def children(self) -> Tuple[Regex, ...]:
        return (self.left, self.right)

    def reverse(self) -> Regex:
        return Concat(self.right.reverse(), self.left.reverse())

    def nullable(self) -> bool:
        return self.left.nullable() and self.right.nullable()

    def is_empty_language(self) -> bool:
        return self.left.is_empty_language() or self.right.is_empty_language()

    def __str__(self) -> str:
        return f"{_wrap(self.left, Union)} . {_wrap(self.right, Union)}"


@dataclass(frozen=True)
class Union(Regex):
    """``φ+ψ`` — union of languages."""

    __hash__ = Regex.__hash__

    left: Regex
    right: Regex

    def children(self) -> Tuple[Regex, ...]:
        return (self.left, self.right)

    def reverse(self) -> Regex:
        return Union(self.left.reverse(), self.right.reverse())

    def nullable(self) -> bool:
        return self.left.nullable() or self.right.nullable()

    def is_empty_language(self) -> bool:
        return self.left.is_empty_language() and self.right.is_empty_language()

    def __str__(self) -> str:
        return f"{self.left} + {self.right}"


@dataclass(frozen=True)
class Star(Regex):
    """``φ*`` — zero or more repetitions."""

    __hash__ = Regex.__hash__

    inner: Regex

    def children(self) -> Tuple[Regex, ...]:
        return (self.inner,)

    def reverse(self) -> Regex:
        return Star(self.inner.reverse())

    def nullable(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{_wrap(self.inner, (Union, Concat))}*"


def canonical_token(expr: Regex) -> str:
    """An injective textual serialisation of the expression's structure.

    Used as the regex component of the canonical fingerprints that key the
    :mod:`repro.engine` caches (see docs/ARCHITECTURE.md, "Cache keys").
    Labels are length-prefixed, so the encoding stays injective whatever
    characters a label contains.  The token is computed once per node and
    cached on the (frozen) instance, like the structural hash.
    """
    cached = expr.__dict__.get("_canonical_token")
    if cached is None:
        cached = _canonical_token_uncached(expr)
        object.__setattr__(expr, "_canonical_token", cached)
    return cached


def _canonical_token_uncached(expr: Regex) -> str:
    if isinstance(expr, EmptyLanguage):
        return "0"
    if isinstance(expr, Epsilon):
        return "e"
    if isinstance(expr, NodeTest):
        return f"n{len(expr.label)}:{expr.label}"
    if isinstance(expr, EdgeStep):
        text = str(expr.signed)
        return f"r{len(text)}:{text}"
    if isinstance(expr, Concat):
        return f"(.{canonical_token(expr.left)} {canonical_token(expr.right)})"
    if isinstance(expr, Union):
        return f"(+{canonical_token(expr.left)} {canonical_token(expr.right)})"
    if isinstance(expr, Star):
        return f"(*{canonical_token(expr.inner)})"
    raise TypeError(f"unknown regex node: {expr!r}")  # pragma: no cover


def _wrap(expr: Regex, kinds) -> str:
    """Parenthesise sub-expressions of looser precedence when printing."""
    if isinstance(expr, kinds):
        return f"({expr})"
    return str(expr)


# --------------------------------------------------------------------------- #
# convenience constructors
# --------------------------------------------------------------------------- #
EMPTY = EmptyLanguage()
EPSILON = Epsilon()


def node(label: str) -> NodeTest:
    """Node-label test ``A``."""
    return NodeTest(label)


def edge(label: Union[str, SignedLabel]) -> EdgeStep:
    """Edge step ``r`` / ``r⁻`` (``"r-"`` in textual form)."""
    if isinstance(label, str):
        label = SignedLabel.parse(label)
    return EdgeStep(label)


def concat(*parts: Regex) -> Regex:
    """Concatenation of any number of expressions (ε for the empty product)."""
    result: Regex = EPSILON
    first = True
    for part in parts:
        result = part if first else Concat(result, part)
        first = False
    return result


def union(*parts: Regex) -> Regex:
    """Union of any number of expressions (∅ for the empty sum)."""
    result: Regex = EMPTY
    first = True
    for part in parts:
        result = part if first else Union(result, part)
        first = False
    return result


def star(inner: Regex) -> Regex:
    """Kleene star ``φ*``."""
    return Star(inner)


def plus(inner: Regex) -> Regex:
    """One-or-more ``φ⁺``, desugared to ``φ·φ*``."""
    return Concat(inner, Star(inner))


def optional(inner: Regex) -> Regex:
    """Zero-or-one ``φ?``, desugared to ``φ+ε``."""
    return Union(inner, EPSILON)


def word(*steps: Union[str, SignedLabel, Regex]) -> Regex:
    """Build the concatenation of atomic steps given in compact textual form.

    Strings starting with an upper-case letter are treated as node labels;
    anything else as (possibly inverse) edge labels — which matches the
    notational convention of the paper.  ``Regex`` arguments pass through.
    """
    parts = []
    for step in steps:
        if isinstance(step, Regex):
            parts.append(step)
        elif isinstance(step, SignedLabel):
            parts.append(EdgeStep(step))
        elif isinstance(step, str) and step[:1].isupper():
            parts.append(NodeTest(step))
        else:
            parts.append(edge(step))
    return concat(*parts)
