"""Node labels, edge labels and signed edge labels (Σ±).

The paper works with an enumerable set of node labels Γ and edge labels Σ and
uses *inverse* edge labels ``r⁻`` to navigate edges backwards; the set of edge
labels together with their inverses is written Σ±.  In this library both node
and edge labels are plain strings; inverse edge labels are represented by the
:class:`Direction`-aware :class:`SignedLabel` wrapper, which the rest of the
code base uses whenever a label may be traversed in either direction.

A :class:`SignedLabel` is a tuple ``(label, "+" | "-")``: the Horn encoding
and the chase key dicts and sets by signed labels on every lookup, and a
tuple hashes, compares and orders in C.  Its order is the tuple order, which
is ``(label, direction.value)`` because ``"+"`` sorts before ``"-"``.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator

__all__ = [
    "Direction",
    "SignedLabel",
    "forward",
    "inverse",
    "signed_closure",
    "is_valid_label",
]


def is_valid_label(label: str) -> bool:
    """Return ``True`` when *label* is usable as a node or edge label.

    Labels are non-empty strings that do not contain whitespace and do not
    end with the inverse marker ``-`` (which is reserved for the textual
    syntax of inverse edge labels, e.g. ``knows-``).
    """
    if not isinstance(label, str) or not label:
        return False
    if any(ch.isspace() for ch in label):
        return False
    return not label.endswith("-")


class Direction(Enum):
    """Traversal direction of an edge label."""

    FORWARD = "+"
    INVERSE = "-"

    def flip(self) -> "Direction":
        """Return the opposite direction."""
        if self is Direction.FORWARD:
            return Direction.INVERSE
        return Direction.FORWARD

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Direction.{self.name}"

    # members are singletons (unpickling returns the same member), so identity
    # hashing agrees with equality and skips Enum's Python-level __hash__
    __hash__ = object.__hash__


_SIGN = {Direction.FORWARD: "+", Direction.INVERSE: "-"}
_DIRECTION = {"+": Direction.FORWARD, "-": Direction.INVERSE}


class SignedLabel(tuple):
    """An edge label from Σ± — a base label plus a traversal direction.

    ``SignedLabel("knows")`` matches an edge ``u -knows-> v`` from ``u`` to
    ``v``; ``SignedLabel("knows", Direction.INVERSE)`` matches the same edge
    traversed from ``v`` to ``u``.  The value is the tuple
    ``(label, direction.value)``.
    """

    __slots__ = ()

    def __new__(cls, label: str, direction: Direction = Direction.FORWARD) -> "SignedLabel":
        if not is_valid_label(label):
            raise ValueError(f"invalid edge label: {label!r}")
        sign = _SIGN.get(direction)
        if sign is None:
            raise ValueError(f"invalid direction: {direction!r}")
        return tuple.__new__(cls, (label, sign))

    def __getnewargs__(self):
        return (self[0], _DIRECTION[self[1]])

    label = property(itemgetter(0), doc="The base edge label from Σ.")

    @property
    def direction(self) -> Direction:
        """The traversal direction."""
        return _DIRECTION[self[1]]

    @property
    def is_inverse(self) -> bool:
        """``True`` when the label is traversed backwards."""
        return self[1] == "-"

    def inverse(self) -> "SignedLabel":
        """Return the same base label traversed in the opposite direction."""
        if self[1] == "+":
            return inverse(self[0])
        return forward(self[0])

    @classmethod
    def parse(cls, text: str) -> "SignedLabel":
        """Parse the textual form ``r`` / ``r-`` used across the DSLs."""
        text = text.strip()
        if text.endswith("-"):
            return cls(text[:-1], Direction.INVERSE)
        return cls(text)

    def __str__(self) -> str:
        return self[0] + "-" if self[1] == "-" else self[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SignedLabel({str(self)!r})"


# Signed labels are immutable values, so the shorthands hand out one shared
# instance per label and validate each label once; the bound keeps a stream of
# fresh labels from growing the caches without limit.
_LABEL_CACHE_SIZE = 4096


@lru_cache(maxsize=_LABEL_CACHE_SIZE)
def forward(label: str) -> SignedLabel:
    """Shorthand for the forward-directed signed label of *label*."""
    return SignedLabel(label, Direction.FORWARD)


@lru_cache(maxsize=_LABEL_CACHE_SIZE)
def inverse(label: str) -> SignedLabel:
    """Shorthand for the inverse-directed signed label of *label*."""
    return SignedLabel(label, Direction.INVERSE)


def signed_closure(labels: Iterable[str]) -> Iterator[SignedLabel]:
    """Yield Σ± for the given Σ: every label in both directions."""
    for label in labels:
        yield forward(label)
        yield inverse(label)
