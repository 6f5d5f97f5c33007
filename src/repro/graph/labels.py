"""Node labels, edge labels and signed edge labels (Σ±).

The paper works with an enumerable set of node labels Γ and edge labels Σ and
uses *inverse* edge labels ``r⁻`` to navigate edges backwards; the set of edge
labels together with their inverses is written Σ±.  In this library both node
and edge labels are plain strings; inverse edge labels are represented by the
:class:`Direction`-aware :class:`SignedLabel` wrapper, which the rest of the
code base uses whenever a label may be traversed in either direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
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


@dataclass(frozen=True)
class SignedLabel:
    """An edge label from Σ± — a base label plus a traversal direction.

    ``SignedLabel("knows")`` matches an edge ``u -knows-> v`` from ``u`` to
    ``v``; ``SignedLabel("knows", Direction.INVERSE)`` matches the same edge
    traversed from ``v`` to ``u``.
    """

    label: str
    direction: Direction = Direction.FORWARD

    def __post_init__(self) -> None:
        if not is_valid_label(self.label):
            raise ValueError(f"invalid edge label: {self.label!r}")

    def __lt__(self, other: "SignedLabel") -> bool:
        if not isinstance(other, SignedLabel):
            return NotImplemented
        return (self.label, self.direction.value) < (other.label, other.direction.value)

    @property
    def is_inverse(self) -> bool:
        """``True`` when the label is traversed backwards."""
        return self.direction is Direction.INVERSE

    def inverse(self) -> "SignedLabel":
        """Return the same base label traversed in the opposite direction."""
        if self.direction is Direction.FORWARD:
            return inverse(self.label)
        return forward(self.label)

    @classmethod
    def parse(cls, text: str) -> "SignedLabel":
        """Parse the textual form ``r`` / ``r-`` used across the DSLs."""
        text = text.strip()
        if text.endswith("-"):
            return cls(text[:-1], Direction.INVERSE)
        return cls(text)

    def __str__(self) -> str:
        suffix = "-" if self.is_inverse else ""
        return f"{self.label}{suffix}"

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
