"""Cheap transport for the process backend: references and mirrored catalogs.

A long-lived pool decides thousands of requests over the *same* few schemas
and queries, so pickling every request whole would ship (and rebuild the
cache keys of) the same objects again and again.  Instead every schema and
query crossing the boundary is named by a token derived from its canonical
fingerprint (:func:`schema_token` / :func:`query_token`), and each worker
holds a bounded LRU :class:`TokenCatalog` of the objects it has received.
A known token ships as a 2-tuple ``("r", token)`` reference, an unknown one
as a ``("v", token, object)`` value (docs/ARCHITECTURE.md, "The transport
layer").

**The mirror invariant.**  The parent keeps, per worker, a ledger that is
itself a :class:`TokenCatalog` with the same bound.  :func:`encode_payload`
touches the ledger on a reference and registers on a value, slot by slot
and in chunk order; :func:`decode_payload` registers and resolves the
worker's catalog in exactly that order.  Both LRUs therefore go through
identical operations and hold the same tokens in the same order, so a
reference the parent sends always resolves — eviction on one side is
eviction on the other.  A pool never restarts its workers (a failed pool
is replaced whole), so a restart replaces both sides at once.

Workers compile their own automata (NFAs and pumped word enumerations) from
the shipped regexes, so no compiled artefact crosses the boundary.  Verdicts
and ``result_fingerprint`` digests are bit-identical across the serial and
process backends.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterator, List, Tuple

__all__ = [
    "TokenCatalog",
    "TransportStats",
    "decode_payload",
    "encode_payload",
    "query_token",
    "schema_token",
]


@dataclass
class TransportStats:
    """Parent-side counters of the reference protocol (one per pool)."""

    items: int = 0  # payloads encoded for the wire
    references_sent: int = 0  # slots shipped as bare tokens
    values_sent: int = 0  # slots shipped with their full object
    # Always 0: mirrored catalogs never miss, so nothing is re-sent.  Kept
    # because the end-to-end benchmark reads it (transport.fallback_share).
    fallback_items: int = 0
    # Always 0: no context seed is shipped.  Kept because the end-to-end
    # benchmark reads it (transport.seed_bytes).
    seed_bytes: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def snapshot(self) -> "TransportStats":
        return TransportStats(**self.as_dict())


def schema_token(name: str, fingerprint: str) -> str:
    """The wire token of a schema: its name *and* canonical fingerprint.

    Fingerprints are deliberately name-insensitive (renamed-but-equal schemas
    share every cache entry), but a worker-computed result carries
    ``schema_name`` — resolving a reference to a same-fingerprint schema with
    a different name would silently change result fingerprints, so the name
    is part of the token.
    """
    return f"s:{name}\x1f{fingerprint}"


def query_token(name: str, canonical: str) -> str:
    """The wire token of a (normalised) query.

    The canonical token ignores names and disjunct order by design, but names
    surface in result fields (``left_name``/``right_name``), so two queries
    that differ only by name must resolve to *different* catalog entries.
    """
    return f"q:{name}\x1f{canonical}"


class TokenCatalog:
    """A bounded token → object map with LRU eviction.

    The worker's catalog holds the objects; the parent's per-worker ledger is
    a catalog of the same bound holding only the tokens.  The bound exists
    so a worker serving an adversarial stream of distinct schemas cannot
    grow without limit.
    """

    def __init__(self, maxsize: int = 8192) -> None:
        if maxsize < 1:
            raise ValueError("TokenCatalog maxsize must be at least 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, Any]" = OrderedDict()

    def register(self, token: str, value: Any = None) -> None:
        """Insert *token* as the most recently used entry, evicting the LRU."""
        self._entries[token] = value
        self._entries.move_to_end(token)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def resolve(self, token: str) -> Any:
        """The value under *token*, now the most recently used entry.

        Raises :class:`KeyError` for an unknown token: with mirrored
        catalogs that is a protocol bug, never a cache miss.
        """
        value = self._entries[token]
        self._entries.move_to_end(token)
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, token: str) -> bool:
        return token in self._entries

    def __iter__(self) -> Iterator[str]:
        """Tokens from least to most recently used."""
        return iter(self._entries)


def encode_payload(
    payload: Tuple[Any, Any, Any, Any],
    tokens: Tuple[str, str, str],
    ledger: TokenCatalog,
    stats: TransportStats,
) -> Tuple:
    """One ``(left, right, schema, config)`` payload in wire form.

    *tokens* is ``(left token, right token, schema token)`` and *ledger* the
    parent's mirror of the receiving worker's catalog.  A slot whose token is
    in the ledger ships as a reference and touches the ledger; any other slot
    ships as a value and is registered — the very operations
    :func:`decode_payload` applies to the worker's catalog.
    """
    left, right, schema, config = payload
    slots: List[Tuple] = []
    stats.items += 1
    for value, token in ((left, tokens[0]), (right, tokens[1]), (schema, tokens[2])):
        if token in ledger:
            ledger.resolve(token)
            slots.append(("r", token))
            stats.references_sent += 1
        else:
            ledger.register(token)
            slots.append(("v", token, value))
            stats.values_sent += 1
    return (slots[0], slots[1], slots[2], config)


def decode_payload(encoded: Tuple, catalog: TokenCatalog) -> Tuple[Any, Any, Any, Any]:
    """The worker-side inverse of :func:`encode_payload`.

    Value slots are registered into *catalog* and references resolved from
    it, slot by slot; the caller decodes a chunk's items in order, so the
    catalog replays the parent's ledger operations exactly.
    """
    resolved: List[Any] = []
    for slot in encoded[:3]:
        if slot[0] == "v":
            _, token, value = slot
            catalog.register(token, value)
            resolved.append(value)
        else:
            resolved.append(catalog.resolve(slot[1]))
    return (resolved[0], resolved[1], resolved[2], encoded[3])
