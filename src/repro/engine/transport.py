"""Cheap transport for the process backend: references and catalogs.

The original worker protocol pickled every request whole — schema, both
queries, config — into each worker's inbox, even though a long-lived pool
decides thousands of requests over the *same* few schemas and queries.  On
the workloads that matter the pickled schema dominates the message, which is
how the headline parallel path ended up losing to serial (ROADMAP item 1).
This module supplies the two mechanisms that make the boundary cheap
(docs/ARCHITECTURE.md, "The transport layer"):

* **Canonical-fingerprint references.**  Every schema and query crossing the
  boundary is named by a token derived from its canonical fingerprint
  (:func:`schema_token` / :func:`query_token`).  The parent tracks which
  tokens each worker has already received (:class:`TransportStats` counts
  the traffic); a known token ships as a 2-tuple reference, an unknown one
  ships as a ``("v", token, object)`` slot that the worker registers in its
  bounded :class:`TokenCatalog` before resolving later references of the
  same message.  A reference the worker cannot resolve — catalog eviction,
  a restarted worker, a store miss — is answered with a ``"miss"`` reply
  and the parent **falls back to full-payload transport** for exactly those
  items; the protocol degrades to the old one, it never fails.

* **Store-backed schema resolution.**  Workers of a persisting engine open
  the shared :class:`~repro.store.ResultStore` read-only; the parent
  persists every schema of a process batch into the store's ``"schemas"``
  tier (keyed by canonical fingerprint), so a schema reference can be
  resolved from disk even by a worker that never saw the object — the
  warm-start that already covered results and schema TBoxes now covers the
  request payloads themselves.

Workers compile their own automata (NFAs and pumped word enumerations) from
the shipped regexes, so no compiled artefact crosses the boundary.

Both mechanisms preserve the engine's core invariant: verdicts and
``result_fingerprint`` digests are bit-identical across the serial and
process backends.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Set, Tuple

__all__ = [
    "TokenCatalog",
    "TransportStats",
    "WorkerTransportStats",
    "decode_payload",
    "encode_payload",
    "query_token",
    "schema_token",
]


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
@dataclass
class TransportStats:
    """Parent-side counters of the reference protocol (one per pool)."""

    items: int = 0  # payloads encoded for the wire
    references_sent: int = 0  # slots shipped as bare tokens
    values_sent: int = 0  # slots shipped with their full object
    fallback_items: int = 0  # items re-sent with full payloads after a miss
    # Always 0: no context seed is shipped any more, and none ever carried a
    # byte on any workload.  Kept because the end-to-end benchmark reads it;
    # it goes when the benchmark stops reporting it.
    seed_bytes: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def snapshot(self) -> "TransportStats":
        return TransportStats(**self.as_dict())


@dataclass
class WorkerTransportStats:
    """Worker-side counters, shipped back with the engine stats."""

    catalog_hits: int = 0  # references resolved from the token catalog
    store_hits: int = 0  # schema references resolved from the read-only store
    misses: int = 0  # references answered with a "miss" reply
    values_registered: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def snapshot(self) -> "WorkerTransportStats":
        return WorkerTransportStats(**self.as_dict())

    def merge(self, other: "WorkerTransportStats") -> None:
        for field in fields(self):
            setattr(self, field.name, getattr(self, field.name) + getattr(other, field.name))


# --------------------------------------------------------------------------- #
# tokens and the reference protocol
# --------------------------------------------------------------------------- #
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
    """The worker-side bounded token → object map (LRU).

    Eviction is always safe: a reference to an evicted token comes back as a
    ``"miss"`` and the parent re-sends the full payload, which re-registers
    it.  The bound exists so a worker serving an adversarial stream of
    distinct schemas cannot grow without limit.
    """

    def __init__(self, maxsize: int = 8192) -> None:
        if maxsize < 1:
            raise ValueError("TokenCatalog maxsize must be at least 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, Any]" = OrderedDict()

    def register(self, token: str, value: Any) -> None:
        if token in self._entries:
            self._entries.move_to_end(token)
        self._entries[token] = value
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def resolve(self, token: str) -> Optional[Any]:
        value = self._entries.get(token)
        if value is not None:
            self._entries.move_to_end(token)
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, token: str) -> bool:
        return token in self._entries


def encode_payload(
    payload: Tuple[Any, Any, Any, Any],
    tokens: Tuple[str, str, str],
    seen: Set[str],
    stats: TransportStats,
    *,
    force_values: bool = False,
) -> Tuple:
    """One ``(left, right, schema, config)`` payload in wire form.

    *tokens* is ``(left token, right token, schema token)``.  Slots whose
    token the worker has already received (per *seen*, the parent's
    per-worker ledger) ship as references; the rest ship as values and are
    added to the ledger.  ``force_values`` is the miss-fallback path: every
    slot ships its object regardless (re-registering evicted entries).
    Within one chunk the ordering does the sharing: the first item carrying
    a new schema ships it, later items reference it — the worker decodes in
    order, registering values before resolving references.
    """
    left, right, schema, config = payload
    slots: List[Tuple] = []
    stats.items += 1
    for value, token in ((left, tokens[0]), (right, tokens[1]), (schema, tokens[2])):
        if not force_values and token in seen:
            slots.append(("r", token))
            stats.references_sent += 1
        else:
            seen.add(token)
            slots.append(("v", token, value))
            stats.values_sent += 1
    return (slots[0], slots[1], slots[2], config)


def decode_payload(
    encoded: Tuple,
    catalog: TokenCatalog,
    store: Optional[Any],
    stats: WorkerTransportStats,
) -> Tuple[Optional[Tuple], List[str]]:
    """The worker-side inverse: ``(payload, [])`` or ``(None, missing tokens)``.

    Value slots are registered into *catalog* before any later reference of
    the same message is resolved (the caller decodes items in chunk order).
    Schema references additionally fall back to the read-only *store*'s
    ``"schemas"`` tier.  Unresolvable tokens are reported, not raised — the
    parent answers a miss with the full payload.
    """
    resolved: List[Any] = []
    missing: List[str] = []
    for slot in encoded[:3]:
        if slot[0] == "v":
            _, token, value = slot
            catalog.register(token, value)
            stats.values_registered += 1
            resolved.append(value)
            continue
        token = slot[1]
        value = catalog.resolve(token)
        if value is not None:
            stats.catalog_hits += 1
            resolved.append(value)
            continue
        if store is not None and token.startswith("s:"):
            name, _, fingerprint = token[2:].partition("\x1f")
            value = store.get("schemas", fingerprint)
            # the stored schema must carry the token's name: fingerprints are
            # name-insensitive, result fingerprints are not (schema_name)
            if value is not None and getattr(value, "name", None) == name:
                catalog.register(token, value)
                stats.store_hits += 1
                resolved.append(value)
                continue
        stats.misses += 1
        missing.append(token)
    if missing:
        return None, missing
    return (resolved[0], resolved[1], resolved[2], encoded[3]), []
