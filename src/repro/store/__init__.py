"""Disk-persistent result store: the second cache tier behind the engine.

* :class:`ResultStore` — one SQLite file (WAL mode) of pickled verdicts and
  schema TBox encodings, content-addressed by the same canonical
  fingerprints as the in-memory caches, stamped with the store format and
  library versions so stale files invalidate instead of poisoning answers;
* :class:`StoreStats` — disk hit/miss/write/error accounting;
* :data:`STORE_FORMAT_VERSION` — the on-disk layout version in the stamp;
* :data:`TIERS` — the persisted tiers, ``results`` and ``schema-tboxes``.

Wired in through ``ContainmentEngine(persist=path)`` (memory → disk →
solver, write-back on miss), read-only worker warm-start in
``repro.engine.parallel``, and the ``python -m repro cache`` subcommand.
See docs/ARCHITECTURE.md, "The two-tier cache hierarchy".
"""

from .store import STORE_FORMAT_VERSION, TIERS, ResultStore, StoreStats

__all__ = ["STORE_FORMAT_VERSION", "TIERS", "ResultStore", "StoreStats"]
