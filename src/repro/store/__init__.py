"""Disk-persistent result store: the second cache tier behind the engine.

* :class:`ResultStore` — one SQLite file (WAL mode) of pickled verdicts,
  content-addressed by the same canonical fingerprints as the in-memory
  result cache, each row filed under its schema's fingerprint so a schema
  can name (and delete) its rows, and stamped with the store format and
  library versions so stale files invalidate instead of poisoning answers;
* :class:`StoreStats` — disk hit/miss/write/error accounting;
* :data:`STORE_FORMAT_VERSION` — the on-disk layout version in the stamp.

Wired in through ``ContainmentEngine(persist=path)`` (memory → disk →
solver or worker pool, write-back on miss; the engine is the store's only
user) and the ``python -m repro cache`` subcommand.
See docs/ARCHITECTURE.md, "The two-tier cache hierarchy".
"""

from .store import STORE_FORMAT_VERSION, ResultStore, StoreStats

__all__ = ["STORE_FORMAT_VERSION", "ResultStore", "StoreStats"]
