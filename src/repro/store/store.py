"""The disk-persistent result store: SQLite-backed second cache tier.

One :class:`ResultStore` is one SQLite file (WAL mode) holding pickled,
content-addressed artefacts keyed by the same canonical fingerprints the
in-memory engine caches use.  Two tiers are persisted (:data:`TIERS`):

* ``results`` — full :class:`~repro.containment.solver.ContainmentResult`
  verdicts, lightened for storage exactly like the process backend lightens
  them for transport (the completed TBox travels as a
  :class:`~repro.engine.parallel.TBoxDigest`), so a verdict replayed from
  disk fingerprints bit-identically to one replayed from memory;
* ``schema-tboxes`` — the Horn encodings ``T̂_S`` per extended schema.

Completions (chase engines with live memos) and compiled automata are *not*
persisted: a result-tier hit skips both entirely, and an automaton's pickle
is just its ``(regex, context)`` recipe — recompiling from disk would cost
the same as recompiling from scratch (see docs/ARCHITECTURE.md, "The
two-tier cache hierarchy").

Safety over speed, always:

* **Version stamps.**  The file carries the store format version and the
  library version; a mismatch on a writable open wipes and re-initialises
  the file, and on a read-only open disables the store — stale pickles from
  an older library can never poison verdicts.
* **Graceful degradation.**  Corrupt files, locked databases, unwritable
  directories, unpicklable payloads: every failure path counts an error,
  disables the affected side (reads, writes, or both) and falls back to
  in-memory behaviour.  The store changes where answers come from, never
  what they are — and never whether they arrive.
* **Single-writer discipline.**  Parent engines open read-write; worker
  processes open ``mode="ro"`` so a pool warm-starts from disk without ever
  contending for the write lock; the parent writes the verdicts they solve.
"""

from __future__ import annotations

import dataclasses
import pickle
import sqlite3
import threading
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

__all__ = ["STORE_FORMAT_VERSION", "TIERS", "ResultStore", "StoreStats"]

#: Bump when the on-disk layout or the pickled payload shapes change; every
#: open compares it (together with the library version) against the file's
#: stamp and treats any mismatch as "this file holds nothing for me".
STORE_FORMAT_VERSION = 1

#: The tiers :meth:`ResultStore.put` accepts (anything else is a bug).
TIERS = ("results", "schema-tboxes")


def _library_version() -> str:
    from .. import __version__

    return __version__


@dataclass
class StoreStats:
    """Counters of one store: disk lookups, write-backs and swallowed errors."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    errors: int = 0

    def snapshot(self) -> "StoreStats":
        """An independent copy (the live object keeps counting)."""
        return StoreStats(self.hits, self.misses, self.writes, self.errors)

    def merge(self, other: "StoreStats") -> None:
        """Fold *other*'s counters into this one (pool-wide aggregation)."""
        self.hits += other.hits
        self.misses += other.misses
        self.writes += other.writes
        self.errors += other.errors

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for logging and benchmark reports."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "errors": self.errors,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }

    def __str__(self) -> str:
        return (
            f"store: {self.hits} hits / {self.misses} misses, "
            f"{self.writes} writes, {self.errors} errors"
        )




class ResultStore:
    """A content-addressed persistent cache in one SQLite file.

    ``mode`` is ``"rw"`` (create/open for read and write) or ``"ro"`` (open
    existing for read only — the worker warm-start mode).  A store that
    cannot be opened, or whose version stamp does not match, degrades to a
    disabled store: :meth:`get` always misses, :meth:`put` is a no-op, and
    ``disabled_reason`` says why.  All access is serialised by an internal
    lock so one store may back a threaded batch.
    """

    def __init__(self, path: Union[str, Path], *, mode: str = "rw") -> None:
        if mode not in ("rw", "ro"):
            raise ValueError(f"ResultStore mode must be 'rw' or 'ro', got {mode!r}")
        self.path = Path(path)
        self.mode = mode
        self.stats = StoreStats()
        self._lock = threading.Lock()
        self._connection: Optional[sqlite3.Connection] = None
        self.disabled_reason: Optional[str] = None
        # completed-TBox → digest, weakly keyed: the engine's completion
        # cache hands the same (large) TBox to every result of a
        # ``(schema, right)`` pair and canonicalising it costs tens of
        # milliseconds, so it must be fingerprinted once per object, not
        # once per write-back.  Weak keys make id-reuse after GC impossible.
        self._digest_memo: "weakref.WeakKeyDictionary[Any, Any]" = weakref.WeakKeyDictionary()
        try:
            self._connection = self._open()
        except _NoStoreYet as reason:
            # a read-only open of a file nobody has created yet — the normal
            # state of a worker warm-starting before the parent's first
            # write-back.  Disabled, but *clean*: no error is counted, so
            # merged pool stats stay noise-free.
            self.disabled_reason = str(reason)
        except (sqlite3.Error, OSError) as error:
            self._disable(f"{type(error).__name__}: {error}")

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _open(self) -> sqlite3.Connection:
        if self.mode == "ro":
            if not self.path.exists():
                # distinguish "nothing persisted yet" from a real open
                # failure: sqlite would report the unhelpful "unable to open
                # database file" and we would count an error for what is a
                # perfectly ordinary cold start
                raise _NoStoreYet(f"no store file yet at {self.path}")
            # URI mode=ro refuses to create a file and rejects writes at the
            # sqlite level, so a worker can never corrupt the parent's store
            uri = f"file:{self.path.as_posix()}?mode=ro"
            connection = sqlite3.connect(uri, uri=True, check_same_thread=False)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            connection = sqlite3.connect(self.path, check_same_thread=False)
        connection.execute("PRAGMA busy_timeout = 5000")
        if self.mode == "rw":
            # WAL + NORMAL: commits skip the per-write fsync but the file can
            # still never be corrupted by a crash — at worst the last few
            # write-backs are lost, which a cache re-derives by construction
            connection.execute("PRAGMA synchronous = NORMAL")
        try:
            self._validate(connection)
        except _Restamp:
            # writable open of a foreign/stale/older-format file: wipe it —
            # entries pickled by another library version must not be served
            connection.executescript(
                "DROP TABLE IF EXISTS entries; DROP TABLE IF EXISTS meta;"
            )
            self._initialise(connection)
        return connection

    def _validate(self, connection: sqlite3.Connection) -> None:
        expected = self._expected_stamp()
        tables = {
            row[0]
            for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        if "meta" not in tables or "entries" not in tables:
            if self.mode == "ro":
                raise sqlite3.DatabaseError("not a repro result store (no meta/entries tables)")
            self._initialise(connection)
            return
        stamp = dict(connection.execute("SELECT key, value FROM meta"))
        mismatched = {
            key: (stamp.get(key), value)
            for key, value in expected.items()
            if stamp.get(key) != value
        }
        if mismatched:
            if self.mode == "ro":
                raise sqlite3.DatabaseError(
                    "version stamp mismatch: "
                    + ", ".join(
                        f"{key} is {found!r}, expected {want!r}"
                        for key, (found, want) in mismatched.items()
                    )
                )
            raise _Restamp()

    def _initialise(self, connection: sqlite3.Connection) -> None:
        connection.execute("PRAGMA journal_mode = WAL")
        connection.executescript(
            """
            CREATE TABLE IF NOT EXISTS meta (
                key TEXT PRIMARY KEY,
                value TEXT NOT NULL
            );
            CREATE TABLE IF NOT EXISTS entries (
                tier TEXT NOT NULL,
                key TEXT NOT NULL,
                payload BLOB NOT NULL,
                created_at REAL NOT NULL,
                PRIMARY KEY (tier, key)
            );
            """
        )
        connection.executemany(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            list(self._expected_stamp().items()),
        )
        connection.commit()

    @staticmethod
    def _expected_stamp() -> Dict[str, str]:
        return {
            "store_format_version": str(STORE_FORMAT_VERSION),
            "library_version": _library_version(),
        }

    def _disable(self, reason: str) -> None:
        self.stats.errors += 1
        self.disabled_reason = reason
        if self._connection is not None:
            try:
                self._connection.close()
            except sqlite3.Error:  # pragma: no cover - double fault on close
                pass
            self._connection = None

    @property
    def disabled(self) -> bool:
        return self._connection is None

    def close(self) -> None:
        """Release the connection (the store stays usable as a disabled one)."""
        with self._lock:
            if self._connection is not None:
                try:
                    self._connection.close()
                except sqlite3.Error:  # pragma: no cover - close of a dead handle
                    pass
                self._connection = None
                if self.disabled_reason is None:
                    self.disabled_reason = "closed"

    # ------------------------------------------------------------------ #
    # the cache protocol
    # ------------------------------------------------------------------ #
    def get(self, tier: str, key: str) -> Optional[Any]:
        """The stored value under ``(tier, key)``, or ``None`` on any miss.

        Failures (corrupt rows, locked file, stale unpicklable payloads)
        count as errors *and* misses — a degraded store behaves exactly like
        a cold one.
        """
        with self._lock:
            if self._connection is None:
                self.stats.misses += 1
                return None
            try:
                row = self._connection.execute(
                    "SELECT payload FROM entries WHERE tier = ? AND key = ?", (tier, key)
                ).fetchone()
            except sqlite3.Error as error:
                self._disable(f"read failed: {type(error).__name__}: {error}")
                self.stats.misses += 1
                return None
            if row is None:
                self.stats.misses += 1
                return None
            try:
                value = pickle.loads(row[0])
            except Exception:  # noqa: BLE001 - any stale/corrupt payload is a miss
                self.stats.errors += 1
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            return value

    def put(self, tier: str, key: str, value: Any) -> bool:
        """Persist *value* under ``(tier, key)``; returns ``True`` on a write.

        No-op (``False``) on read-only or disabled stores and on values that
        refuse to pickle; a locked database skips the write rather than
        blocking the solve path beyond the busy timeout.
        """
        if tier not in TIERS:
            raise ValueError(f"unknown store tier {tier!r} (expected one of {TIERS})")
        with self._lock:
            if self._connection is None or self.mode == "ro":
                return False
            try:
                payload = pickle.dumps(
                    self._lighten_for_storage(tier, value), protocol=pickle.HIGHEST_PROTOCOL
                )
            except Exception:  # noqa: BLE001 - unpicklable artefacts stay memory-only
                self.stats.errors += 1
                return False
            try:
                self._connection.execute(
                    "INSERT OR REPLACE INTO entries (tier, key, payload, created_at) "
                    "VALUES (?, ?, ?, ?)",
                    (tier, key, payload, time.time()),
                )
                self._connection.commit()
            except sqlite3.Error:
                # a concurrent writer holding the lock past the busy timeout
                # (or a disk that filled up) loses us one write-back, nothing
                # else; reads may still be fine, so the store stays enabled
                self.stats.errors += 1
                return False
            self.stats.writes += 1
            return True

    def put_many(self, tier: str, items: List[tuple]) -> int:
        """Persist many ``(key, value)`` pairs in one transaction; returns the
        number written.

        The batch write-back path (a process-backend merge of hundreds of
        worker verdicts, possibly mostly replayed from this very store):
        keys already on disk are detected with one query and skipped without
        even pickling — content-addressed entries never need rewriting —
        and the rest land under a single commit instead of one per row.
        """
        if tier not in TIERS:
            raise ValueError(f"unknown store tier {tier!r} (expected one of {TIERS})")
        with self._lock:
            if self._connection is None or self.mode == "ro" or not items:
                return 0
            try:
                existing = set()
                keys = [key for key, _ in items]
                for start in range(0, len(keys), 500):  # stay under the variable limit
                    chunk = keys[start : start + 500]
                    placeholders = ",".join("?" * len(chunk))
                    existing.update(
                        row[0]
                        for row in self._connection.execute(
                            f"SELECT key FROM entries WHERE tier = ? AND key IN ({placeholders})",
                            (tier, *chunk),
                        )
                    )
            except sqlite3.Error as error:
                self._disable(f"read failed: {type(error).__name__}: {error}")
                return 0
            rows = []
            now = time.time()
            for key, value in items:
                if key in existing:
                    continue
                try:
                    payload = pickle.dumps(
                        self._lighten_for_storage(tier, value), protocol=pickle.HIGHEST_PROTOCOL
                    )
                except Exception:  # noqa: BLE001 - unpicklable artefacts stay memory-only
                    self.stats.errors += 1
                    continue
                rows.append((tier, key, payload, now))
            if not rows:
                return 0
            try:
                self._connection.executemany(
                    "INSERT OR REPLACE INTO entries (tier, key, payload, created_at) "
                    "VALUES (?, ?, ?, ?)",
                    rows,
                )
                self._connection.commit()
            except sqlite3.Error:
                self.stats.errors += 1
                return 0
            self.stats.writes += len(rows)
            return len(rows)

    def _lighten_for_storage(self, tier: str, value: Any) -> Any:
        """Shrink *value* to its storable form (fingerprint-preserving).

        Results get the process backend's transport treatment — the completed
        TBox becomes its :class:`~repro.engine.parallel.TBoxDigest` — so what
        comes back from disk is indistinguishable (by ``result_fingerprint``)
        from what comes back from a worker.  Imported lazily:
        ``repro.engine.parallel`` imports the engine, which imports this
        module.
        """
        if tier != "results":
            return value
        from ..engine.parallel import TBoxDigest

        completion = value.completion
        if completion is None or isinstance(completion.tbox, TBoxDigest):
            return value
        digest = self._digest_memo.get(completion.tbox)
        if digest is None:
            digest = TBoxDigest(completion.tbox.canonical_fingerprint(), completion.tbox.size())
            self._digest_memo[completion.tbox] = digest
        return dataclasses.replace(
            value, completion=dataclasses.replace(completion, tbox=digest)
        )

    # ------------------------------------------------------------------ #
    # inspection and management (the CLI `cache` subcommand's backend)
    # ------------------------------------------------------------------ #
    def counts(self) -> Dict[str, int]:
        """Entry counts per tier (empty when disabled)."""
        with self._lock:
            if self._connection is None:
                return {}
            try:
                rows = self._connection.execute(
                    "SELECT tier, COUNT(*) FROM entries GROUP BY tier ORDER BY tier"
                ).fetchall()
            except sqlite3.Error as error:
                self._disable(f"read failed: {type(error).__name__}: {error}")
                return {}
            return dict(rows)

    def meta(self) -> Dict[str, str]:
        """The version stamp recorded in the file (empty when disabled)."""
        with self._lock:
            if self._connection is None:
                return {}
            try:
                return dict(self._connection.execute("SELECT key, value FROM meta"))
            except sqlite3.Error as error:
                self._disable(f"read failed: {type(error).__name__}: {error}")
                return {}

    def file_size(self) -> int:
        """The store file's size in bytes (0 when it does not exist)."""
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    def entries(self) -> List[Dict[str, Any]]:
        """Metadata for every entry — tier, key, payload size, creation time.

        Payloads themselves are deliberately not exported: they are pickles,
        meaningful only to the exact library version that wrote them.
        """
        with self._lock:
            if self._connection is None:
                return []
            try:
                rows = self._connection.execute(
                    "SELECT tier, key, LENGTH(payload), created_at FROM entries "
                    "ORDER BY tier, key"
                ).fetchall()
            except sqlite3.Error as error:
                self._disable(f"read failed: {type(error).__name__}: {error}")
                return []
            return [
                {"tier": tier, "key": key, "payload_bytes": size, "created_at": created}
                for tier, key, size, created in rows
            ]

    def clear(self, tier: Optional[str] = None) -> int:
        """Drop every entry (of *tier*, when given); returns the count."""
        with self._lock:
            if self._connection is None or self.mode == "ro":
                return 0
            try:
                if tier is None:
                    cursor = self._connection.execute("DELETE FROM entries")
                else:
                    cursor = self._connection.execute(
                        "DELETE FROM entries WHERE tier = ?", (tier,)
                    )
                self._connection.commit()
            except sqlite3.Error:
                self.stats.errors += 1
                return 0
            return cursor.rowcount

    def delete(self, tier: str, keys: Iterable[str]) -> int:
        """Drop the given keys from *tier*; returns the number of rows removed.

        The schema-evolution / invalidation path uses this to reclaim rows
        superseded by a schema edit.  Best-effort like every store write: a
        read-only or disabled store deletes nothing (returns 0), and rows the
        caller does not know about simply stay — content-addressed keys mean
        leftover rows are dead weight, never stale answers.
        """
        key_list = [key for key in keys if key]
        if not key_list:
            return 0
        removed = 0
        with self._lock:
            if self._connection is None or self.mode == "ro":
                return 0
            try:
                for start in range(0, len(key_list), 500):
                    chunk = key_list[start : start + 500]
                    placeholders = ",".join("?" for _ in chunk)
                    cursor = self._connection.execute(
                        f"DELETE FROM entries WHERE tier = ? AND key IN ({placeholders})",
                        (tier, *chunk),
                    )
                    removed += cursor.rowcount
                self._connection.commit()
            except sqlite3.Error:
                self.stats.errors += 1
                return removed
            return removed

    def describe(self) -> Dict[str, Any]:
        """One JSON-ready block: path, mode, health, stamp, sizes, counters."""
        return {
            "path": str(self.path),
            "mode": self.mode,
            "disabled": self.disabled,
            "disabled_reason": self.disabled_reason,
            "file_bytes": self.file_size(),
            "meta": self.meta(),
            "tiers": self.counts(),
            "stats": self.stats.as_dict(),
        }


class _Restamp(Exception):
    """Internal: a writable open found a stale stamp and must wipe the file."""


class _NoStoreYet(Exception):
    """Internal: a read-only open found no file — a clean "nothing persisted
    yet" state, not an error (no error counter, no stats noise)."""
