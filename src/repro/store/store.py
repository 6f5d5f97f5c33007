"""The disk-persistent result store: SQLite-backed second cache tier.

One :class:`ResultStore` is one SQLite file (WAL mode) holding pickled
:class:`~repro.containment.solver.ContainmentResult` verdicts, keyed by a
digest of the engine's results-cache key and lightened for storage exactly
like the process backend lightens them for transport (the completed TBox
travels as a :class:`~repro.engine.parallel.TBoxDigest`), so a verdict
replayed from disk fingerprints bit-identically to one replayed from memory.
Each row also names its schema (the canonical fingerprint of the schema the
verdict was decided modulo), so :meth:`ResultStore.delete_schema` reclaims a
schema's rows without knowing their keys.

Nothing else is persisted.  A result hit skips every pipeline stage; the
Horn encoding ``T̂_S``, completions (chase engines with live memos) and
compiled automata cost about as much to load from disk as to rebuild (see
docs/ARCHITECTURE.md, "The two-tier cache hierarchy").

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
* **One owner.**  Only a :class:`~repro.engine.ContainmentEngine` opens
  the store for use, read-write; its process-backend workers open none —
  the engine looks every request up before it ships a batch and writes
  back what the workers solve.  ``mode="ro"`` is for inspection only
  (``cache stats``, ``cache export``): it never creates, wipes or writes a
  file.
"""

from __future__ import annotations

import pickle
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = ["STORE_FORMAT_VERSION", "ResultStore", "StoreStats"]

#: Bump when the on-disk layout or the pickled payload shapes change; every
#: open compares it (together with the library version) against the file's
#: stamp and treats any mismatch as "this file holds nothing for me".
#: 3: earlier solvers decided at most 256 roll-up choices, so a format-2
#: "contained" row for a right query with more choices may be wrong.
STORE_FORMAT_VERSION = 3


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
    existing for read only — inspection without wiping).  A store that
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
        try:
            self._connection = self._open()
        except _NoStoreYet as reason:
            # a read-only open of a file nobody has created yet (inspecting
            # a store before its first write-back).  Disabled, but *clean*:
            # no error is counted.
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
            # sqlite level, so an inspection can never alter the store
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
                key TEXT PRIMARY KEY,
                schema TEXT NOT NULL,
                payload BLOB NOT NULL,
                created_at REAL NOT NULL
            );
            CREATE INDEX IF NOT EXISTS entries_by_schema ON entries (schema);
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
    def get(self, key: str) -> Optional[Any]:
        """The stored verdict under *key*, or ``None`` on any miss.

        Failures (corrupt rows, locked file, stale unpicklable payloads)
        count as errors *and* misses — a degraded store behaves exactly like
        a cold one.  A writable store also deletes a row that no longer
        unpickles, so the next write-back of that key rewrites it.
        """
        with self._lock:
            if self._connection is None:
                self.stats.misses += 1
                return None
            try:
                row = self._connection.execute(
                    "SELECT payload FROM entries WHERE key = ?", (key,)
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
                self._delete_locked("DELETE FROM entries WHERE key = ?", (key,))
                return None
            self.stats.hits += 1
            return value

    def put(self, schema: str, key: str, value: Any) -> bool:
        """Persist *value* under *key*, filed under *schema*'s fingerprint;
        returns ``True`` on a write.

        No-op (``False``) on read-only or disabled stores, on keys already
        on disk and on values that refuse to pickle; a locked database skips
        the write rather than blocking the solve path beyond the busy
        timeout.
        """
        return self.put_many([(schema, key, value)]) == 1

    def put_many(self, rows: List[Tuple[str, str, Any]]) -> int:
        """Persist many ``(schema, key, value)`` rows in one transaction;
        returns the number written.

        The engine's write path (a process-backend merge writes a whole
        batch of worker verdicts at once): keys already on disk — another
        engine may have written them since the lookup — are detected with
        one query and skipped without even pickling (content-addressed
        entries never need rewriting), and the rest land under a single
        commit instead of one per row.
        """
        with self._lock:
            if self._connection is None or self.mode == "ro" or not rows:
                return 0
            try:
                existing = set()
                keys = [key for _, key, _ in rows]
                for start in range(0, len(keys), 500):  # stay under the variable limit
                    chunk = keys[start : start + 500]
                    placeholders = ",".join("?" * len(chunk))
                    existing.update(
                        row[0]
                        for row in self._connection.execute(
                            f"SELECT key FROM entries WHERE key IN ({placeholders})", chunk
                        )
                    )
            except sqlite3.Error as error:
                self._disable(f"read failed: {type(error).__name__}: {error}")
                return 0
            records = []
            now = time.time()
            for schema, key, value in rows:
                if key in existing:
                    continue
                try:
                    payload = pickle.dumps(
                        _lighten_for_storage(value), protocol=pickle.HIGHEST_PROTOCOL
                    )
                except Exception:  # noqa: BLE001 - unpicklable artefacts stay memory-only
                    self.stats.errors += 1
                    continue
                records.append((key, schema, payload, now))
            if not records:
                return 0
            try:
                self._connection.executemany(
                    "INSERT OR REPLACE INTO entries (key, schema, payload, created_at) "
                    "VALUES (?, ?, ?, ?)",
                    records,
                )
                self._connection.commit()
            except sqlite3.Error:
                # a concurrent writer holding the lock past the busy timeout
                # (or a disk that filled up) loses us these write-backs,
                # nothing else; reads may still be fine, so the store stays
                # enabled
                self.stats.errors += 1
                return 0
            self.stats.writes += len(records)
            return len(records)

    # ------------------------------------------------------------------ #
    # inspection and management (the CLI `cache` subcommand's backend)
    # ------------------------------------------------------------------ #
    def count(self) -> int:
        """The number of stored verdicts (0 when disabled)."""
        with self._lock:
            if self._connection is None:
                return 0
            try:
                return self._connection.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
            except sqlite3.Error as error:
                self._disable(f"read failed: {type(error).__name__}: {error}")
                return 0

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
        """Metadata for every entry — schema, key, payload size, creation time.

        Payloads themselves are deliberately not exported: they are pickles,
        meaningful only to the exact library version that wrote them.
        """
        with self._lock:
            if self._connection is None:
                return []
            try:
                rows = self._connection.execute(
                    "SELECT schema, key, LENGTH(payload), created_at FROM entries "
                    "ORDER BY schema, key"
                ).fetchall()
            except sqlite3.Error as error:
                self._disable(f"read failed: {type(error).__name__}: {error}")
                return []
            return [
                {"schema": schema, "key": key, "payload_bytes": size, "created_at": created}
                for schema, key, size, created in rows
            ]

    def clear(self) -> int:
        """Drop every entry; returns the count."""
        return self._delete("DELETE FROM entries", ())

    def delete_schema(self, fingerprint: str) -> int:
        """Drop every row filed under the schema *fingerprint*; returns the
        number removed.

        ``ContainmentEngine.invalidate_schema`` uses this to reclaim a
        schema's rows after an edit — any engine can, since the rows name
        their schema.  Best-effort like every store write: a read-only or
        disabled store deletes nothing (returns 0).
        """
        return self._delete("DELETE FROM entries WHERE schema = ?", (fingerprint,))

    def _delete(self, statement: str, parameters: Tuple) -> int:
        with self._lock:
            return self._delete_locked(statement, parameters)

    def _delete_locked(self, statement: str, parameters: Tuple) -> int:
        """Run one ``DELETE``; the caller holds the lock.  A read-only or
        disabled store deletes nothing (returns 0)."""
        if self._connection is None or self.mode == "ro":
            return 0
        try:
            cursor = self._connection.execute(statement, parameters)
            self._connection.commit()
        except sqlite3.Error:
            self.stats.errors += 1
            return 0
        return cursor.rowcount

    def describe(self) -> Dict[str, Any]:
        """One JSON-ready block: path, mode, health, stamp, sizes, counters."""
        return {
            "path": str(self.path),
            "mode": self.mode,
            "disabled": self.disabled,
            "disabled_reason": self.disabled_reason,
            "file_bytes": self.file_size(),
            "meta": self.meta(),
            "entries": self.count(),
            "stats": self.stats.as_dict(),
        }


def _lighten_for_storage(value: Any) -> Any:
    """Shrink a verdict to its storable form (fingerprint-preserving).

    Results get the process backend's transport treatment
    (:func:`~repro.engine.parallel._lighten_containment`): the completed
    TBox becomes its :class:`~repro.engine.parallel.TBoxDigest`, so what
    comes back from disk is indistinguishable (by ``result_fingerprint``)
    from what comes back from a worker.  The TBox memoises its fingerprint,
    so a completion shared by many write-backs is canonicalised once.
    Imported lazily: ``repro.engine.parallel`` imports the engine, which
    imports this module.
    """
    from ..containment.solver import ContainmentResult
    from ..engine.parallel import _lighten_containment

    return _lighten_containment(value) if isinstance(value, ContainmentResult) else value


class _Restamp(Exception):
    """Internal: a writable open found a stale stamp and must wipe the file."""


class _NoStoreYet(Exception):
    """Internal: a read-only open found no file — a clean "nothing persisted
    yet" state, not an error (no error counter, no stats noise)."""
