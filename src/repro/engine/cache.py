"""Bounded LRU caches with hit/miss/eviction accounting.

The containment engine keeps several independent caches (verdicts,
completions, schema encodings).  Each is an
:class:`LRUCache` with its own :class:`CacheStats`, so benchmarks and
operators can see exactly where batch workloads hit or miss (see
docs/ARCHITECTURE.md, "The cached containment engine").  These are the
*memory* tier; engines constructed with ``persist=`` back the verdict cache
with the disk tier of :mod:`repro.store`, whose :class:`~repro.store.StoreStats`
counters are reported alongside these in ``engine.stats``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional

__all__ = ["CacheStats", "LRUCache"]


@dataclass
class CacheStats:
    """Counters of one cache: lookups that hit, missed, and entries evicted."""

    name: str
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        """An independent copy (the live object keeps counting)."""
        return CacheStats(self.name, self.hits, self.misses, self.evictions)

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for logging and benchmark reports."""
        return {
            "name": self.name,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%}), {self.evictions} evicted"
        )


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Not synchronised by itself — the engine serialises access through its own
    lock so that hit/miss counters stay exact under concurrent batches.
    """

    def __init__(self, name: str, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be at least 1")
        self.maxsize = maxsize
        self.stats = CacheStats(name)
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value (refreshing recency) or ``None`` on a miss."""
        try:
            value = self._data[key]
        except KeyError:
            self.stats.misses += 1
            return None
        self._data.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert *value*, evicting the least recently used entry on overflow."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.stats.evictions += 1

    def prune(self, predicate) -> int:
        """Drop every entry whose key satisfies *predicate*; returns the count.

        Pruned entries are deliberate invalidations, not capacity evictions,
        so they do not touch the eviction counter.
        """
        doomed = [key for key in self._data if predicate(key)]
        for key in doomed:
            del self._data[key]
        return len(doomed)

    def clear(self) -> int:
        """Drop all entries (counters are kept); returns the count."""
        count = len(self._data)
        self._data.clear()
        return count

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data
