"""Bounded LRU result cache for the front-door scan service.

A scan's answer is fully determined by *(query fingerprint, database
fingerprint, absolute threshold)*, since every scan runs the one batch
datapath.  The checkpoint manifests of :mod:`repro.host.checkpoint` rely
on the same determinism, and it lets the service replay a previous answer
byte-for-byte whenever the tuple recurs.  Fingerprints are SHA-256 over the exact bytes that decide the
result: the encoded query's instruction words, and the packed database's
names, lengths and 2-bit buffer.  Swapping the database (even to one with
identical names) changes the fingerprint and silently invalidates every
cached entry — there is no TTL to tune and no stale-read window.

The cache is a plain ``OrderedDict`` LRU under a lock: bounded entries,
move-to-end on hit, popitem(last=False) on overflow.  Cached values are
the scan's ``List[AlignmentResult]`` — immutable tuples of hits — shared
by reference, never copied.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.core.aligner import AlignmentResult
from repro.core.encoding import EncodedQuery
from repro.host.scan import PackedDatabase

__all__ = [
    "CacheKey",
    "ResultCache",
    "database_fingerprint",
    "query_fingerprint",
]

#: (query fingerprint, database fingerprint, absolute threshold).
CacheKey = Tuple[str, str, int]


def query_fingerprint(query: EncodedQuery) -> str:
    """SHA-256 over the encoded query's instruction stream."""
    digest = hashlib.sha256()
    digest.update(query.as_array().tobytes())
    return digest.hexdigest()


def database_fingerprint(database: PackedDatabase) -> str:
    """SHA-256 over the packed database: names, lengths, 2-bit buffer."""
    digest = hashlib.sha256()
    for name in database.names:
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
    digest.update(database.lengths.tobytes())
    digest.update(database.buffer.tobytes())
    return digest.hexdigest()


class ResultCache:
    """Thread-safe bounded LRU from :data:`CacheKey` to scan results."""

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        self._max_entries = max_entries
        self._entries: "OrderedDict[CacheKey, List[AlignmentResult]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def max_entries(self) -> int:
        return self._max_entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: CacheKey) -> Optional[List[AlignmentResult]]:
        """The cached results for ``key``, refreshing its recency; or None."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: CacheKey, results: List[AlignmentResult]) -> None:
        """Insert (or refresh) ``key``; evict least-recently-used overflow."""
        if self._max_entries == 0:
            return
        with self._lock:
            self._entries[key] = results
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, float]:
        """Hit/miss/eviction counters plus the derived hit ratio."""
        with self._lock:
            hits, misses = self._hits, self._misses
            return {
                "entries": len(self._entries),
                "max_entries": self._max_entries,
                "hits": hits,
                "misses": misses,
                "evictions": self._evictions,
                "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            }
