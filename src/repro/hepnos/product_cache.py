"""A client-side LRU cache over serialized product bytes.

HEPnOS products are immutable once written: events are write-once, and
analysis reads the same products over and over (the same event is often
visited by several processing stages).  That makes a client-side cache
trivially coherent -- the only invalidation is a re-store of the same
key, which drops the stale entry -- so the only policy question is
capacity.

The cache maps full product keys (container key + label + type name,
i.e. exactly the database key) to serialized value bytes, bounded both
by entry count and by total cached bytes, evicting least-recently-used
entries.  It deliberately stores *serialized* bytes, not deserialized
objects: deserialization is cheap on the compiled fast path, objects
are mutable (callers could corrupt a shared cached instance), and bytes
make the memory bound honest.

Only single-product loads and stores insert.  No batch path does:
packed loads read the cache without inserting, and columnar
loads bypass it, so a streaming pass cannot evict a hot working set.
Repeated columnar projections are served by the provider's page cache
instead (see :mod:`repro.yokan.provider`).

Metrics (when a registry is attached):

- ``hepnos.product_cache.hits`` / ``.misses`` -- lookup counters
- ``hepnos.product_cache.hit_bytes`` -- bytes served from cache
- ``hepnos.product_cache.insertions`` / ``.evictions`` -- churn
- ``hepnos.product_cache.bytes`` / ``.entries`` -- current size gauges
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional


class ProductCache:
    """Bounded LRU over ``product key -> serialized bytes``."""

    def __init__(self, max_bytes: int, max_entries: int, metrics=None):
        if max_bytes <= 0 or max_entries <= 0:
            raise ValueError("cache bounds must be positive")
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self._entries: "OrderedDict[bytes, bytes]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self._metrics = metrics
        if metrics is not None:
            self._hits = metrics.counter("hepnos.product_cache.hits")
            self._misses = metrics.counter("hepnos.product_cache.misses")
            self._hit_bytes = metrics.counter("hepnos.product_cache.hit_bytes")
            self._insertions = metrics.counter(
                "hepnos.product_cache.insertions")
            self._evictions = metrics.counter("hepnos.product_cache.evictions")
            self._bytes_gauge = metrics.gauge("hepnos.product_cache.bytes")
            self._entries_gauge = metrics.gauge("hepnos.product_cache.entries")
        else:
            self._hits = self._misses = self._hit_bytes = None
            self._insertions = self._evictions = None
            self._bytes_gauge = self._entries_gauge = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def cached_bytes(self) -> int:
        return self._bytes

    def _update_gauges_locked(self) -> None:
        if self._bytes_gauge is not None:
            self._bytes_gauge.set(self._bytes)
            self._entries_gauge.set(len(self._entries))

    def get(self, key: bytes) -> Optional[bytes]:
        """Serialized value for ``key``, or ``None``; a hit refreshes LRU."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                if self._misses is not None:
                    self._misses.inc()
                return None
            self._entries.move_to_end(key)
        if self._hits is not None:
            self._hits.inc()
            self._hit_bytes.inc(len(value))
        return value

    def put(self, key: bytes, value: bytes) -> None:
        """Insert ``key``; oversized values (alone > max_bytes) are skipped."""
        size = len(value)
        if size > self.max_bytes:
            return
        value = bytes(value)
        evicted = 0
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old)
            self._entries[key] = value
            self._bytes += size
            while (len(self._entries) > self.max_entries
                   or self._bytes > self.max_bytes):
                _, dropped = self._entries.popitem(last=False)
                self._bytes -= len(dropped)
                evicted += 1
            self._update_gauges_locked()
        if self._insertions is not None:
            self._insertions.inc()
            if evicted:
                self._evictions.inc(evicted)

    def invalidate(self, key: bytes) -> None:
        """Drop ``key``'s entry: a re-store must not leave stale bytes."""
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old)
                self._update_gauges_locked()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._update_gauges_locked()


__all__ = ["ProductCache"]
