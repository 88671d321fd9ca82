"""Bounded mapping primitive for the repo's hot-path memo tables.

A plain dict with a size cap, FIFO eviction of the oldest insertion, and
hit/miss counters — the idiom behind
:class:`~repro.dfg.reachability.ReachabilityIndex`'s forbidden-between memo.

Design notes:

* **FIFO, not LRU.**  Re-ordering on every hit costs a dict delete+insert on
  the hottest read path in the enumerator.  The workloads these tables serve
  are dominated by temporal locality of *insertion* (the enumerator revisits
  recently-extended subgraphs), so evicting the oldest insertion loses little
  over LRU and keeps ``get`` a single dict probe.
* **Insertion-order eviction** uses the ``pop(next(iter(...)))`` idiom relied
  on elsewhere in the tree — Python dicts preserve insertion order, so the
  first iterator element is always the oldest entry.
* This module must stay dependency-free (stdlib only): it is imported from
  ``repro.dfg``, below every other package in the import DAG.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, Optional, TypeVar

K = TypeVar("K")
V = TypeVar("V")

_MISSING = object()


class BoundedMemo(Generic[K, V]):
    """Size-capped dict with FIFO eviction and hit/miss/eviction counters.

    ``get`` / ``put`` intentionally mirror a plain dict probe plus insert;
    there is no ``__getitem__`` because every caller wants the
    counted-miss behaviour, not a ``KeyError``.
    """

    __slots__ = ("_entries", "limit", "hits", "misses", "evictions")

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError(f"BoundedMemo limit must be >= 1, got {limit}")
        self._entries: Dict[K, V] = {}
        self.limit = limit
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: K, default: Optional[V] = None) -> Optional[V]:
        """Return the cached value for *key*, counting the hit or miss."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self.hits += 1
        return value  # type: ignore[return-value]

    def put(self, key: K, value: V) -> None:
        """Insert *key* → *value*, evicting the oldest entry when full."""
        entries = self._entries
        if key not in entries and len(entries) >= self.limit:
            entries.pop(next(iter(entries)))
            self.evictions += 1
        entries[key] = value

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[K]:
        return iter(self._entries)
