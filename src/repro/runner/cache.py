"""Plan/result caching for the sweep runner.

Two layers share one content key space (:func:`repro.runner.keys.cache_key`):

* an **in-memory LRU** holding live Python objects — including full
  :class:`~repro.core.engine.IterationResult` traces — for hits within
  one process;
* an optional **on-disk JSON store** (the :mod:`repro.util.durable`
  store, ``<disk_dir>/<key>.json``) holding the serialisable payload,
  for hits across processes and sessions.

A damaged disk entry is quarantined and counted as corrupt and a miss,
never served.  All bookkeeping is thread-safe, so one cache can back a
thread-pool sweep.
"""

from __future__ import annotations

import contextlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.util.durable import CorruptEntryError, read_verified, write_verified

#: Bump when the payload schema changes; old entries then read as misses.
CACHE_VERSION = 2

#: Layer tags reported by :meth:`ResultCache.get`; ``CORRUPT`` marks a quarantined miss.
MEMORY, DISK, CORRUPT = "memory", "disk", "corrupt"


@dataclass
class CacheStats:
    """Hit/miss counters for one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    stores: int = 0
    #: Disk entries that failed verification (also counted as misses).
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either layer (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class ResultCache:
    """Content-keyed memoization: in-memory LRU plus optional disk store."""

    maxsize: int = 4096
    disk_dir: str | os.PathLike | None = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.maxsize <= 0:
            raise ValueError("cache maxsize must be positive")
        self._lru: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._lru)

    # -- lookups ---------------------------------------------------------------

    def get(self, key: str) -> tuple[str, Any] | None:
        """Look up ``key``; returns ``(layer, value)`` or ``None`` on a miss.

        The memory layer yields the stored live object; the disk layer
        yields the JSON payload (callers decode and usually
        :meth:`promote` the result); a disk entry that this call
        quarantined yields ``(CORRUPT, None)``.
        """
        with self._lock:
            if key in self._lru:
                self._lru.move_to_end(key)
                self.stats.hits += 1
                return (MEMORY, self._lru[key])
        payload, corrupt = None, False
        if self.disk_dir is not None:
            try:
                payload = read_verified(self.disk_dir, key, version=CACHE_VERSION)
            except CorruptEntryError:
                corrupt = True
        with self._lock:
            if payload is not None:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                return (DISK, payload)
            self.stats.corrupt += corrupt
            self.stats.misses += 1
            return (CORRUPT, None) if corrupt else None

    # -- stores ----------------------------------------------------------------

    def put(self, key: str, live: Any, payload: dict[str, Any] | None = None) -> None:
        """Store a freshly computed value in both layers.

        ``payload`` is the JSON payload for the disk store; omit it to
        keep the entry memory-only.
        """
        with self._lock:
            self.promote(key, live)
            self.stats.stores += 1
        if payload is not None and self.disk_dir is not None:
            with contextlib.suppress(OSError):  # best effort: a lost write is a later miss
                write_verified(self.disk_dir, key, payload, version=CACHE_VERSION)

    def promote(self, key: str, live: Any) -> None:
        """Install a decoded disk hit into the memory layer (no disk write)."""
        with self._lock:
            self._lru[key] = live
            self._lru.move_to_end(key)
            while len(self._lru) > self.maxsize:
                self._lru.popitem(last=False)
