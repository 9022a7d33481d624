"""Concurrency-safe on-disk plan cache with corruption detection.

One JSON file per content key (the runner's SHA-256 point key) in the
:mod:`repro.util.durable` store: atomic fsynced writes, CRC32-checked
reads, so a torn or bit-flipped file is *detected*, quarantined and
treated as a miss instead of silently served.

``get_or_compute`` is single-flight: when N threads miss on the same
key simultaneously, exactly one computes while the rest wait for its
result — the concurrency test hammers this with a barrier and asserts
one compute per key.  A failed compute wakes the waiters and lets one
of them take over the flight, so a crash does not strand the key.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.util.durable import CorruptEntryError, read_verified, write_verified

#: Bump when the payload schema changes; old entries then read as misses.
_PAYLOAD_VERSION = 1


class PlanCache:
    """Keyed JSON store: atomic writes, CRC32 reads, single-flight compute."""

    def __init__(self, root: str) -> None:
        self.root = root
        self._lock = threading.Lock()
        self._inflight: dict[str, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.computes = 0

    # -- plain get/put ---------------------------------------------------------

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached payload, or None on miss *or detected corruption*."""
        try:
            payload = read_verified(self.root, key, version=_PAYLOAD_VERSION)
        except CorruptEntryError:
            self.corrupt += 1
            payload = None
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Atomically (and durably) persist ``payload`` under ``key``."""
        write_verified(self.root, key, payload, version=_PAYLOAD_VERSION, fsync=True)

    # -- single-flight ---------------------------------------------------------

    def get_or_compute(
        self,
        key: str,
        compute: Callable[[], dict[str, Any]],
        *,
        wait_timeout_s: float | None = None,
    ) -> tuple[dict[str, Any], str]:
        """The payload for ``key``, computing it at most once concurrently.

        Returns ``(payload, how)`` where ``how`` is ``"hit"``,
        ``"computed"`` or ``"joined"`` (waited on another thread's
        flight).  A compute that raises releases the flight and
        propagates; waiters whose flight died retry (one of them becomes
        the new computer).  ``wait_timeout_s`` bounds each wait so a
        wedged computer cannot strand its followers past their deadline
        (raises ``TimeoutError``).
        """
        joined = False
        while True:
            cached = self.get(key)
            if cached is not None:
                return cached, "joined" if joined else "hit"
            with self._lock:
                flight = self._inflight.get(key)
                if flight is None:
                    flight = threading.Event()
                    self._inflight[key] = flight
                    mine = True
                else:
                    mine = False
            if mine:
                try:
                    # Double-check: another flight may have landed between
                    # our miss and our claim; never compute a present key.
                    cached = self.get(key)
                    if cached is not None:
                        return cached, "hit"
                    payload = compute()
                    self.computes += 1
                    self.put(key, payload)
                    return payload, "computed"
                finally:
                    with self._lock:
                        self._inflight.pop(key, None)
                    flight.set()
            else:
                joined = True
                if not flight.wait(wait_timeout_s):
                    raise TimeoutError(
                        f"timed out waiting for in-flight compute of {key}"
                    )
                # Loop: usually a hit now; if the computer crashed, the
                # next iteration claims the flight and computes.
