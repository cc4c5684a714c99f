"""Keyed result cache and singleflight table for the service.

Two layers keep repeated work off the engines:

* :class:`ResultCache` — an LRU holding *finished* response payloads,
  keyed by the canonical request key
  (:meth:`repro.service.api.OptimizeRequest.key` and friends).  Hit,
  miss and eviction counters feed ``GET /metrics``.  Entries never
  expire: each is a deterministic function of its key and the server's
  session, which does not change while the server runs.
* :class:`Singleflight` — a table of *in-flight* computations.  The
  first arrival of a key becomes the leader and computes; every
  concurrent identical request awaits the leader's future, so N
  simultaneous identical requests cost exactly one engine invocation.

Both are event-loop-local (the server touches them only from its
asyncio thread), so neither needs locking; the worker pool never sees
them.
"""

from __future__ import annotations

from collections import OrderedDict


class ResultCache:
    """LRU cache of response payloads with hit/miss counters."""

    def __init__(self, max_entries=256):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = int(max_entries)
        self._entries = OrderedDict()   # key -> value
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        """``(hit, value)``; refreshes LRU order on a hit."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True, self._entries[key]
        self.misses += 1
        return False, None

    def put(self, key, value):
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self, key):
        self._entries.pop(key, None)

    def clear(self):
        self._entries.clear()

    def __len__(self):
        return len(self._entries)

    @property
    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self):
        return {
            "size": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 6),
        }


class Singleflight:
    """Coalesce concurrent identical computations onto one future.

    Usage (from the event loop)::

        future, leader = flight.join(key)
        if leader:
            try:
                value = await compute()
            except Exception as exc:
                flight.reject(key, exc)
                raise
            flight.resolve(key, value)
        result = await future

    The leader must always call :meth:`resolve` or :meth:`reject`;
    both pop the key so later requests start a fresh flight.
    """

    def __init__(self):
        self._inflight = {}
        self.coalesced = 0
        self.flights = 0

    def join(self, key, loop=None):
        """``(future, is_leader)`` for one request key."""
        future = self._inflight.get(key)
        if future is not None:
            self.coalesced += 1
            return future, False
        if loop is None:
            import asyncio
            loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._inflight[key] = future
        self.flights += 1
        return future, True

    def resolve(self, key, value):
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_result(value)

    def reject(self, key, exc):
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_exception(exc)

    def __len__(self):
        return len(self._inflight)

    def stats(self):
        return {
            "inflight": len(self._inflight),
            "flights": self.flights,
            "coalesced": self.coalesced,
        }
