"""Result cache and singleflight behavior (repro.service.cache)."""

from __future__ import annotations

import asyncio

import pytest

from repro.service.cache import ResultCache, Singleflight


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(max_entries=4)
        hit, value = cache.get("k")
        assert not hit and value is None
        cache.put("k", {"x": 1})
        hit, value = cache.get("k")
        assert hit and value == {"x": 1}
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == (True, 1)   # refreshes a's recency
        cache.put("c", 3)                    # evicts b, not a
        assert cache.get("b") == (False, None)
        assert cache.get("a") == (True, 1)
        assert cache.get("c") == (True, 3)
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_put_overwrites(self):
        cache = ResultCache(max_entries=2)
        cache.put("k", 1)
        cache.put("k", 2)
        assert cache.get("k") == (True, 2)
        assert len(cache) == 1

    def test_invalidate_and_clear(self):
        cache = ResultCache(max_entries=4)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.invalidate("a")
        assert cache.get("a") == (False, None)
        cache.clear()
        assert len(cache) == 0

    def test_stats_payload(self):
        cache = ResultCache(max_entries=8)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        stats = cache.stats()
        assert stats["size"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["max_entries"] == 8
        assert set(stats) == {"size", "max_entries", "hits", "misses",
                              "evictions", "hit_rate"}

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)


class TestSingleflight:
    def test_leader_and_followers_share_one_result(self):
        async def scenario():
            flight = Singleflight()
            future, leader = flight.join("k")
            assert leader
            f2, l2 = flight.join("k")
            f3, l3 = flight.join("k")
            assert not l2 and not l3
            assert f2 is future and f3 is future
            flight.resolve("k", 42)
            assert await f2 == 42
            assert len(flight) == 0
            # A later identical request starts a fresh flight.
            _, leader_again = flight.join("k")
            assert leader_again
            stats = flight.stats()
            assert stats["flights"] == 2
            assert stats["coalesced"] == 2
            return True

        assert asyncio.run(scenario())

    def test_reject_propagates_to_followers(self):
        async def scenario():
            flight = Singleflight()
            future, leader = flight.join("k")
            assert leader
            follower, _ = flight.join("k")
            flight.reject("k", RuntimeError("boom"))
            with pytest.raises(RuntimeError, match="boom"):
                await follower
            future.exception()  # mark retrieved
            return True

        assert asyncio.run(scenario())

    def test_distinct_keys_fly_independently(self):
        async def scenario():
            flight = Singleflight()
            fa, la = flight.join("a")
            fb, lb = flight.join("b")
            assert la and lb and fa is not fb
            flight.resolve("a", 1)
            flight.resolve("b", 2)
            return (await fa, await fb)

        assert asyncio.run(scenario()) == (1, 2)
