"""Tests for the LRU cache backing the cross-query caching layer."""

import threading

import pytest

from repro.pipeline import CacheStats, LRUCache


class TestLRUCache:
    def test_put_get_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert "a" in cache
        assert len(cache) == 1

    def test_miss_returns_default(self):
        cache = LRUCache(4)
        assert cache.get("absent") is None
        assert cache.get("absent", 42) == 42

    def test_hit_miss_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("b")
        stats = cache.stats
        assert stats.hits == 2
        assert stats.misses == 1
        assert stats.lookups == 3
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_eviction_drops_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a: b is now the oldest
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert len(cache) == 2

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not insert: nothing evicted
        assert cache.get("a") == 10
        assert cache.get("b") == 2

    def test_clear_keeps_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_reset_stats_keeps_entries(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.reset_stats()
        assert cache.stats.hits == 0
        assert cache.get("a") == 1

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_contains_does_not_touch_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert "a" in cache
        assert "b" not in cache
        assert cache.stats.lookups == 0

    def test_concurrent_access_stays_consistent(self):
        cache = LRUCache(64)
        errors = []

        def worker(offset):
            try:
                for i in range(200):
                    key = (offset + i) % 32
                    cache.put(key, key)
                    value = cache.get(key)
                    assert value is None or value == key
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 64
        assert cache.stats.lookups == 4 * 200


class TestSync:
    def test_first_stamp_is_adopted(self):
        cache = LRUCache(4)
        assert cache.sync((3, 1)) == (3, 1)
        cache.put("a", 1)
        cache.sync((3, 1))
        assert cache.get("a") == 1

    def test_a_forward_move_clears(self):
        cache = LRUCache(4)
        cache.sync((3, 1))
        cache.put("a", 1)
        cache.sync((3, 2))
        assert len(cache) == 0

    def test_a_stale_stamp_neither_clears_nor_moves_back(self):
        cache = LRUCache(4)
        cache.sync((5, 5))
        cache.put("a", 1)
        assert cache.sync((4, 5)) == (4, 5)
        assert cache.get("a") == 1
        # Component-wise maximum: (5, 5) then (4, 6) adopts (5, 6), so a
        # later (5, 6) is no move at all.
        cache.sync((4, 6))
        cache.put("b", 2)
        cache.sync((5, 6))
        assert cache.get("b") == 2


class TestCacheStats:
    def test_since_yields_deltas(self):
        before = CacheStats(hits=5, misses=3, size=4, maxsize=8)
        after = CacheStats(hits=9, misses=4, size=6, maxsize=8)
        delta = after.since(before)
        assert delta.hits == 4
        assert delta.misses == 1
        assert delta.size == 6

    def test_hit_rate_of_unused_cache_is_zero(self):
        assert CacheStats().hit_rate == 0.0
