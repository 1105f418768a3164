"""Tests for the instance-result memo cache."""

from __future__ import annotations

import pytest

from repro.core.types import Resources
from repro.engine.memo import InstanceResult, MemoCache, make_key
from repro.core.task import TaskChain


def _chain(seed=0):
    return TaskChain.from_weights([1 + seed, 2], [2, 4], [True, False])


class TestMakeKey:
    def test_key_components(self):
        chain = _chain()
        key = make_key(chain, Resources(3, 5), "herad")
        assert key == (chain.fingerprint, (3, 5), "herad")

    def test_same_content_same_key(self):
        a = TaskChain.from_weights([1, 2], [2, 4], [True, False], name="a")
        b = TaskChain.from_weights([1, 2], [2, 4], [True, False], name="b")
        assert make_key(a, Resources(1, 1), "fertac") == make_key(
            b, Resources(1, 1), "fertac"
        )

    def test_resources_and_strategy_distinguish(self):
        chain = _chain()
        base = make_key(chain, Resources(1, 1), "fertac")
        assert make_key(chain, Resources(1, 2), "fertac") != base
        assert make_key(chain, Resources(1, 1), "herad") != base

    def test_type_signature_distinguishes(self):
        """A k-type budget sharing its first two counts with a two-type one
        must key differently — the platform type signature is part of the
        instance identity."""
        chain = _chain()
        two = make_key(chain, Resources(10, 10), "fertac")
        three = make_key(
            chain, Resources.from_counts((10, 10, 4)), "fertac"
        )
        padded = make_key(
            chain, Resources.from_counts((10, 10, 0)), "fertac"
        )
        assert three != two
        assert padded != two  # even a zero third class is a different platform


class TestMemoCache:
    def test_roundtrip_and_counters(self):
        cache = MemoCache(maxsize=10)
        key = make_key(_chain(), Resources(1, 1), "fertac")
        assert cache.get(key) is None
        cache.put(key, InstanceResult(2.5, 1, 0))
        assert cache.get(key) == InstanceResult(2.5, 1, 0)
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 1 and stats.size == 1
        assert stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction(self):
        cache = MemoCache(maxsize=2)
        keys = [make_key(_chain(i), Resources(1, 1), "fertac") for i in range(3)]
        cache.put(keys[0], InstanceResult(1.0, 0, 0))
        cache.put(keys[1], InstanceResult(2.0, 0, 0))
        assert cache.get(keys[0]) is not None  # refresh 0 -> 1 becomes LRU
        cache.put(keys[2], InstanceResult(3.0, 0, 0))
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[2]) is not None
        assert cache.stats.evictions == 1

    def test_clear_keeps_counters(self):
        cache = MemoCache(maxsize=4)
        key = make_key(_chain(), Resources(1, 1), "fertac")
        cache.put(key, InstanceResult(1.0, 1, 1))
        cache.get(key)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            MemoCache(maxsize=0)

    def test_get_many_equals_sequential_gets(self):
        """Bulk lookup is counter- and recency-identical to a get() loop."""
        keys = [make_key(_chain(i), Resources(1, 1), "fertac") for i in range(6)]
        bulk, solo = MemoCache(maxsize=4), MemoCache(maxsize=4)
        for cache in (bulk, solo):
            for i in (0, 1, 2, 3):
                cache.put(keys[i], InstanceResult(float(i), i, 0))
        # Mix of hits, misses, and repeats — order matters for LRU recency.
        probe = [keys[4], keys[1], keys[0], keys[5], keys[1]]
        got_bulk = bulk.get_many(probe)
        got_solo = [solo.get(key) for key in probe]
        assert got_bulk == got_solo
        assert bulk.stats == solo.stats
        assert bulk.stats.hits == 3 and bulk.stats.misses == 2
        # Same recency order afterwards: inserting one entry evicts the
        # same LRU victim from both caches.
        bulk.put(keys[4], InstanceResult(9.0, 0, 0))
        solo.put(keys[4], InstanceResult(9.0, 0, 0))
        assert [bulk.get(k) is None for k in keys] == [
            solo.get(k) is None for k in keys
        ]

    def test_put_many_equals_sequential_puts(self):
        """Bulk insert evicts the same victims and counts the same."""
        keys = [make_key(_chain(i), Resources(1, 1), "fertac") for i in range(8)]
        bulk, solo = MemoCache(maxsize=3), MemoCache(maxsize=3)
        items = [(keys[i], InstanceResult(float(i), i, 0)) for i in range(8)]
        bulk.put_many(items)
        for key, result in items:
            solo.put(key, result)
        assert bulk.stats == solo.stats
        assert bulk.stats.evictions == 5
        assert [bulk.get(k) for k in keys] == [solo.get(k) for k in keys]

    def test_put_many_refreshes_recency(self):
        keys = [make_key(_chain(i), Resources(1, 1), "fertac") for i in range(3)]
        cache = MemoCache(maxsize=2)
        cache.put_many((k, InstanceResult(1.0, 0, 0)) for k in keys[:2])
        # Re-inserting key 0 makes it MRU, so key 1 is the eviction victim.
        cache.put_many([(keys[0], InstanceResult(2.0, 0, 0))])
        cache.put(keys[2], InstanceResult(3.0, 0, 0))
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) == InstanceResult(2.0, 0, 0)
