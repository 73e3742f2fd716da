"""Unit tests for the cache hierarchy."""

import pytest

from repro.sim.cache import (
    Cache, CacheConfig, CacheHierarchy, LINE_WORDS,
)


class TestCacheConfig:
    def test_set_count(self):
        config = CacheConfig(size_words=1024, ways=2, hit_latency=4)
        assert config.num_sets == 1024 // (2 * LINE_WORDS)

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig(size_words=100, ways=3, hit_latency=1)


class TestCacheBehavior:
    def make(self, size=128, ways=2):
        return Cache(CacheConfig(size_words=size, ways=ways,
                                 hit_latency=1))

    def test_miss_then_hit(self):
        cache = self.make()
        assert cache.lookup(0) is False
        assert cache.lookup(0) is True
        assert cache.lookup(LINE_WORDS - 1) is True  # same line

    def test_different_lines_miss(self):
        cache = self.make()
        cache.lookup(0)
        assert cache.lookup(LINE_WORDS) is False

    def test_lru_eviction(self):
        # 128 words, 2-way: 8 sets.  Three lines mapping to set 0.
        cache = self.make()
        stride = 8 * LINE_WORDS
        cache.lookup(0)
        cache.lookup(stride)
        cache.lookup(2 * stride)     # evicts line 0
        assert cache.lookup(0) is False

    def test_lru_promotion_on_hit(self):
        cache = self.make()
        stride = 8 * LINE_WORDS
        cache.lookup(0)
        cache.lookup(stride)
        cache.lookup(0)              # promote line 0 to MRU
        cache.lookup(2 * stride)     # should evict line `stride`
        assert cache.lookup(0) is True
        assert cache.lookup(stride) is False

    def test_repeated_mru_hits_keep_the_lru_order(self):
        cache = self.make()
        stride = 8 * LINE_WORDS
        cache.lookup(0)
        cache.lookup(stride)
        assert cache.lookup(stride) is True   # already MRU
        assert cache.lookup(stride + 1) is True
        cache.lookup(2 * stride)     # evicts line 0, the LRU one
        assert cache.lookup(stride) is True
        assert cache.lookup(0) is False
        assert (cache.hits, cache.misses) == (3, 4)

    def test_stats(self):
        cache = self.make()
        cache.lookup(0)
        cache.lookup(0)
        cache.lookup(0)
        assert cache.misses == 1
        assert cache.hits == 2
        assert cache.miss_rate == pytest.approx(1 / 3)
        cache.reset_stats()
        assert cache.accesses == 0

    def test_full_capacity_no_conflicts(self):
        cache = self.make(size=128, ways=2)
        for line in range(16):       # exactly capacity
            cache.lookup(line * LINE_WORDS)
        for line in range(16):
            assert cache.lookup(line * LINE_WORDS) is True


class TestHierarchy:
    def test_latency_levels_ordered(self):
        h = CacheHierarchy()
        lat_miss, level = h.access_data(0)
        assert level == "dram"
        lat_hit, level2 = h.access_data(0)
        assert level2 == "l1"
        assert lat_hit < lat_miss

    def test_l2_hit_after_l1_eviction(self):
        h = CacheHierarchy()
        h.access_data(0)
        # Blow the L1 with conflicting lines, keep L2 resident.
        sets = h.l1d.config.num_sets
        for way in range(h.l1d.config.ways + 2):
            h.access_data((1 + way) * sets * LINE_WORDS)
        lat, level = h.access_data(0)
        assert level == "l2"

    def test_instruction_side_separate(self):
        h = CacheHierarchy()
        h.access_data(0)
        _lat, level = h.access_inst(0)
        # L1I is cold, but the L2 already holds the line.
        assert level == "l2"

    def test_dram_counter(self):
        h = CacheHierarchy()
        h.access_data(0)
        h.access_data(10_000)
        assert h.dram_accesses == 2

    def test_warm_instructions(self):
        h = CacheHierarchy()
        h.warm_instructions(100)
        lat, level = h.access_inst(0)
        assert level == "l1"
        assert h.l1i.hits == 1 and h.l1i.misses == 0
