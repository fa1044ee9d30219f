"""Unit tests for the process-level LRU plan cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PlanCache, cached_plan, global_plan_cache, make_plan
from repro.core.plan_cache import DEFAULT_CAPACITY
from repro.errors import ParameterError
from repro.obs import global_registry

N, K = 1024, 4


class TestHitMiss:
    def test_first_call_misses_then_hits(self):
        cache = PlanCache()
        p1 = cache.get_or_make(N, K, seed=1)
        p2 = cache.get_or_make(N, K, seed=1)
        assert p1 is p2
        assert cache.stats() == {
            "hits": 1, "misses": 1, "evictions": 0, "size": 1,
            "capacity": DEFAULT_CAPACITY,
        }

    def test_counters_reach_metrics_registry(self):
        cache = PlanCache()
        cache.get_or_make(N, K, seed=1)
        cache.get_or_make(N, K, seed=1)
        cache.get_or_make(N, K, seed=2)
        reg = global_registry()
        assert reg.counter("sfft.plan_cache.miss").value == 2
        assert reg.counter("sfft.plan_cache.hit").value == 1

    def test_cached_plan_equals_make_plan(self):
        cache = PlanCache()
        got = cache.get_or_make(N, K, seed=9, loops=6)
        want = make_plan(N, K, seed=9, loops=6)
        assert got.params == want.params
        assert got.permutations == want.permutations
        np.testing.assert_array_equal(got.filt.time, want.filt.time)


class TestKeying:
    def test_distinct_seeds_do_not_collide(self):
        cache = PlanCache()
        p1 = cache.get_or_make(N, K, seed=1)
        p2 = cache.get_or_make(N, K, seed=2)
        assert p1 is not p2
        assert p1.permutations != p2.permutations
        assert cache.stats()["misses"] == 2 and len(cache) == 2

    def test_distinct_overrides_do_not_collide(self):
        cache = PlanCache()
        p1 = cache.get_or_make(N, K, seed=1, loops=5)
        p2 = cache.get_or_make(N, K, seed=1, loops=7)
        assert p1.loops == 5 and p2.loops == 7
        assert len(cache) == 2

    def test_equivalent_spellings_share_one_entry(self):
        # The key is built from the *resolved* parameter set, so an
        # explicit override equal to the derived default is the same plan.
        cache = PlanCache()
        p1 = cache.get_or_make(N, K, seed=1)
        p2 = cache.get_or_make(N, K, seed=1, loops=p1.loops)
        assert p1 is p2
        assert cache.stats()["hits"] == 1

    def test_default_backend_is_part_of_the_key(self):
        # A plan's lazily built workspace is bound to the backend in force;
        # a wisdom- or env-driven backend switch mid-process must never be
        # served a workspace planned under the previous backend.
        from repro.core.fft_backend import set_default_backend

        cache = PlanCache()
        try:
            set_default_backend("numpy")
            p1 = cache.get_or_make(N, K, seed=1)
            set_default_backend("scipy")
            p2 = cache.get_or_make(N, K, seed=1)
        finally:
            set_default_backend(None)
        assert p1 is not p2
        assert cache.stats()["misses"] == 2 and len(cache) == 2

    def test_generator_seed_bypasses_cache(self):
        cache = PlanCache()
        rng = np.random.default_rng(3)
        p1 = cache.get_or_make(N, K, seed=rng)
        p2 = cache.get_or_make(N, K, seed=rng)
        assert p1 is not p2
        assert len(cache) == 0
        assert cache.stats()["misses"] == 2
        assert global_registry().counter("sfft.plan_cache.miss").value == 2


class TestEviction:
    def test_lru_eviction_at_capacity(self):
        cache = PlanCache(capacity=2)
        cache.get_or_make(N, K, seed=1)
        cache.get_or_make(N, K, seed=2)
        cache.get_or_make(N, K, seed=1)   # refresh seed=1 -> MRU
        cache.get_or_make(N, K, seed=3)   # evicts seed=2 (LRU)
        assert len(cache) == 2
        cache.get_or_make(N, K, seed=1)   # still resident
        cache.get_or_make(N, K, seed=2)   # evicted -> rebuilt
        assert cache.stats()["hits"] == 2
        assert cache.stats()["misses"] == 4

    def test_eviction_counter_and_metric(self):
        cache = PlanCache(capacity=2)
        cache.get_or_make(N, K, seed=1)
        cache.get_or_make(N, K, seed=2)
        assert cache.stats()["evictions"] == 0
        cache.get_or_make(N, K, seed=3)   # displaces seed=1
        cache.get_or_make(N, K, seed=4)   # displaces seed=2
        assert cache.stats()["evictions"] == 2
        reg = global_registry()
        assert reg.counter("sfft.plan_cache.evictions").value == 2

    def test_hit_rate_gauge_derived_from_traffic(self):
        cache = PlanCache()
        cache.get_or_make(N, K, seed=1)
        cache.get_or_make(N, K, seed=1)
        cache.get_or_make(N, K, seed=1)
        gauge = global_registry().gauge("sfft.plan_cache.hit_rate")
        assert gauge.value == pytest.approx(2 / 3)

    def test_capacity_validated(self):
        with pytest.raises(ParameterError):
            PlanCache(capacity=0)

    def test_clear_resets_everything(self):
        cache = PlanCache()
        cache.get_or_make(N, K, seed=1)
        cache.get_or_make(N, K, seed=1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 0 and cache.stats()["misses"] == 0
        assert cache.stats()["evictions"] == 0


class TestGlobalCache:
    def test_cached_plan_uses_the_global_cache(self):
        cache = global_plan_cache()
        cache.clear()
        try:
            p1 = cached_plan(N, K, seed=4)
            p2 = cached_plan(N, K, seed=4)
            assert p1 is p2
            assert cache.stats()["hits"] == 1
        finally:
            cache.clear()

    def test_sfft_convenience_form_reuses_plans(self, signal_small):
        from repro.core import sfft

        cache = global_plan_cache()
        cache.clear()
        try:
            r1 = sfft(signal_small.time, K, seed=5)
            r2 = sfft(signal_small.time, K, seed=5)
            assert cache.stats()["misses"] == 1
            assert cache.stats()["hits"] == 1
            np.testing.assert_array_equal(r1.locations, r2.locations)
            np.testing.assert_array_equal(r1.values, r2.values)
        finally:
            cache.clear()
