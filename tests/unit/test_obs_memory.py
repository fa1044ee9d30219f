"""Unit tests for memory accounting: plan-cache bytes and their gauges."""

from repro.core import PlanCache, sfft
from repro.obs import global_registry
from repro.signals import make_sparse_signal

N, K = 1024, 4


class TestPlanCacheBytes:
    def test_gauge_matches_hand_computed_nbytes(self):
        # Acceptance criterion: sfft.plan_cache.bytes equals the sum of the
        # resident plans' array nbytes, computed by hand from the plans: the
        # filter arrays plus the workspace a miss builds (its gather matrix;
        # the padded taps are a view of the filter here).
        cache = PlanCache()
        p1 = cache.get_or_make(N, K, seed=1)
        p2 = cache.get_or_make(2 * N, K, seed=2)
        expected = sum(
            int(p.filt.time.nbytes) + int(p.filt.freq.nbytes)
            + int(p.workspace().gather.nbytes)
            for p in (p1, p2)
        )
        assert cache.nbytes() == expected
        assert global_registry().gauge(
            "sfft.plan_cache.bytes"
        ).value == expected

    def test_built_workspace_is_attributed(self):
        # A miss builds the plan's workspace before it publishes, so the
        # gauge is right from the first call, and running the plan adds
        # nothing.
        cache = PlanCache()
        plan = cache.get_or_make(N, K, seed=1)
        ws_bytes = plan._workspace.memory_breakdown()["total_bytes"]
        assert ws_bytes > 0
        filter_bytes = int(plan.filt.time.nbytes) + int(plan.filt.freq.nbytes)
        assert cache.nbytes() == filter_bytes + ws_bytes
        gauge = global_registry().gauge("sfft.plan_cache.bytes")
        assert gauge.value == cache.nbytes()
        sig = make_sparse_signal(N, K, seed=3)
        sfft(sig.time, plan=plan)
        assert cache.nbytes() == gauge.value == filter_bytes + ws_bytes

    def test_gauge_right_after_first_planless_call_and_eviction(self):
        # The gauge used to lag a miss until the next hit: a plan-less
        # sfft at n=2^14, k=16 read 466,944 B against 1,286,144 resident.
        from repro.core import global_plan_cache

        cache = global_plan_cache()
        cache.clear()
        gauge = global_registry().gauge("sfft.plan_cache.bytes")
        try:
            sfft(make_sparse_signal(1 << 14, 16, seed=4).time, 16, seed=5)
            assert gauge.value == cache.nbytes() > 0
            # Evict down to one plan: the gauge follows every miss.
            capacity = cache.capacity
            cache.capacity = 1
            try:
                sfft(make_sparse_signal(N, K, seed=6).time, K, seed=7)
            finally:
                cache.capacity = capacity
            assert cache.stats()["evictions"] == 1 and len(cache) == 1
            assert gauge.value == cache.nbytes() > 0
        finally:
            cache.clear()

    def test_breakdown_rows_sum_to_total(self):
        cache = PlanCache()
        plan = cache.get_or_make(N, K, seed=1)
        sig = make_sparse_signal(N, K, seed=3)
        sfft(sig.time, plan=plan)
        rows = cache.memory_breakdown()
        assert len(rows) == 1
        row = rows[0]
        assert (row["n"], row["k"]) == (N, K)
        assert row["total_bytes"] == cache.nbytes()

    def test_eviction_shrinks_the_gauge(self):
        cache = PlanCache(capacity=1)
        cache.get_or_make(N, K, seed=1)
        cache.get_or_make(2 * N, K, seed=2)  # evicts the seed=1 plan
        assert global_registry().gauge(
            "sfft.plan_cache.bytes"
        ).value == cache.nbytes()
        assert global_registry().gauge("sfft.plan_cache.entries").value == 1
