"""Process-level LRU plan cache — FFTW-wisdom economics for `sfft(x, k)`.

Plan synthesis is the expensive half of the transform (the flat-window
filter costs an ``O(n log n)`` FFT); execution is sub-linear.  The
convenience form ``sfft(x, k)`` historically paid synthesis on *every*
call.  This cache amortizes it: plans are keyed by the **resolved**
parameter set plus the seed, so two spellings of the same configuration
(``loops=6`` vs. a ``profile`` that derives ``loops=6``) share one entry,
while distinct seeds or overrides never collide.

Cache traffic is observable through the shared metrics registry
(:func:`repro.obs.global_registry`):

* ``sfft.plan_cache.hit``       — calls served from the cache;
* ``sfft.plan_cache.miss``      — calls that paid plan synthesis;
* ``sfft.plan_cache.evictions`` — LRU entries displaced at capacity;
* ``sfft.plan_cache.hit_rate``  — derived gauge, hits / (hits + misses);
* ``sfft.plan_cache.bytes``     — resident footprint (:meth:`PlanCache.
  nbytes`: filter arrays plus each plan's built workspace);
* ``sfft.plan_cache.entries``   — resident plan count.

Keying notes:

* ``seed`` may be ``None`` or an ``int``.  ``None`` is itself a key: repeat
  anonymous ``sfft(x, k)`` calls of one shape deliberately share a plan —
  plan reuse is the point.  Callers that need per-call fresh randomness
  pass a :class:`numpy.random.Generator`, which **bypasses** the cache (a
  generator's future draws are not a stable identity) and counts as a miss.
* eviction is LRU at a fixed capacity; plans are immutable, so a cached
  plan can be handed to any number of callers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import astuple

import numpy as np

from ..errors import ParameterError
from ..utils.rng import RngLike
from .fft_backend import default_backend_name
from .parameters import SfftParameters, derive_parameters
from .plan import SfftPlan, make_plan

__all__ = ["PlanCache", "global_plan_cache", "cached_plan"]

#: Default number of distinct (shape, overrides, seed) plans kept resident.
DEFAULT_CAPACITY = 32


class PlanCache:
    """Thread-safe LRU cache of :class:`~repro.core.plan.SfftPlan` objects.

    Parameters
    ----------
    capacity:
        Maximum number of plans kept; the least recently used entry is
        evicted when a new plan would exceed it.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ParameterError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._plans: OrderedDict[tuple, SfftPlan] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def _key(
        n: int, k: int, seed: RngLike, params: SfftParameters | None,
        overrides: dict,
    ) -> tuple | None:
        """Resolved cache key, or ``None`` when the call is uncacheable.

        The key includes the *resolved* default FFT backend name: a plan's
        lazily built workspace is built under the backend in force, and a
        wisdom- or env-driven backend switch mid-process must never be
        served a workspace planned under the previous backend.
        """
        if isinstance(seed, np.random.Generator):
            return None
        if params is None:
            params = derive_parameters(n, k, **overrides)
        return (*astuple(params), seed, default_backend_name())

    def get_or_make(
        self,
        n: int,
        k: int,
        *,
        seed: RngLike = None,
        params: SfftParameters | None = None,
        **overrides,
    ) -> SfftPlan:
        """Return the cached plan for this configuration, building on miss.

        Accepts exactly the :func:`~repro.core.plan.make_plan` signature.
        Parameter resolution (cheap, closed-form) always runs so the key
        reflects *resolved* overrides; filter synthesis (the expensive
        part) runs only on a miss.
        """
        from ..obs import global_registry

        key = self._key(n, k, seed, params, overrides)
        if key is None:
            # Generator seeds are intentionally uncacheable; build fresh.
            global_registry().counter("sfft.plan_cache.miss").inc()
            self.misses += 1
            self._publish()
            return make_plan(n, k, seed=seed, params=params, **overrides)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.hits += 1
        if plan is not None:
            global_registry().counter("sfft.plan_cache.hit").inc()
            self._publish()
            return plan
        plan = make_plan(n, k, seed=seed, params=params, **overrides)
        evicted = 0
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                evicted += 1
            self.evictions += evicted
            self.misses += 1
        registry = global_registry()
        registry.counter("sfft.plan_cache.miss").inc()
        if evicted:
            registry.counter("sfft.plan_cache.evictions").inc(evicted)
        self._publish()
        return plan

    def _publish(self) -> None:
        """Refresh the derived gauges after any traffic or residency change.

        Gauges land on the global registry (like the hit/miss counters),
        outside :attr:`_lock` — counter/gauge updates fan out to registry
        subscribers (flight recorders), and those callbacks must never run
        under a cache-internal lock.
        """
        from ..obs import global_registry

        stats = self.stats()
        registry = global_registry()
        total = stats["hits"] + stats["misses"]
        if total:
            registry.gauge("sfft.plan_cache.hit_rate").set(
                stats["hits"] / total
            )
        registry.gauge("sfft.plan_cache.bytes").set(self.nbytes())
        registry.gauge("sfft.plan_cache.entries").set(stats["size"])

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._plans

    def clear(self) -> None:
        """Drop every cached plan and reset the local tallies."""
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> dict:
        """``{"hits", "misses", "evictions", "size", "capacity"}`` snapshot."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._plans),
                "capacity": self.capacity,
            }

    # -- memory accounting -------------------------------------------------

    @staticmethod
    def plan_nbytes(plan: SfftPlan) -> int:
        """Accountable bytes of one resident plan.

        Filter arrays (time + frequency taps) plus the plan's cached
        workspace when one has been built — via
        :meth:`~repro.core.workspace.PlanWorkspace.memory_breakdown`,
        which already excludes no-copy views of the filter, so nothing is
        double counted.  Permutations and parameters are a few plain ints
        each; they are deliberately left out so the sum stays exactly
        reproducible from array shapes.
        """
        total = int(plan.filt.time.nbytes) + int(plan.filt.freq.nbytes)
        ws = plan._workspace
        if ws is not None:
            total += int(ws.memory_breakdown()["total_bytes"])
        return total

    def nbytes(self) -> int:
        """Total accountable bytes across every resident plan."""
        with self._lock:
            plans = list(self._plans.values())
        return sum(self.plan_nbytes(plan) for plan in plans)

    def memory_breakdown(self) -> list[dict]:
        """Per-entry byte attribution, least recently used first.

        One dict per resident plan: shape (``n``, ``k``), the filter's
        array bytes, the built workspace's gather/tap split (zeros
        while the lazy arrays are untouched), and the entry total.
        """
        with self._lock:
            plans = list(self._plans.values())
        out: list[dict] = []
        for plan in plans:
            entry: dict = {
                "n": plan.n,
                "k": plan.k,
                "filter_bytes": int(plan.filt.time.nbytes)
                + int(plan.filt.freq.nbytes),
                "gather_bytes": 0,
                "tap_bytes": 0,
            }
            ws = plan._workspace
            if ws is not None:
                breakdown = ws.memory_breakdown()
                entry["gather_bytes"] = breakdown["gather_bytes"]
                entry["tap_bytes"] = breakdown["tap_bytes"]
            entry["total_bytes"] = (
                entry["filter_bytes"] + entry["gather_bytes"]
                + entry["tap_bytes"]
            )
            out.append(entry)
        return out


_GLOBAL_CACHE = PlanCache()


def global_plan_cache() -> PlanCache:
    """The process-wide plan cache ``sfft(x, k)`` convenience calls use."""
    return _GLOBAL_CACHE


def cached_plan(
    n: int,
    k: int,
    *,
    seed: RngLike = None,
    params: SfftParameters | None = None,
    **overrides,
) -> SfftPlan:
    """:func:`~repro.core.plan.make_plan` through the global LRU cache."""
    return _GLOBAL_CACHE.get_or_make(
        n, k, seed=seed, params=params, **overrides
    )
