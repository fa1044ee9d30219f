"""Metrics — the counts half of the observability layer.

A :class:`MetricsRegistry` holds named counters, gauges, and histograms
behind one lock, so the CPU reference, the simulated GPU, and the benchmark
harness can all report into the same namespace:

* ``sfft.*`` — algorithm-level metrics both pipelines emit
  (:func:`emit_sfft_metrics`): bucket occupancy, recovery votes/hits,
  hash collisions;
* ``cusim.*`` — device-model metrics the timeline emits
  (:meth:`~repro.cusim.timeline.TimelineReport.emit_metrics`): makespan,
  kernel time, coalescing efficiency, launch/transfer counts.

Naming scheme: dot-separated ``<subsystem>.<object>.<measure>``, lowercase,
units spelled in the trailing segment where ambiguous (``_s``, ``_bytes``).
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

import numpy as np

from ..errors import ParameterError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "emit_sfft_metrics",
    "count_locations",
]


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ParameterError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict:
        """JSON-ready state."""
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """Last-write-wins instantaneous value."""

    kind = "gauge"

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._lock = lock
        self.value: float | None = None

    def set(self, value: float) -> None:
        """Record the current value."""
        with self._lock:
            self.value = float(value)

    def snapshot(self) -> dict:
        """JSON-ready state."""
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Distribution of observed samples (all samples kept; runs are short)."""

    kind = "histogram"

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._lock = lock
        self.samples: list[float] = []

    def observe(self, value: float) -> None:
        """Record one sample."""
        with self._lock:
            self.samples.append(float(value))

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of samples."""
        vals = [float(v) for v in values]
        with self._lock:
            self.samples.extend(vals)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100, linear interpolation).

        Raises :class:`~repro.errors.ParameterError` on an empty histogram
        or a ``q`` outside [0, 100].
        """
        if not 0.0 <= q <= 100.0:
            raise ParameterError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            s = list(self.samples)
        if not s:
            raise ParameterError(
                f"histogram {self.name!r} has no samples to take a "
                f"percentile of"
            )
        return float(np.percentile(s, q))

    def snapshot(self) -> dict:
        """JSON-ready summary statistics (incl. p50/p90/p99)."""
        with self._lock:
            s = list(self.samples)
        if not s:
            return {"kind": self.kind, "count": 0}
        p50, p90, p99 = (float(v) for v in np.percentile(s, [50, 90, 99]))
        return {
            "kind": self.kind,
            "count": len(s),
            "sum": float(sum(s)),
            "min": float(min(s)),
            "max": float(max(s)),
            "mean": float(sum(s) / len(s)),
            "p50": p50,
            "p90": p90,
            "p99": p99,
        }


class MetricsRegistry:
    """Thread-safe, create-on-first-use registry of named instruments.

    Asking for an existing name with a different instrument kind raises
    :class:`~repro.errors.ParameterError` — a name means one thing.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls: type) -> Counter | Gauge | Histogram:
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = cls(name, self._lock)
                self._instruments[name] = inst
        if not isinstance(inst, cls):
            raise ParameterError(
                f"metric {name!r} is a {inst.kind}, not a {cls.kind}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        return self._get(name, Histogram)

    def names(self) -> list[str]:
        """Sorted registered metric names."""
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> dict[str, dict]:
        """JSON-ready ``{name: state}`` for every instrument."""
        with self._lock:
            items = list(self._instruments.items())
        return {name: inst.snapshot() for name, inst in items}

    def reset(self) -> None:
        """Drop every instrument (tests and fresh runs)."""
        with self._lock:
            self._instruments.clear()


_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide default registry (used when none is passed)."""
    return _GLOBAL


def count_locations(
    registry: MetricsRegistry, *, phase: int = 0, vote: int = 0
) -> None:
    """Count transformed signals by how they were located, one per signal.

    ``sfft.location.phase`` counts signals the phase-first step located
    and certified (:mod:`repro.core.phase`); ``sfft.location.vote`` counts
    those located by voting, the paper's algorithm.  Both counters are
    always published, so a fallback to voting is never silent.
    """
    registry.counter("sfft.location.phase").inc(phase)
    registry.counter("sfft.location.vote").inc(vote)


def emit_sfft_metrics(
    registry: MetricsRegistry,
    *,
    B: int,
    n: int,
    selected_sizes: list[int],
    hits: np.ndarray,
    votes: np.ndarray,
    permutations: Sequence,
) -> None:
    """Publish the shared ``sfft.*`` metrics one transform produces.

    Called by both the CPU reference driver and the simulated-GPU pipeline
    with identical semantics, so cross-backend dashboards line up:

    * ``sfft.buckets.occupancy`` — mean fraction of the ``B`` buckets that
      survived the cutoff, per voting loop;
    * ``sfft.recovery.hits`` — recovered locations (pre-trim);
    * ``sfft.recovery.votes`` — vote-count distribution over the hits;
    * ``sfft.collisions`` — hits sharing a bucket with another hit under
      some loop's permutation (the hash collisions Section IV reasons
      about).
    """
    if selected_sizes:
        occ = sum(s / B for s in selected_sizes) / len(selected_sizes)
        registry.gauge("sfft.buckets.occupancy").set(occ)
    registry.gauge("sfft.recovery.hits").set(int(hits.size))
    registry.histogram("sfft.recovery.votes").observe_many(
        np.asarray(votes, dtype=np.int64).tolist()
    )
    sigmas = np.array([p.sigma for p in permutations[: len(selected_sizes)]],
                      dtype=np.int64)
    n_div_b = n // B
    permuted = (np.asarray(hits, dtype=np.int64)[:, None] * sigmas) % n
    # One column per loop; sorted, each run of equal buckets is one
    # distinct bucket, so a loop's collisions are hits minus runs.
    buckets = np.sort(((permuted + n_div_b // 2) // n_div_b) % B, axis=0)
    collisions = int(np.count_nonzero(buckets[1:] == buckets[:-1]))
    registry.counter("sfft.collisions").inc(collisions)
