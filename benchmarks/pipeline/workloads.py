"""The four workloads of the pipeline benchmark and the paths they drive.

A workload fixes a transform shape ``(n, k)``, how many signals one call
carries (``S``), how many distinct inputs the calls cycle through, and which
public entry point is under test.  Inputs come only from the run seed; the
plan always uses :data:`PLAN_SEED` and default parameters, so two runs with
one seed transform the same bits with the same plan.

Each path object exposes the same five operations, so the harness needs no
per-workload branches:

* ``setup()``  — build everything the first result needs, timed;
* ``call(i)``  — the path under test on call ``i``'s inputs;
* ``traced_call(i, tracer)`` — the same work with per-stage spans recorded
  into ``tracer`` through an existing public hook;
* ``loop_call(i)`` — the plan-reusing ``sfft(x, plan=plan)`` reference;
* ``dense_call(i)`` — the dense ``numpy.fft.fft`` reference on call
  ``i``'s stack, the way a caller holding that stack would transform it.
  It writes into one reused output array: a fresh array per call would
  time page faults on up to 256 MiB, whose cost swings from run to run.

The loop reference transforms one signal per call, cycling through every
input, so its blocks fill a round's share finely even where one call of
the path under test takes a large part of the round.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core import (
    ShardedExecutor,
    global_plan_cache,
    make_plan,
    run_stack_pipeline,
    sfft,
    sfft_batch,
)
from repro.core.batch import as_signal_stack
from repro.obs import MetricsRegistry, Tracer
from repro.signals import add_awgn, make_sparse_signal

#: Every workload's plan seed, so a run seed changes inputs, never the plan.
PLAN_SEED = 1234

#: Input seed of the accuracy probe, the same on every run whatever its
#: ``--seed``, so the probe's error changes only when the transform does.
PROBE_SEED = 977


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: shape, batching, inputs and path under test."""

    name: str
    n_log2: int
    k: int
    signals_per_call: int
    distinct_inputs: int
    path: str
    snr_db: float | None
    min_recall: float

    @property
    def n(self) -> int:
        return 1 << self.n_log2


#: Why each workload exists is recorded in BENCHMARK.json and the README.
WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload("stream-14", 14, 16, 1, 256, "stream", None, 1.0),
        Workload("batch-20", 20, 64, 16, 16, "fused", None, 1.0),
        Workload("sharded-18", 18, 64, 32, 32, "sharded", None, 1.0),
        # 256 noisy inputs: misses are rare events, so the accuracy metrics
        # need this many signals to repeat from one seed to the next.
        Workload("noisy-k256", 16, 256, 16, 256, "fused", 20.0, 0.99),
    )
}


@dataclass
class Inputs:
    """Seeded signals and their exact sparse ground truth."""

    X: np.ndarray          # (distinct_inputs, n) complex128 time samples
    locations: np.ndarray  # (distinct_inputs, k) true frequencies
    values: np.ndarray     # (distinct_inputs, k) true coefficients


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Generate ``w``'s inputs from ``seed`` (same seed, same bits)."""
    rng = np.random.default_rng(seed)
    N = w.distinct_inputs
    X = np.empty((N, w.n), dtype=np.complex128)
    locations = np.empty((N, w.k), dtype=np.int64)
    values = np.empty((N, w.k), dtype=np.complex128)
    for i in range(N):
        sig = make_sparse_signal(w.n, w.k, seed=rng)
        x = sig.time
        if w.snr_db is not None:
            x, _ = add_awgn(x, w.snr_db, seed=rng)
        X[i] = x
        locations[i] = sig.locations
        values[i] = sig.values
    return Inputs(X, locations, values)


def make_path(w: Workload, inputs: Inputs):
    """The path object for ``w``'s entry point."""
    return {"stream": StreamPath, "fused": FusedPath,
            "sharded": ShardedPath}[w.path](w, inputs.X)


def _force_workspace(plan) -> float:
    """Seconds to build ``plan``'s workspace, lazy gather and taps included."""
    t0 = perf_counter()
    ws = plan.workspace()
    _ = ws.gather, ws.taps_flat
    return perf_counter() - t0


class FusedPath:
    """``sfft_batch(X, plan=plan)``: one fused pass per ``(S, n)`` stack."""

    def __init__(self, w: Workload, X: np.ndarray):
        self.w = w
        self.X = X
        self.S = w.signals_per_call
        self.calls = X.shape[0] // self.S
        self.plan = None
        self.dense_out = np.empty((self.S, w.n), dtype=np.complex128)
        self.dense_out.fill(0)  # resident before the memory baseline

    def input_ids(self, i: int) -> range:
        lo = (i % self.calls) * self.S
        return range(lo, lo + self.S)

    def stack(self, i: int) -> np.ndarray:
        lo = (i % self.calls) * self.S
        return self.X[lo:lo + self.S]

    def setup(self) -> dict[str, float]:
        """Plan, workspace and first call from nothing; returns seconds."""
        self._drop_plan()
        t0 = perf_counter()
        self.plan = make_plan(self.w.n, self.w.k, seed=PLAN_SEED)
        plan_s = perf_counter() - t0
        workspace_s = _force_workspace(self.plan)
        self._warm()
        self.call(0)
        return {"setup_s": perf_counter() - t0, "plan_s": plan_s,
                "workspace_s": workspace_s}

    def _drop_plan(self) -> None:
        """Free the previous set-up's plan before the next one is timed.

        A plan and its workspace refer to each other, so only the cycle
        collector frees them; left to it, every repeated set-up grew the
        heap into fresh pages by the size of a plan (~38 MiB on batch-20).
        """
        self.plan = None
        gc.collect()

    def _warm(self) -> None:
        pass

    def call(self, i: int) -> list:
        return sfft_batch(self.stack(i), plan=self.plan)

    def traced_call(self, i: int, tracer: Tracer) -> list:
        def stage(name, **attrs):
            return tracer.span(name, category="stage", **attrs)

        return run_stack_pipeline(
            as_signal_stack(self.stack(i), self.plan), self.plan, stage=stage
        )

    def loop_call(self, i: int) -> list:
        return [sfft(self.X[i % len(self.X)], plan=self.plan)]

    def dense_call(self, i: int) -> np.ndarray:
        return np.fft.fft(self.stack(i), axis=1, out=self.dense_out)


class ShardedPath(FusedPath):
    """``sfft_batch(X, plan=plan, executor=ShardedExecutor(workers=2))``."""

    def _warm(self) -> None:
        self.executor = ShardedExecutor(workers=2, mode="thread")
        self.metrics = MetricsRegistry()

    def call(self, i: int) -> list:
        return sfft_batch(self.stack(i), plan=self.plan,
                          executor=self.executor)

    def traced_call(self, i: int, tracer: Tracer) -> list:
        return self.executor.run(self.stack(i), self.plan, tracer=tracer,
                                 metrics=self.metrics)


class StreamPath(FusedPath):
    """Plan-less ``sfft(x, k)``, one signal per call, through the plan cache."""

    def input_ids(self, i: int) -> range:
        return range(i % self.calls, i % self.calls + 1)

    def setup(self) -> dict[str, float]:
        # The user-visible set-up of the convenience API is its first call
        # on a cold plan cache: resolution, plan build, workspace, result.
        global_plan_cache().clear()
        self._drop_plan()
        t0 = perf_counter()
        self.call(0)
        setup_s = perf_counter() - t0
        # The loop reference reuses an explicit plan; building it times the
        # plan and workspace layers on their own.
        t1 = perf_counter()
        self.plan = make_plan(self.w.n, self.w.k, seed=PLAN_SEED)
        plan_s = perf_counter() - t1
        self.metrics = MetricsRegistry()
        return {"setup_s": setup_s, "plan_s": plan_s,
                "workspace_s": _force_workspace(self.plan)}

    def call(self, i: int) -> list:
        return [sfft(self.X[i % self.calls], self.w.k, seed=PLAN_SEED)]

    def traced_call(self, i: int, tracer: Tracer) -> list:
        return [sfft(self.X[i % self.calls], self.w.k, seed=PLAN_SEED,
                     tracer=tracer, metrics=self.metrics)]
