"""Sharded executor worker scaling, thread vs process, head-to-head.

The workload is a 64-signal stack at the paper's evaluation size
(n = 2^18, k = 64) under one shared plan — the shape cusFFT's stream
overlap (optimization #3) targets.  ``test_worker_scaling_recorded``
drives the stack through :class:`repro.core.ShardedExecutor` at 1, 2, 4,
and 8 workers in **both execution modes** (``thread``: GIL-bound pool
with per-worker workspace clones; ``process``: forkserver warm pool over
``multiprocessing.shared_memory``), verifies every leg is *bit-identical*
to the serial fused engine, and appends one ``repro.run/1`` record per
mode — tagged ``params.mode`` — with ``wall_s_workers_<N>`` results to
``BENCH_RUNS.jsonl``.

Wall-clock scaling is hardware-dependent: the >= 1.5x assertion at 4
workers runs per mode, and only when this machine actually exposes >= 4
CPUs to the process (``os.sched_getaffinity``); on smaller machines the
walls are still recorded in ``BENCH_RUNS.jsonl``.  Thread mode
scales only through the stages that release the GIL (the bucket FFTs);
process mode also parallelizes the pure-Python recovery/estimation
stages — the head-to-head gap between the two rows is exactly what this
benchmark exists to show.
All metrics are ``wall``-class (advisory) under the regression gate —
the CI-gated classes (modeled/accuracy) are untouched by this module.
"""

import os
import time

import numpy as np
import pytest

from conftest import BENCH_JSONL, shared_plan
from repro.core import ShardedExecutor, sfft_batch
from repro.obs import make_run_record, write_jsonl
from repro.signals import make_sparse_signal

_N, _K, _S = 1 << 18, 64, 64
_WORKER_LEGS = (1, 2, 4, 8)
_MODES = ("thread", "process")


def _cpus_visible() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def stack():
    return np.stack([
        make_sparse_signal(_N, _K, seed=700 + t).time
        for t in range(_S)
    ])


@pytest.fixture(scope="module")
def fixed_plan():
    return shared_plan(_N, _K)


def _run(stack, plan, workers: int, mode: str = "thread"):
    ex = ShardedExecutor(
        workers=workers, shard_size=max(1, _S // (2 * workers)), mode=mode
    )
    return ex.run(stack, plan)


def test_executor_1_worker(benchmark, stack, fixed_plan):
    """pytest-benchmark leg: the serial-equivalent 1-worker baseline."""
    out = benchmark.pedantic(_run, args=(stack, fixed_plan, 1),
                             rounds=3, iterations=1)
    assert len(out) == _S


@pytest.mark.parametrize("mode", _MODES)
def test_executor_4_workers(benchmark, stack, fixed_plan, mode):
    """pytest-benchmark leg: 4 workers, two shards each, per mode."""
    _run(stack, fixed_plan, 4, mode)  # warm the pool (and worker leases)
    out = benchmark.pedantic(_run, args=(stack, fixed_plan, 4, mode),
                             rounds=3, iterations=1)
    assert len(out) == _S


def test_worker_scaling_recorded(stack, fixed_plan):
    """Time 1/2/4/8 workers in both modes; check identity; record both."""
    serial = sfft_batch(stack, plan=fixed_plan)  # also warms the workspace
    cpus = _cpus_visible()

    speedups: dict[str, float] = {}
    for mode in _MODES:
        walls: dict[int, float] = {}
        exact = True
        for workers in _WORKER_LEGS:
            _run(stack, fixed_plan, workers, mode)  # warm pool + caches
            t0 = time.perf_counter()
            out = _run(stack, fixed_plan, workers, mode)
            walls[workers] = time.perf_counter() - t0
            exact = exact and all(
                np.array_equal(r.locations, s.locations)
                and np.array_equal(r.values, s.values)
                and np.array_equal(r.votes, s.votes)
                for r, s in zip(out, serial)
            )

        speedups[mode] = walls[1] / walls[4]
        print(f"\nexecutor scaling (mode={mode}, S={_S}, n=2^18):")
        for workers in _WORKER_LEGS:
            print(f"  {workers} worker(s): {walls[workers] * 1e3:.1f} ms "
                  f"({walls[1] / walls[workers]:.2f}x vs 1)")

        assert exact, (
            f"{mode}-mode sharded results diverged from the serial engine"
        )

        if BENCH_JSONL:
            record = make_run_record(
                "bench-executor",
                params={"n": _N, "k": _K, "S": _S, "mode": mode,
                        "shard_size": max(1, _S // (2 * 4)),
                        "fft_backend": "numpy", "variant": "scaling"},
                results={
                    **{f"wall_s_workers_{w}": walls[w]
                       for w in _WORKER_LEGS},
                    "speedup_4v1_x": speedups[mode],
                    "exact": exact,
                },
            )
            write_jsonl(BENCH_JSONL, record)

    # No shared-memory segments may outlive the process-mode legs.
    leaked = [f for f in os.listdir("/dev/shm") if f.startswith("sfft")] \
        if os.path.isdir("/dev/shm") else []
    assert not leaked, f"shared-memory segments leaked: {leaked}"

    for mode in _MODES:
        if cpus >= 4:
            assert speedups[mode] >= 1.5, (
                f"{mode} mode: 4 workers only {speedups[mode]:.2f}x vs 1 "
                f"on a {cpus}-CPU machine (need >= 1.5x)"
            )
        else:
            print(f"  ({mode} speedup assertion skipped: "
                  f"only {cpus} CPU(s) visible)")
