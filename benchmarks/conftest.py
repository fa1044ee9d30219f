"""Shared helpers for the benchmark suite.

Each benchmark module pairs *real wall-clock measurements* (pytest-benchmark
timing our functional NumPy implementations at laptop-feasible sizes) with
the *paper-scale modeled rows* of the corresponding figure/table, printed
once per module so ``pytest benchmarks/ --benchmark-only`` regenerates every
artifact end to end.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import SfftPlan, make_plan
from repro.errors import ParameterError
from repro.experiments import run_experiment
from repro.obs import MetricsRegistry, Tracer, prune_runs
from repro.signals import SparseSignal, make_sparse_signal

#: Where run records accumulate (one JSON line per experiment printed).
#: Override with REPRO_BENCH_JSONL; set it empty to disable persistence.
BENCH_JSONL = os.environ.get("REPRO_BENCH_JSONL", "BENCH_RUNS.jsonl")

#: Opt-in post-session compaction of the append-only runs file.  Unset or
#: empty: keep everything (the default).  Any non-empty value: drop
#: verbatim-duplicate records; a positive integer additionally keeps only
#: the newest N records per run key (``scripts/bench_gate.py --prune
#: [--prune-keep N]`` is the manual equivalent).
BENCH_PRUNE = os.environ.get("REPRO_BENCH_PRUNE", "")

#: Sizes the functional (real wall-clock) benchmarks run at.
REAL_N = 1 << 18
REAL_K = 64

_PLANS: dict[tuple, SfftPlan] = {}
_SIGNALS: dict[tuple, SparseSignal] = {}


def shared_plan(n: int = REAL_N, k: int = REAL_K, **overrides) -> SfftPlan:
    """Session-cached plan (filter synthesis is the slow part).

    Defaults to the paper's evaluation profile (``fast`` filter, 6 loops)
    so the measured numbers correspond to the configuration the modeled
    rows use.
    """
    key = (n, k, tuple(sorted(overrides.items())))
    if key not in _PLANS:
        overrides.setdefault("profile", "fast")
        overrides.setdefault("loops", 6)
        _PLANS[key] = make_plan(n, k, seed=1234, **overrides)
    return _PLANS[key]


def shared_signal(n: int = REAL_N, k: int = REAL_K) -> SparseSignal:
    """Session-cached sparse test signal."""
    key = (n, k)
    if key not in _SIGNALS:
        _SIGNALS[key] = make_sparse_signal(n, k, seed=99)
    return _SIGNALS[key]


def print_experiment(experiment_id: str, **options) -> None:
    """Run a registered experiment and print its rows (the paper artifact).

    Each run is clocked by a run-scoped tracer and appended to
    ``BENCH_JSONL`` as a machine-readable run record (validated by
    ``scripts/check_bench_json.py``), alongside the printed table.
    """
    if BENCH_JSONL:
        options.setdefault("jsonl_path", BENCH_JSONL)
    result = run_experiment(experiment_id, **options)
    print()
    print(result.render())


def pytest_sessionfinish(session, exitstatus):
    """Honour REPRO_BENCH_PRUNE: compact the runs file after the session."""
    if not (BENCH_PRUNE and BENCH_JSONL and os.path.exists(BENCH_JSONL)):
        return
    keep = int(BENCH_PRUNE) if BENCH_PRUNE.isdigit() else None
    try:
        kept, dropped = prune_runs(BENCH_JSONL, keep_per_key=keep)
    except (OSError, ValueError, ParameterError) as exc:
        print(f"\n[repro] runs not pruned: {exc}")
        return
    if dropped:
        print(f"\n[repro] pruned {BENCH_JSONL}: kept {kept}, "
              f"dropped {dropped}")


@pytest.fixture
def run_obs() -> tuple[Tracer, MetricsRegistry]:
    """A fresh (tracer, registry) pair for benchmarks that instrument
    individual transforms rather than whole experiments."""
    return Tracer(), MetricsRegistry()


@pytest.fixture
def signal() -> SparseSignal:
    """The default benchmark signal."""
    return shared_signal()


@pytest.fixture
def plan() -> SfftPlan:
    """The default benchmark plan."""
    return shared_plan()
