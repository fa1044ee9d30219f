"""Batched execution engine vs seed-style per-call transforms.

The workload is the repo's own multi-trial experiment shape: 16 transforms
of one ``(n, k)`` configuration.  The *seed-style* leg pays plan synthesis
per call (how ``run_fig5f`` looped before the batch engine existed); the
*batched* leg builds one plan and pushes the whole stack through
``sfft_batch`` — one gather, one ``(S*L, B)`` bucket FFT, one vote pass.

``test_amortized_speedup_recorded`` times both legs directly, asserts the
batched engine is at least 2x faster per transform, and appends a
``repro.run/1`` record with the amortized wall times to
``BENCH_RUNS.jsonl``.  The wall-clock metrics
are machine-dependent, so the regression gate classes them ``wall``
(advisory), never ``modeled``/``accuracy`` (CI-gated).
"""

import time

import numpy as np
import pytest

from conftest import BENCH_JSONL
from repro.core import make_plan, sfft, sfft_batch
from repro.obs import make_run_record, write_jsonl
from repro.signals import make_sparse_signal

_N, _K, _TRIALS = 1 << 18, 64, 16
_PLAN_KW = dict(profile="fast", loops=6)


@pytest.fixture(scope="module")
def stack():
    return np.stack([
        make_sparse_signal(_N, _K, seed=400 + t).time
        for t in range(_TRIALS)
    ])


@pytest.fixture(scope="module")
def fixed_plan():
    return make_plan(_N, _K, seed=1234, **_PLAN_KW)


def _seed_style(stack):
    """One plan synthesis + one transform per trial (the pre-engine shape)."""
    return [
        sfft(stack[t],
             plan=make_plan(_N, _K, seed=4000 + t, **_PLAN_KW))
        for t in range(_TRIALS)
    ]


def test_seed_style_per_call_loop(benchmark, stack):
    """Baseline: every trial pays plan synthesis and a solo execution."""
    out = benchmark.pedantic(_seed_style, args=(stack,),
                             rounds=3, iterations=1)
    assert len(out) == _TRIALS


def test_batched_engine(benchmark, stack, fixed_plan):
    """One fixed plan, one sfft_batch call over the 16-signal stack."""
    out = benchmark.pedantic(
        lambda: sfft_batch(stack, plan=fixed_plan),
        rounds=3, iterations=1,
    )
    assert len(out) == _TRIALS


def test_batched_results_are_plausible(stack, fixed_plan):
    """Every batched transform recovers exactly k coefficients."""
    for res in sfft_batch(stack, plan=fixed_plan):
        assert res.k_found == _K


def test_amortized_speedup_recorded(stack, fixed_plan):
    """Batched amortized time must be >= 2x better; record both legs."""
    # Warm the plan workspace so the measured leg is steady-state reuse,
    # matching how the experiment loops call the engine.
    sfft_batch(stack[:1], plan=fixed_plan)

    t0 = time.perf_counter()
    _seed_style(stack)
    per_call_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    sfft_batch(stack, plan=fixed_plan)
    batched_s = time.perf_counter() - t0

    speedup = (per_call_s / _TRIALS) / (batched_s / _TRIALS)
    print(f"\nbatch engine: per-call {per_call_s / _TRIALS * 1e3:.2f} "
          f"ms/transform vs batched {batched_s / _TRIALS * 1e3:.2f} "
          f"ms/transform ({speedup:.1f}x)")

    if BENCH_JSONL:
        record = make_run_record(
            "bench-batch-engine",
            params={"n": _N, "k": _K, "trials": _TRIALS,
                    "variant": "amortized"},
            results={
                "per_call_amortized_wall_s": per_call_s / _TRIALS,
                "batched_amortized_wall_s": batched_s / _TRIALS,
                "batch_speedup_x": speedup,
            },
        )
        write_jsonl(BENCH_JSONL, record)

    assert speedup >= 2.0, (
        f"batched engine only {speedup:.2f}x faster per transform "
        f"(need >= 2x)"
    )
