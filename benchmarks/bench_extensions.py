"""Extension benchmarks: regenerate the beyond-the-paper studies and time
the genuinely-new machinery (autotuner, batch throughput, dispatcher).
"""

import numpy as np
import pytest

from conftest import print_experiment, shared_plan, shared_signal
from repro.core import sfft, sfft_batch
from repro.dispatch import recommend_transform
from repro.experiments.tuning import tune_parameters


def test_autotuner_search(benchmark):
    """One full tuning sweep (several modeled evaluations)."""
    result = benchmark(
        lambda: tune_parameters(
            1 << 24, 1000, profile="fast", select_count=1000
        )
    )
    assert result.modeled_time_s > 0


def test_dispatch_decision(benchmark):
    """Pricing all four systems for one shape."""
    d = benchmark(lambda: recommend_transform(1 << 22, 500, profile="fast"))
    assert d.gpu_winner in ("sparse", "dense")


def test_batch_throughput(benchmark):
    """Transforms/second under plan reuse (8-frame batches)."""
    n, k = 1 << 16, 16
    plan = shared_plan(n, k)
    frames = np.stack([shared_signal(n, k).time] * 8)

    def run():
        return sfft_batch(frames, plan=plan)

    outs = benchmark(run)
    assert len(outs) == 8


def test_print_ext_tuning(benchmark):
    benchmark.pedantic(
        lambda: print_experiment("ext-tuning", sizes=[1 << 22, 1 << 24, 1 << 26]),
        rounds=1, iterations=1,
    )


def test_print_ext_devices(benchmark):
    benchmark.pedantic(
        lambda: print_experiment("ext-devices"), rounds=1, iterations=1
    )


def test_print_ext_ldg(benchmark):
    benchmark.pedantic(
        lambda: print_experiment("ext-ldg"), rounds=1, iterations=1
    )


def test_print_ext_noise(benchmark):
    benchmark.pedantic(
        lambda: print_experiment("ext-noise", n=1 << 16, k=32, trials=1),
        rounds=1, iterations=1,
    )


def test_print_ext_comb(benchmark):
    benchmark.pedantic(
        lambda: print_experiment("ext-comb", n=1 << 16, ks=(8, 32)),
        rounds=1, iterations=1,
    )


def test_print_ext_offgrid(benchmark):
    benchmark.pedantic(
        lambda: print_experiment("ext-offgrid", n=1 << 14, k=8, trials=1),
        rounds=1, iterations=1,
    )


def test_exact_phase_decoder(benchmark):
    """Wall-clock of ``sfft`` on an exactly sparse input, which the
    engine locates by phase (sFFT-3.0 style) instead of voting."""
    from repro.core import make_plan
    from repro.obs import MetricsRegistry, Tracer

    sig = shared_signal(1 << 16, 32)
    plan = make_plan(1 << 16, 32, seed=5)

    res = benchmark(lambda: sfft(sig.time, plan=plan))
    assert res.k_found == 32
    registry = MetricsRegistry()
    sfft(sig.time, plan=plan, tracer=Tracer(), metrics=registry)
    assert registry.counter("sfft.location.phase").value == 1


def test_print_ext_exact(benchmark):
    benchmark.pedantic(
        lambda: print_experiment("ext-exact", sizes=[1 << 14, 1 << 16], k=50),
        rounds=1, iterations=1,
    )
