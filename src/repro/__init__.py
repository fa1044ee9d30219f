"""repro — a full reproduction of *cusFFT: A High-Performance Sparse Fast
Fourier Transform Algorithm on GPUs* (Wang, Chandrasekaran, Chapman;
IPDPS 2016).

The package provides:

* :mod:`repro.core` — the sparse FFT algorithm (CPU reference): plans,
  the six-step pipeline, exact sparse recovery;
* :mod:`repro.filters` — flat-window filter synthesis (Gaussian and
  Dolph-Chebyshev, built from scratch);
* :mod:`repro.cusim` — a simulated CUDA device (Kepler K20x): occupancy,
  coalescing, atomics, streams, an event-driven overlap scheduler;
* :mod:`repro.gpu` — cusFFT itself: the paper's kernels, optimizations and
  build variants running functionally in NumPy and temporally on the
  simulated device;
* :mod:`repro.cufft` / :mod:`repro.cpu` — the comparators (cuFFT, parallel
  FFTW, PsFFT) as functional + modeled systems;
* :mod:`repro.signals` / :mod:`repro.analysis` — workload generators and
  accuracy/profiling metrics;
* :mod:`repro.experiments` — one runner per paper table/figure
  (``python -m repro.experiments list``);
* :mod:`repro.obs` — unified observability: spans + metrics shared by the
  CPU and simulated-GPU pipelines, Chrome-trace / JSONL / text exporters.

Quickstart::

    from repro import make_sparse_signal, sfft
    sig = make_sparse_signal(1 << 16, 24, seed=42)
    result = sfft(sig.time, 24)
    assert set(result.locations) == set(sig.locations)
"""

from .core import (
    SfftParameters,
    SfftPlan,
    SparseFFTResult,
    derive_parameters,
    isfft,
    make_plan,
    rsfft,
    sfft,
    sfft_batch,
)
from .errors import ReproError
from .signals import SparseSignal, add_awgn, make_sparse_signal

__version__ = "1.0.0"

__all__ = [
    "SfftParameters",
    "SfftPlan",
    "SparseFFTResult",
    "derive_parameters",
    "isfft",
    "make_plan",
    "rsfft",
    "sfft",
    "sfft_batch",
    "ReproError",
    "SparseSignal",
    "add_awgn",
    "make_sparse_signal",
    "__version__",
]
