"""Figure 5 experiments: the paper's headline performance and accuracy plots.

* 5(a) runtime vs ``n`` (five systems, k = 1000)
* 5(b) runtime vs ``k`` (n = 2^27)
* 5(c) speedup of cusFFT over cuFFT vs ``n``
* 5(d) speedup of cusFFT over parallel FFTW vs ``n``
* 5(e) speedup of cusFFT over PsFFT vs ``n``
* 5(f) L1 error per large coefficient vs ``k``

Performance rows come from the machine models (instant at paper scale);
5(f) runs the transform *functionally* and measures real numerical error —
its ``n`` defaults to 2^20 so the sweep completes in seconds (the error is
driven by the filter tolerance, not ``n``; the note records the paper's
n = 2^27 setting).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..analysis.accuracy import score_result
from ..core.plan import make_plan
from ..core.variants import sfft_batch
from ..cpu.fftw import FftwPlan
from ..cpu.psfft import PsFFT
from ..cufft.plan import CufftPlan
from ..cusim.device import KEPLER_K20X
from ..gpu.config import BASELINE, OPTIMIZED
from ..gpu.cusfft import CusFFT
from ..signals.sparse import make_sparse_signal
from ..utils.modmath import ilog2
from ..utils.tables import format_ratio, format_seconds
from .base import PAPER_SWEEP_K, PAPER_SWEEP_N, ExperimentResult, paper_kwargs

__all__ = [
    "sweep_runtimes_vs_n",
    "run_fig5a",
    "run_fig5b",
    "run_fig5c",
    "run_fig5d",
    "run_fig5e",
    "run_fig5f",
]


_SWEEP_CACHE: dict[tuple, list[dict]] = {}


def sweep_runtimes_vs_n(
    sizes: list[int] | None = None, k: int = 1000
) -> list[dict]:
    """Modeled runtimes of all five systems across ``sizes`` (shared by
    5(a)/(c)/(d)/(e); memoized — the four figures reuse one sweep)."""
    sizes = sizes or PAPER_SWEEP_N
    key = (tuple(sizes), k)
    if key in _SWEEP_CACHE:
        return _SWEEP_CACHE[key]
    rows = []
    for n in sizes:
        kw = paper_kwargs(k)
        rows.append(
            {
                "n": n,
                "cusfft_base": CusFFT.create(n, k, config=BASELINE, **kw).estimated_time(),
                "cusfft_opt": CusFFT.create(n, k, config=OPTIMIZED, **kw).estimated_time(),
                "cusfft_opt_h2d": CusFFT.create(
                    n, k, config=OPTIMIZED, h2d="filter", **kw
                ).estimated_time(),
                "cufft": CufftPlan(n).estimated_time(KEPLER_K20X),
                "fftw": FftwPlan(n).estimated_time(),
                "psfft": PsFFT.create(n, k, **kw).estimated_time(),
            }
        )
    _SWEEP_CACHE[key] = rows
    return rows


def run_fig5a(sizes: list[int] | None = None, k: int = 1000) -> ExperimentResult:
    """Figure 5(a): execution time vs signal size, k fixed."""
    data = sweep_runtimes_vs_n(sizes, k)
    rows = tuple(
        (
            f"2^{ilog2(d['n'])}",
            format_seconds(d["cusfft_base"]),
            format_seconds(d["cusfft_opt"]),
            format_seconds(d["cufft"]),
            format_seconds(d["fftw"]),
            format_seconds(d["psfft"]),
        )
        for d in data
    )
    return ExperimentResult(
        experiment_id="fig5a",
        title=f"Run time vs signal size (k={k})",
        headers=("n", "cusFFT-base", "cusFFT-opt", "cuFFT", "FFTW", "PsFFT"),
        rows=rows,
        series=(
            [d["n"] for d in data],
            {
                "cusFFT-base": [d["cusfft_base"] for d in data],
                "cusFFT-opt": [d["cusfft_opt"] for d in data],
                "cuFFT": [d["cufft"] for d in data],
                "FFTW": [d["fftw"] for d in data],
                "PsFFT": [d["psfft"] for d in data],
            },
        ),
        notes=(
            "modeled on the simulated K20x / Sandy Bridge (see DESIGN.md); "
            "paper shape: sFFT curves sub-linear, dense curves n*log n, "
            "crossover vs cuFFT near n=2^22",
        ),
    )


def run_fig5b(
    n: int = 1 << 27, ks: list[int] | None = None
) -> ExperimentResult:
    """Figure 5(b): execution time vs sparsity, n fixed."""
    ks = ks or PAPER_SWEEP_K
    rows = []
    for k in ks:
        kw = paper_kwargs(k)
        opt = CusFFT.create(n, k, config=OPTIMIZED, **kw).estimated_time()
        base = CusFFT.create(n, k, config=BASELINE, **kw).estimated_time()
        cufft = CufftPlan(n).estimated_time(KEPLER_K20X)
        fftw = FftwPlan(n).estimated_time()
        psfft = PsFFT.create(n, k, **kw).estimated_time()
        rows.append(
            (
                k,
                format_seconds(base),
                format_seconds(opt),
                format_seconds(cufft),
                format_seconds(fftw),
                format_seconds(psfft),
            )
        )
    return ExperimentResult(
        experiment_id="fig5b",
        title=f"Run time vs sparsity (n=2^{ilog2(n)})",
        headers=("k", "cusFFT-base", "cusFFT-opt", "cuFFT", "FFTW", "PsFFT"),
        rows=tuple(rows),
        notes=(
            "paper shape: dense transforms independent of k; sFFT grows "
            "slowly with k",
        ),
    )


def _speedup_result(
    exp_id: str, title: str, numerator: str, sizes: list[int] | None, k: int,
    against_h2d: bool = False,
) -> ExperimentResult:
    data = sweep_runtimes_vs_n(sizes, k)
    denom_key = "cusfft_opt_h2d" if against_h2d else "cusfft_opt"
    rows = tuple(
        (
            f"2^{ilog2(d['n'])}",
            format_ratio(d[numerator] / d["cusfft_base"]),
            format_ratio(d[numerator] / d[denom_key]),
        )
        for d in data
    )
    return ExperimentResult(
        experiment_id=exp_id,
        title=title,
        headers=("n", "speedup (baseline)", "speedup (optimized)"),
        rows=rows,
        notes=(),
        series=(
            [d["n"] for d in data],
            {
                "baseline": [d[numerator] / d["cusfft_base"] for d in data],
                "optimized": [d[numerator] / d[denom_key] for d in data],
            },
        ),
    )


def run_fig5c(sizes: list[int] | None = None, k: int = 1000) -> ExperimentResult:
    """Figure 5(c): cusFFT speedup over cuFFT vs n."""
    res = _speedup_result(
        "fig5c", f"Speedup over cuFFT (k={k})", "cufft", sizes, k
    )
    return replace(res, notes=(
        "paper: ~9x (baseline) and ~15x (optimized) at n=2^27, growing with n",
    ))


def run_fig5d(sizes: list[int] | None = None, k: int = 1000) -> ExperimentResult:
    """Figure 5(d): cusFFT speedup over parallel FFTW vs n."""
    res = _speedup_result(
        "fig5d", f"Speedup over parallel FFTW (k={k})", "fftw", sizes, k
    )
    return replace(res, notes=(
        "paper: 0.5x at n=2^18 rising to ~29x at n=2^27",
    ))


def run_fig5e(sizes: list[int] | None = None, k: int = 1000) -> ExperimentResult:
    """Figure 5(e): cusFFT speedup over PsFFT vs n.

    This comparison charges cusFFT the per-call filter upload (``w``
    complex taps H2D — the transfer a host-managed plan pays each call),
    which grows with the filter footprint and bends the speedup back down
    at the largest sizes — the paper's "data transfer time ... offsets the
    performance gains" effect.
    """
    res = _speedup_result(
        "fig5e", f"Speedup over PsFFT (k={k})", "psfft", sizes, k,
        against_h2d=True,
    )
    return replace(res, notes=(
        "paper: peak 6.6x at n=2^24, dipping at larger n (PCIe transfer), "
        ">4x average; optimized column includes the per-call filter H2D",
    ))


def run_fig5f(
    n: int = 1 << 20,
    ks: list[int] | None = None,
    *,
    seed: int = 2016,
    trials: int = 3,
) -> ExperimentResult:
    """Figure 5(f): average L1 error per large coefficient vs ``k``.

    Functional runs with real numerics (no modeling).  The error is set by
    the filter tolerance and estimation medians, independent of ``n``; the
    default n=2^20 keeps the sweep fast where the paper used n=2^27.
    """
    ks = ks or [100, 200, 400, 600, 800, 1000]
    rows = []
    for k in ks:
        # One plan per k, shared by every trial — the trials form a fixed-
        # plan stack that runs through the batched engine in a single call.
        plan = make_plan(n, k, seed=seed + 31 + k, **paper_kwargs(k))
        sigs = [
            make_sparse_signal(n, k, seed=seed + 17 * t + k)
            for t in range(trials)
        ]
        results = sfft_batch(
            np.stack([s.time for s in sigs]), plan=plan
        )
        errs, recalls = [], []
        for sig, res in zip(sigs, results):
            report = score_result(res, sig.locations, sig.values)
            # Match the paper's normalization: error relative to unit-
            # amplitude coefficients (ours have magnitude n).
            errs.append(report.l1_error / n)
            recalls.append(report.recall)
        rows.append(
            (
                k,
                f"{np.mean(errs):.3e}",
                f"{np.max(errs):.3e}",
                f"{np.mean(recalls):.4f}",
            )
        )
    return ExperimentResult(
        experiment_id="fig5f",
        title=f"L1 error per large coefficient vs k (n=2^{ilog2(n)}, {trials} trials)",
        headers=("k", "mean L1/coeff", "max L1/coeff", "recall"),
        rows=tuple(rows),
        notes=(
            "functional runs (real numerics); paper reports 'extremely "
            "small' errors at n=2^27 — the error level is set by the "
            "1e-6 filter tolerance, not by n",
        ),
    )
