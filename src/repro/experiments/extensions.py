"""Extension experiments beyond the paper's evaluation.

The paper's conclusion promises to "continue to explore the performance of
the algorithm on other emerging parallel architectures, such as DSPs and
Intel Xeon Phi"; these experiments follow through on the reproduction:

* ``ext-devices`` — cusFFT across simulated GPU generations plus PsFFT on
  the Xeon Phi model (the named future-work target);
* ``ext-tuning``  — model-driven parameter autotuning vs the paper's fixed
  formula (the per-size ``Bcst`` tuning the authors did by hand);
* ``ext-noise``   — functional recovery robustness vs SNR (extends the
  noiseless Fig 5(f));
* ``ext-comb``    — the sFFT-2.0 Comb pre-filter: screening quality and the
  voting-work reduction it buys;
* ``ext-ldg``     — routing the signal gathers through Kepler's read-only
  data cache (described in the paper's Section II-A but unused by cusFFT);
* ``ext-offgrid`` — leakage stress with non-integer tone frequencies, the
  known boundary of the exactly-sparse model.
"""

from __future__ import annotations

import numpy as np

from ..analysis.accuracy import score_result
from ..core.comb import comb_approved_residues
from ..core.dense import dense_fft
from ..core.plan import make_plan
from ..core.sfft import sfft
from ..core.variants import sfft_batch
from ..cpu.cpuspec import CPU_DEVICES
from ..cpu.psfft import PsFFT
from ..cusim.device import GPU_DEVICES
from ..gpu.config import OPTIMIZED
from ..gpu.cusfft import CusFFT
from ..signals.noise import add_awgn
from ..signals.sparse import make_sparse_signal
from ..utils.modmath import ilog2
from ..utils.tables import format_ratio, format_seconds
from .base import ExperimentResult, paper_kwargs
from .tuning import tune_parameters

__all__ = [
    "run_ext_devices",
    "run_ext_tuning",
    "run_ext_noise",
    "run_ext_comb",
    "run_ext_ldg",
    "run_ext_offgrid",
    "run_ext_exact",
]


def run_ext_devices(
    sizes: list[int] | None = None, k: int = 1000
) -> ExperimentResult:
    """Modeled cusFFT/PsFFT across architectures (the paper's future work)."""
    sizes = sizes or [1 << 22, 1 << 24, 1 << 27]
    rows = []
    for n in sizes:
        kw = paper_kwargs(k)
        cells = [f"2^{ilog2(n)}"]
        for dev in GPU_DEVICES:
            t = CusFFT.create(n, k, config=OPTIMIZED, device=dev, **kw)
            cells.append(format_seconds(t.estimated_time()))
        for cpu in CPU_DEVICES:
            cells.append(
                format_seconds(PsFFT.create(n, k, threads=cpu.cores, cpu=cpu, **kw).estimated_time())
            )
        rows.append(tuple(cells))
    headers = (
        "n",
        *(f"cusFFT {d.name}" for d in GPU_DEVICES),
        *(f"PsFFT {c.name}" for c in CPU_DEVICES),
    )
    return ExperimentResult(
        experiment_id="ext-devices",
        title=f"cusFFT/PsFFT across simulated architectures (k={k})",
        headers=headers,
        rows=tuple(rows),
        notes=(
            "extension: K40 wins on bandwidth; Maxwell's 1/32-rate double "
            "precision makes the FFT/estimation stages compute-bound and "
            "costs it the lead despite faster atomics — double-precision "
            "sFFT ports to Maxwell but does not speed up; Xeon Phi's 60-way "
            "MLP accelerates the gathers well past the Sandy Bridge box",
        ),
    )


def run_ext_tuning(
    sizes: list[int] | None = None, k: int = 1000
) -> ExperimentResult:
    """Model-driven autotuning vs the fixed-formula parameters."""
    sizes = sizes or [1 << p for p in range(20, 28)]
    rows = []
    for n in sizes:
        kw = paper_kwargs(k)
        formula = CusFFT.create(n, k, config=OPTIMIZED, **kw).estimated_time()
        tuned = tune_parameters(n, k, executor="gpu", config=OPTIMIZED, **kw)
        rows.append(
            (
                f"2^{ilog2(n)}",
                format_seconds(formula),
                format_seconds(tuned.modeled_time_s),
                tuned.params.B,
                format_ratio(formula / tuned.modeled_time_s),
            )
        )
    return ExperimentResult(
        experiment_id="ext-tuning",
        title=f"Autotuned vs formula-derived parameters (k={k})",
        headers=("n", "formula", "tuned", "tuned B", "gain"),
        rows=tuple(rows),
        notes=(
            "extension: the tuner reproduces the authors' hand-tuned "
            "per-size Bcst — it smooths the power-of-two rounding sawtooth "
            "in B = sqrt(n*k/log n)",
        ),
    )


def run_ext_noise(
    n: int = 1 << 18,
    k: int = 50,
    snrs: tuple[float, ...] = (40.0, 30.0, 20.0, 10.0, 5.0, 0.0),
    *,
    trials: int = 3,
    seed: int = 7,
) -> ExperimentResult:
    """Functional recovery robustness vs SNR."""
    rows = []
    plan = make_plan(n, k, seed=seed, **paper_kwargs(k))
    for snr in snrs:
        # All trials share the hoisted plan: one batched call per SNR.
        sigs = [make_sparse_signal(n, k, seed=seed + 13 * t)
                for t in range(trials)]
        noisy = np.stack([
            add_awgn(sig.time, snr, seed=seed + 31 * t)[0]
            for t, sig in enumerate(sigs)
        ])
        recalls, errs = [], []
        for sig, res in zip(sigs, sfft_batch(noisy, plan=plan)):
            rep = score_result(res, sig.locations, sig.values)
            recalls.append(rep.recall)
            errs.append(rep.l1_error / n)
        rows.append(
            (
                f"{snr:.0f} dB",
                f"{np.mean(recalls):.4f}",
                f"{np.mean(errs):.3e}",
            )
        )
    return ExperimentResult(
        experiment_id="ext-noise",
        title=f"Recovery vs SNR (n=2^{ilog2(n)}, k={k}, {trials} trials)",
        headers=("SNR", "recall", "mean L1/coeff"),
        rows=tuple(rows),
        notes=(
            "extension: the paper evaluates noiseless inputs; voting keeps "
            "recall high well below 20 dB while value error scales with the "
            "noise floor",
        ),
    )


def run_ext_comb(
    n: int = 1 << 18,
    ks: tuple[int, ...] = (10, 50, 200),
    *,
    seed: int = 11,
) -> ExperimentResult:
    """sFFT-2.0 Comb pre-filter: screening quality and vote reduction."""
    rows = []
    W = max(256, n >> 6)
    for k in ks:
        sig = make_sparse_signal(n, k, seed=seed + k)
        mask = comb_approved_residues(sig.time, W, k, seed=seed)
        true_kept = bool(mask[sig.locations % W].all())
        plan = make_plan(n, k, seed=seed + 1, **paper_kwargs(k))
        res = sfft(sig.time, plan=plan, comb_width=W, seed=seed)
        exact = set(res.locations.tolist()) == set(sig.locations.tolist())
        rows.append(
            (
                k,
                W,
                f"{mask.mean():.3f}",
                "yes" if true_kept else "NO",
                "yes" if exact else "NO",
            )
        )
    return ExperimentResult(
        experiment_id="ext-comb",
        title=f"Comb pre-filter screening (n=2^{ilog2(n)})",
        headers=("k", "W", "approved fraction", "support kept", "exact recovery"),
        rows=tuple(rows),
        notes=(
            "extension: the approved fraction bounds the voting work kept — "
            "location recovery with the comb screen touches only that "
            "fraction of candidates (sFFT 2.0's heuristic)",
        ),
    )


def run_ext_ldg(
    sizes: list[int] | None = None, k: int = 1000
) -> ExperimentResult:
    """Read-only-cache gathers (``__ldg``): a beyond-the-paper optimization.

    The paper's Section II-A describes Kepler's 48 KB read-only data cache
    but cusFFT never exploits it.  Routing the (read-only!) signal gathers
    through that path shrinks each scattered load from a 128-byte L1
    transaction to a 32-byte texture-path transaction — a 4x wire-traffic
    cut on the transform's dominant access stream.
    """
    sizes = sizes or [1 << 22, 1 << 24, 1 << 26, 1 << 27]
    rows = []
    for n in sizes:
        kw = paper_kwargs(k)
        off = CusFFT.create(n, k, config=OPTIMIZED, **kw).estimated_time()
        on = CusFFT.create(
            n, k, config=OPTIMIZED.with_(use_ldg=True), **kw
        ).estimated_time()
        rows.append(
            (
                f"2^{ilog2(n)}",
                format_seconds(off),
                format_seconds(on),
                format_ratio(off / on),
            )
        )
    return ExperimentResult(
        experiment_id="ext-ldg",
        title=f"Read-only-cache (__ldg) signal gathers (k={k})",
        headers=("n", "without __ldg", "with __ldg", "speedup"),
        rows=tuple(rows),
        notes=(
            "extension: projected gain from the Kepler read-only path the "
            "paper describes but does not use; grows with n as the gather "
            "stream's share of total traffic grows",
        ),
    )


def run_ext_offgrid(
    n: int = 1 << 16,
    k: int = 16,
    offsets: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
    *,
    trials: int = 3,
    seed: int = 19,
) -> ExperimentResult:
    """Off-grid leakage stress: tones displaced off the DFT grid.

    The exactly-sparse model (the paper's evaluation regime) assumes
    integer frequencies; a displacement of ``delta`` bins smears each tone
    into a Dirichlet tail.  This sweep measures how gracefully recovery
    degrades: nearest-bin recall and the fraction of tone energy captured
    by the recovered coefficients.
    """
    from ..signals.workloads import make_offgrid_tones

    rows = []
    plan = make_plan(n, k, seed=seed, **paper_kwargs(k))
    for delta in offsets:
        # One batched call per offset: the trials share the hoisted plan.
        tones = [make_offgrid_tones(n, k, delta, seed=seed + 7 * t)
                 for t in range(trials)]
        batch = sfft_batch(
            np.stack([x for x, _ in tones]), plan=plan, trim_to_k=True
        )
        recalls, captured = [], []
        for (x, freqs), res in zip(tones, batch):
            found = res.locations.astype(np.float64)
            hit = sum(
                1 for f in freqs if np.min(np.abs(found - round(f))) <= 1
            )
            recalls.append(hit / k)
            spec_energy = np.abs(dense_fft(x)) ** 2
            captured.append(
                float(
                    np.abs(res.values).__pow__(2).sum() / spec_energy.sum()
                )
            )
        rows.append(
            (
                f"{delta:.1f}",
                f"{np.mean(recalls):.3f}",
                f"{np.mean(captured):.3f}",
            )
        )
    return ExperimentResult(
        experiment_id="ext-offgrid",
        title=f"Off-grid tone recovery (n=2^{ilog2(n)}, k={k}, {trials} trials)",
        headers=("grid offset (bins)", "nearest-bin recall", "energy captured"),
        rows=tuple(rows),
        notes=(
            "extension: leakage stress outside the paper's exactly-sparse "
            "evaluation — recall of the nearest bin stays high, but the "
            "energy captured by k on-grid coefficients drops toward the "
            "half-bin worst case (the known limitation of on-grid sparse "
            "recovery; off-grid variants are future work)",
        ),
    )


def run_ext_exact(
    sizes: list[int] | None = None,
    k: int = 100,
    *,
    seed: int = 23,
) -> ExperimentResult:
    """Phase-first location vs voting, through ``sfft``.

    The engine locates an exactly sparse spectrum by phase decoding on a
    one-sample-shifted fold (the paper's reference [3]) on the plan's
    phase plan, and votes on the plan itself only when a signal is not
    exactly sparse.  Each size transforms one exactly sparse signal (phase
    route) and the same signal with 1e-4 relative noise added (voting
    route) under one default plan: loops and samples read, wall-clock,
    and whether each recovers the planted support.
    """
    import time as _time

    from ..obs import Tracer

    sizes = sizes or [1 << 14, 1 << 16, 1 << 18]
    rows = []
    for n in sizes:
        sig = make_sparse_signal(n, k, seed=seed + n % 97)
        rng = np.random.default_rng(seed + 2)
        noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        noisy = sig.time + noise * (
            1e-4 * np.linalg.norm(sig.time) / np.linalg.norm(noise)
        )
        plan = make_plan(n, k, seed=seed + 1)
        tracer = Tracer()
        res_p = sfft(sig.time, plan=plan, tracer=tracer)
        phase_loops = sum(sp.name == "perm_filter" for sp in tracer.spans)
        t0 = _time.perf_counter()
        sfft(sig.time, plan=plan)
        t_phase = _time.perf_counter() - t0
        t0 = _time.perf_counter()
        res_v = sfft(noisy, plan=plan)
        t_vote = _time.perf_counter() - t0
        truth = set(sig.locations.tolist())
        vote_samples = plan.filt.width * plan.loops
        phase_samples = (plan.phase.filt.width + 1) * phase_loops
        rows.append(
            (
                f"2^{ilog2(n)}",
                f"{vote_samples}",
                f"{phase_samples}",
                format_ratio(vote_samples / phase_samples),
                format_seconds(t_vote),
                format_seconds(t_phase),
                "yes" if set(res_v.locations.tolist()) == truth else "NO",
                "yes" if set(res_p.locations.tolist()) == truth else "NO",
            )
        )
    return ExperimentResult(
        experiment_id="ext-exact",
        title=f"Phase-first location vs voting (k={k})",
        headers=(
            "n", "voting samples", "phase samples", "sample ratio",
            "voting time", "phase time", "voting exact?", "phase exact?",
        ),
        rows=tuple(rows),
        notes=(
            "extension (paper ref [3], sFFT 3.0): the engine reads a "
            "singleton's location off the phase of a one-sample-shifted "
            "fold of the phase plan's loops (w + 1 samples per loop) and "
            "peels, certifying on the next loop; the voting route runs "
            "all L loops.  Voting samples and time are the same input "
            "with 1e-4 relative noise, which the phase step rejects",
        ),
    )
