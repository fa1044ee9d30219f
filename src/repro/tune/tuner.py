"""The measurement engine: time candidates, declare statistically real wins.

The decision rule is the mirror image of the regression gate
(:mod:`repro.obs.regress`): a candidate *beats* the default configuration
only when its median over repeated trials clears the default's by a
relative threshold **plus** an IQR band **plus** an absolute floor —

    cand_median < default_median * (1 - threshold)
                  - iqr_factor * max(IQRs) - min_abs_s

so timer jitter can never crown a winner, exactly as jitter can never
fail the gate.  Candidates must also pass an **exactness screen** (every
probe signal's support recovered, against ground truth) before they may
win at all: tuning changes speed, never results.

All timing goes through :func:`repro.obs.monotonic` — the same sanctioned
clock seam the tracer uses — so tuner measurements and traced spans share
one clock domain.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from ..core.plan import make_plan
from ..core.sfft import sfft
from ..core.variants import sfft_batch
from ..errors import ParameterError
from ..obs import monotonic
from ..obs.regress import _iqr, _median
from ..signals import add_awgn, make_sparse_signal
from .candidates import Candidate, WorkloadClass, generate_candidates
from .wisdom import WISDOM_SCHEMA, config_fingerprint

__all__ = ["TuneConfig", "CandidateStats", "TuneOutcome", "tune_class",
           "measure_candidate", "build_record"]


@dataclass(frozen=True)
class TuneConfig:
    """Trial budget and the statistical margin a winner must clear.

    Each timed sample spans ``reps`` back-to-back runs (auto-calibrated so
    one sample covers at least ``target_span_s`` — the ``timeit``
    amortization that keeps scheduler jitter from swamping sub-millisecond
    transforms) and is normalized to per-run seconds, so thresholds and
    IQRs always compare like with like.
    """

    trials: int = 5
    probes: int = 2
    threshold: float = 0.05
    iqr_factor: float = 1.5
    min_abs_s: float = 1e-5
    reps: int | None = None
    target_span_s: float = 5e-3

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")
        if self.probes < 1:
            raise ParameterError(f"probes must be >= 1, got {self.probes}")
        if self.reps is not None and self.reps < 1:
            raise ParameterError(f"reps must be >= 1, got {self.reps}")


@dataclass(frozen=True)
class CandidateStats:
    """Measured verdict for one candidate on one workload class."""

    candidate: Candidate
    label: str
    median_s: float
    iqr_s: float
    exact: bool
    samples: tuple[float, ...] = field(repr=False, default=())

    def speedup_vs(self, baseline_median_s: float) -> float:
        """``baseline / this`` — >1 means this candidate is faster."""
        return baseline_median_s / self.median_s if self.median_s else 1.0


@dataclass(frozen=True)
class TuneOutcome:
    """Everything one ``tune_class`` call learned."""

    workload: WorkloadClass
    ranking: tuple[CandidateStats, ...]
    winner: CandidateStats
    default: CandidateStats
    improved: bool
    record: dict[str, Any]

    @property
    def speedup_x(self) -> float:
        return self.winner.speedup_vs(self.default.median_s)


def _probe_signals(
    wc: WorkloadClass, config: TuneConfig, seed: int
) -> tuple[list[np.ndarray], list[set[int]]]:
    """``(signals, truths)``: probe inputs and their ground-truth supports.

    Probes are well separated (``n / 4k`` minimum circular distance) so
    exact recovery is the expected outcome for any sane configuration and
    the exactness screen measures the *candidate*, not the draw.
    """
    count = wc.batch_size if wc.batch_size > 1 else config.probes
    sep = max(1, wc.n // (4 * wc.k)) if wc.k * 4 < wc.n else 1
    xs: list[np.ndarray] = []
    truths: list[set[int]] = []
    for p in range(count):
        sig = make_sparse_signal(
            wc.n, wc.k, seed=seed + 101 * p, min_separation=sep
        )
        x = sig.time
        if wc.noise_class == "noisy":
            x, _ = add_awgn(x, 30.0, seed=seed + 7000 + p)
        xs.append(np.ascontiguousarray(x, dtype=np.complex128))
        truths.append(set(int(f) for f in sig.locations))
    return xs, truths


def _build_runner(
    wc: WorkloadClass, cand: Candidate, xs: list[np.ndarray], plan: Any
) -> Callable[[], Any]:
    """A zero-argument callable running the candidate's configuration.

    Returns the per-signal result list so the exactness screen can reuse
    one invocation.
    """
    if wc.batch_size == 1:
        x = xs[0]

        def run() -> Any:
            return [sfft(x, plan=plan, comb_width=cand.comb_width)]

        return run

    stack = np.stack(xs)
    executor = None
    kwargs: dict[str, Any] = {}
    if cand.workers > 1:
        from ..core.executor import ShardedExecutor

        executor = ShardedExecutor(
            workers=cand.workers, fft_backend=cand.fft_backend,
            mode="thread",
        )
    elif cand.fft_backend is not None:
        kwargs["fft_backend"] = cand.fft_backend

    def run() -> Any:
        return sfft_batch(
            stack, plan=plan, executor=executor,
            comb_width=cand.comb_width, **kwargs,
        )

    return run


def measure_candidate(
    wc: WorkloadClass, cand: Candidate, xs: list[np.ndarray],
    truths: list[set[int]], config: TuneConfig,
    *, seed: int,
) -> CandidateStats:
    """Time one candidate: exactness screen, warmup, ``trials`` samples."""
    plan = make_plan(
        wc.n, wc.k, seed=seed, **cand.plan_overrides(wc.n, wc.k)
    )
    run = _build_runner(wc, cand, xs, plan)

    # Exactness screen (also the warmup: the plan workspace gets built
    # here, so the timed trials see steady-state reuse).
    results = run()
    exact = all(
        set(int(f) for f in res.locations) == truth
        for res, truth in zip(results, truths)
    )
    if wc.batch_size == 1 and len(xs) > 1:
        exact = exact and all(
            set(int(f) for f in
                sfft(x, plan=plan, comb_width=cand.comb_width).locations)
            == truth
            for x, truth in zip(xs[1:], truths[1:])
        )

    # Calibrate the inner repetition count off one warm run so every
    # sample spans >= target_span_s of work, then normalize back to
    # per-run seconds.
    if config.reps is not None:
        reps = config.reps
    else:
        t0 = monotonic()
        run()
        estimate = max(monotonic() - t0, 1e-9)
        reps = max(1, min(64, math.ceil(config.target_span_s / estimate)))

    samples: list[float] = []
    for _ in range(config.trials):
        t0 = monotonic()
        for _ in range(reps):
            run()
        samples.append((monotonic() - t0) / reps)
    return CandidateStats(
        candidate=cand,
        label=cand.label(),
        median_s=_median(samples),
        iqr_s=_iqr(samples),
        exact=exact,
        samples=tuple(samples),
    )


def _beats_default(stats: CandidateStats, default: CandidateStats,
                   config: TuneConfig) -> bool:
    """The gate-mirrored margin: improvement must be statistically real."""
    band = config.iqr_factor * max(stats.iqr_s, default.iqr_s)
    return stats.median_s < (
        default.median_s * (1.0 - config.threshold) - band - config.min_abs_s
    )


def build_record(wc: WorkloadClass, winner: CandidateStats,
                 default: CandidateStats, config: TuneConfig) -> dict[str, Any]:
    """The ``repro.wisdom/1`` record (version-less; stores assign it)."""
    resolved = winner.candidate.resolved(wc.n, wc.k)
    return {
        "schema": WISDOM_SCHEMA,
        "class": wc.key,
        "config": winner.candidate.config(),
        "resolved": resolved,
        "fingerprint": config_fingerprint(
            wc.n, wc.k, {"B": resolved["B"], "loops": resolved["loops"]}
        ),
        "stats": {
            "trials": config.trials,
            "median_s": winner.median_s,
            "iqr_s": winner.iqr_s,
            "default_median_s": default.median_s,
            "default_iqr_s": default.iqr_s,
            "speedup_x": winner.speedup_vs(default.median_s),
        },
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def tune_class(
    wc: WorkloadClass,
    *,
    config: TuneConfig | None = None,
    candidates: list[Candidate] | None = None,
    budget: int | None = None,
    seed: int = 2016,
) -> TuneOutcome:
    """Measure every candidate for one workload class and pick the winner.

    The default configuration is always measured (candidate 0), and it
    wins unless some exact candidate beats it by the statistically real
    margin — so consuming wisdom can never be worse than not tuning,
    modulo measurement noise the margin already absorbs.
    """
    config = config or TuneConfig()
    if candidates is None:
        candidates = generate_candidates(wc, budget=budget)
    if not candidates or not candidates[0].is_default:
        candidates = [Candidate()] + list(candidates)

    xs, truths = _probe_signals(wc, config, seed)
    # Discarded warmup sweep of the default: the first measured candidate
    # otherwise pays process warmup (allocator, page faults, filter code
    # paths) that inflates its spread — and the default runs first.
    measure_candidate(wc, candidates[0], xs, truths,
                      replace(config, trials=1), seed=seed)
    measured = [
        measure_candidate(wc, cand, xs, truths, config, seed=seed)
        for cand in candidates
    ]
    default = measured[0]
    ranking = tuple(sorted(measured, key=lambda s: s.median_s))

    contenders = [
        s for s in measured[1:]
        if s.exact and _beats_default(s, default, config)
    ]
    if default.exact and contenders:
        winner = min(contenders, key=lambda s: s.median_s)
        improved = True
    else:
        winner, improved = default, False

    return TuneOutcome(
        workload=wc,
        ranking=ranking,
        winner=winner,
        default=default,
        improved=improved,
        record=build_record(wc, winner, default, config),
    )
