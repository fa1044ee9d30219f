"""Per-step time breakdowns (paper Section IV-A, Figure 2).

The paper motivates its optimization order by profiling the serial sFFT:
permutation+filtering dominates as ``n`` grows (Figure 2(a)), while
estimation's share *shrinks* with ``n`` at fixed ``k`` — the
counter-intuitive effect of the falling relative sparsity — and both
perm+filter and estimation dominate as ``k`` grows (Figure 2(b)).

Two breakdown sources are supported:

* **measured** — wall-clock the actual CPU reference on real data
  (:func:`measure_breakdown`); feasible up to ~2^22 here;
* **modeled** — the PsFFT step model at any size
  (:func:`modeled_breakdown`), used for the paper-scale sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.plan import make_plan
from ..core.sfft import STEP_NAMES, sfft
from ..cpu.psfft import PsFFT
from ..errors import ParameterError
from ..obs import Tracer
from ..signals.sparse import make_sparse_signal
from ..utils.rng import RngLike

__all__ = ["FIG2_GROUPS", "StepBreakdown", "measure_breakdown", "modeled_breakdown"]

#: Figure 2 groups steps 1-2 as one bar; map our step names to its legend.
FIG2_GROUPS = {
    "perm_filter": "Perm+Filter",
    "bucket_fft": "FFT",
    "cutoff": "Cutoff",
    "recovery": "Reverse Hash",
    "estimation": "Estimation",
}


@dataclass(frozen=True)
class StepBreakdown:
    """Seconds per pipeline step for one transform configuration."""

    n: int
    k: int
    seconds: dict[str, float]

    @property
    def total(self) -> float:
        """Sum over all steps."""
        return sum(self.seconds.values())

    def shares(self) -> dict[str, float]:
        """Fraction of total per step (what Figure 2 plots)."""
        total = self.total
        if total <= 0:
            raise ParameterError("cannot compute shares of a zero breakdown")
        return {name: t / total for name, t in self.seconds.items()}

    def dominant(self) -> str:
        """Name of the most expensive step."""
        return max(self.seconds, key=self.seconds.get)


def measure_breakdown(
    n: int,
    k: int,
    *,
    seed: RngLike = 0,
    repeats: int = 3,
    **plan_overrides,
) -> StepBreakdown:
    """Wall-clock the CPU reference per step (min over ``repeats`` runs)."""
    if repeats < 1:
        raise ParameterError(f"repeats must be >= 1, got {repeats}")
    sig = make_sparse_signal(n, k, seed=seed)
    plan = make_plan(n, k, seed=seed, **plan_overrides)
    best: dict[str, float] = {name: float("inf") for name in STEP_NAMES}
    for _ in range(repeats):
        res = sfft(sig.time, plan=plan, tracer=Tracer())
        for name, t in res.step_times.items():
            # step_times may carry extra stages (e.g. "comb") beyond the
            # canonical five; fold them in rather than KeyError.
            best[name] = min(best.get(name, float("inf")), t)
    return StepBreakdown(n=n, k=k, seconds=dict(best))


def modeled_breakdown(n: int, k: int, **overrides) -> StepBreakdown:
    """PsFFT's modeled per-step seconds at any (paper-scale) size."""
    times = PsFFT.create(n, k, **overrides).estimated_times().as_dict()
    times.pop("sync", None)
    return StepBreakdown(n=n, k=k, seconds=times)
