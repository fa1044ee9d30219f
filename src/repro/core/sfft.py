"""The sparse FFT driver — paper Section III end-to-end (CPU reference).

:func:`sfft` is the per-call front end to the pipeline engine
(:func:`~repro.core.batch.run_stack_pipeline`): it resolves the plan,
builds the optional Comb mask, and runs the signal as a stack of one
through the six steps

1-2. permute + filter + fold into buckets  (:mod:`~repro.core.workspace`)
3.   batched ``B``-point FFT               (:mod:`~repro.core.subsampled`)
4.   cutoff                                (:mod:`~repro.core.cutoff`)
5.   reverse hash + voting                 (:mod:`~repro.core.recovery`)
6.   median magnitude reconstruction       (:mod:`~repro.core.estimation`)

With a ``tracer`` it clocks each step as a span, which is how the paper's
Figure 2 breakdown identifies perm+filter as the dominant cost.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from ..errors import ParameterError, RecoveryError
from ..obs import MetricsRegistry, Tracer, global_registry
from ..utils.rng import RngLike
from ..utils.validation import as_complex_signal
from .batch import (
    STEP_NAMES,
    SparseFFTResult,
    comb_masks_for_stack,
    run_stack_pipeline,
)
from .params import resolve_sfft_config
from .plan import SfftPlan
from .plan_cache import cached_plan

__all__ = ["SparseFFTResult", "sfft", "STEP_NAMES"]


def sfft(
    x,
    k: int | None = None,
    *,
    plan: SfftPlan | None = None,
    seed: RngLike = None,
    cutoff_method: str = "topk",
    comb_width: int | None = None,
    comb_loops: int = 3,
    trim_to_k: bool = True,
    strict: bool = False,
    verify: bool = False,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    **plan_overrides,
) -> SparseFFTResult:
    """Compute the sparse FFT of ``x``.

    Parameters
    ----------
    x:
        Length-``n`` signal (``n`` a power of two); real inputs are widened
        to complex.
    k:
        Target sparsity.  Optional when ``plan`` is given.
    plan:
        A reusable :class:`~repro.core.plan.SfftPlan`; obtained from the
        process-level plan cache (with ``seed`` / ``plan_overrides``, e.g.
        ``profile="fast"`` or ``loops=6``) when omitted, so repeat
        convenience calls of one shape pay filter synthesis once — see
        :mod:`repro.core.plan_cache`.  Plan overrides alongside a given
        plan raise :class:`~repro.errors.ParameterError`.
    cutoff_method:
        ``"topk"`` (baseline sort&select) or ``"threshold"`` (fast
        k-selection).
    comb_width:
        Enable the sFFT-2.0 Comb pre-filter with ``W = comb_width`` residue
        classes (a power of two dividing ``n``): ``comb_loops`` cheap
        aliasing passes screen the spectrum and location recovery only
        votes for approved residues.  ``None`` (default) disables it.
    trim_to_k:
        Keep only the ``k`` largest recovered coefficients (the paper
        reports exactly ``k``).
    strict:
        Raise :class:`~repro.errors.RecoveryError` if fewer than ``k``
        coefficients survive voting.
    tracer:
        Record each step as a span on this :class:`~repro.obs.Tracer` and
        surface the per-step times as ``step_times``; a run-scoped tracer
        can hold many transforms.  ``None`` (default) records nothing.
    metrics:
        Registry receiving the ``sfft.*`` metrics (bucket occupancy,
        recovery votes/hits, collisions) of a traced call.  Defaults to
        :func:`repro.obs.global_registry`.
    verify:
        Debugging aid: additionally compute the dense FFT and raise
        :class:`~repro.errors.RecoveryError` unless the recovered support
        matches its top-``k`` (costs ``O(n log n)`` — development only).

    Returns
    -------
    SparseFFTResult
    """
    if plan is None:
        if k is None:
            raise ParameterError("either k or a plan must be provided")
        x = as_complex_signal(x)
        # The resolution seam: explicit overrides win verbatim; otherwise
        # a configured wisdom store, then env pins, then paper defaults
        # (see repro.core.params).
        resolved = resolve_sfft_config(
            x.size, k, explicit=plan_overrides, comb_width=comb_width,
        )
        if comb_width is None:
            comb_width = resolved.comb_width
        plan = cached_plan(x.size, k, seed=seed, **resolved.overrides)
    else:
        if plan_overrides:
            raise ParameterError(
                f"plan overrides {sorted(plan_overrides)} apply only to "
                f"plan-less calls; the given plan fixes its parameters"
            )
        x = as_complex_signal(x, plan.n)
    params = plan.params
    X = x[None]

    registry = None
    if tracer is not None:
        span_start = len(tracer.spans)
        registry = metrics if metrics is not None else global_registry()

    def stage(name: str, **attrs):
        if tracer is None:
            return nullcontext()
        return tracer.span(name, category="sfft", **attrs)

    # Optional sFFT-2.0 Comb screen — timed as its own step so Figure-2
    # style breakdowns account for every stage that ran.
    masks = None
    if comb_width is not None:
        with stage("comb", W=comb_width, loops=comb_loops):
            masks = comb_masks_for_stack(X, plan, comb_width, comb_loops, seed)

    (result,) = run_stack_pipeline(
        X, plan,
        cutoff_method=cutoff_method,
        residue_filters=masks,
        trim_to_k=trim_to_k,
        strict=strict,
        stage=stage,
        metrics=registry,
    )

    if tracer is not None:
        # step_times is a view over this call's spans, plus "comb" when
        # the pre-filter ran.
        by_name: dict[str, float] = {}
        for sp in tracer.spans[span_start:]:
            if sp.category == "sfft":
                by_name[sp.name] = by_name.get(sp.name, 0.0) + sp.duration_s
        times = {name: by_name.get(name, 0.0) for name in STEP_NAMES}
        if "comb" in by_name:
            times = {"comb": by_name["comb"], **times}
        result = replace(result, step_times=times, trace=tracer)
    if verify:
        # Verification deliberately uses the numpy oracle, not the
        # configured backend, so verify-mode checks the backend too.
        dense = np.fft.fft(x)  # reprolint: ignore[fft-registry-bypass]
        top = np.argpartition(np.abs(dense), -params.k)[-params.k :]
        want = set(int(f) for f in top)
        got = set(int(f) for f in result.locations)
        if got != want:
            raise RecoveryError(
                f"verification failed: sparse support {sorted(got)[:8]}... "
                f"!= dense top-k {sorted(want)[:8]}..."
            )
    return result
