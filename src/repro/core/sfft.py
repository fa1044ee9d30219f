"""The sparse FFT driver — paper Section III end-to-end (CPU reference).

:func:`sfft` is the per-call front end to the pipeline engine
(:func:`~repro.core.batch.run_stack_pipeline`): it resolves the plan
(:func:`resolve_plan`, shared with
:func:`~repro.core.variants.sfft_batch`) and runs the signal as a stack of
one through the serial run path (:func:`~repro.core.batch.run_serial`:
the optional Comb mask, then the six steps)

1-2. permute + filter + fold into buckets  (:mod:`~repro.core.workspace`)
3.   batched ``B``-point FFT               (:mod:`~repro.core.subsampled`)
4.   cutoff                                (:mod:`~repro.core.cutoff`)
5.   reverse hash + voting                 (:mod:`~repro.core.recovery`)
6.   median magnitude reconstruction       (:mod:`~repro.core.estimation`)

Exactly sparse signals are located by phase before steps 4-6
(:mod:`repro.core.phase`) and skip them; every other signal runs all six.
With a ``tracer`` it clocks each step as a span, which is how the paper's
Figure 2 breakdown identifies perm+filter as the dominant cost.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from inspect import signature

import numpy as np

from ..errors import ParameterError, RecoveryError
from ..obs import MetricsRegistry, Tracer, global_registry
from ..utils.rng import RngLike
from ..utils.validation import as_complex_signal
from .batch import STEP_NAMES, SparseFFTResult, run_serial
from .parameters import derive_parameters
from .params import ResolvedConfig, resolve_sfft_config
from .plan import SfftPlan
from .plan_cache import cached_plan

__all__ = ["SparseFFTResult", "sfft", "STEP_NAMES"]

#: The plan overrides a plan-less call may pass.
_DERIVE_KEYS = frozenset(signature(derive_parameters).parameters) - {"n", "k"}


def resolve_plan(
    n: int,
    k: int | None,
    plan: SfftPlan | None,
    *,
    seed: RngLike = None,
    overrides: dict | None = None,
    comb_width: int | None = None,
    batch_size: int = 1,
) -> tuple[SfftPlan, ResolvedConfig]:
    """The one plan-resolution path of :func:`sfft` and
    :func:`~repro.core.variants.sfft_batch`.

    A given ``plan`` fixes its parameters: it is an explicit pin, and
    derivation ``overrides`` alongside it, or a ``k`` other than the
    plan's, raise :class:`~repro.errors.ParameterError`.  Otherwise the
    knobs resolve through :func:`~repro.core.params.resolve_sfft_config`
    (explicit > wisdom > paper defaults) and the plan comes from the
    process-level cache, so repeat calls of one shape pay filter synthesis
    once.  The verdict's ``comb_width`` is the Comb width to run with.  An
    override :func:`~repro.core.parameters.derive_parameters` does not take
    raises :class:`~repro.errors.ParameterError` naming it.
    """
    unknown = sorted(set(overrides or ()) - _DERIVE_KEYS)
    if unknown:
        raise ParameterError(
            f"unknown keyword(s) {unknown}; plan overrides are "
            f"{sorted(_DERIVE_KEYS)}"
        )
    if plan is not None:
        if overrides:
            raise ParameterError(
                f"plan overrides {sorted(overrides)} apply only to "
                f"plan-less calls; the given plan fixes its parameters"
            )
        if k is not None and k != plan.k:
            raise ParameterError(
                f"k={k} disagrees with the given plan's k={plan.k}"
            )
        return plan, ResolvedConfig(source="explicit", comb_width=comb_width)
    if k is None:
        raise ParameterError("either k or a plan must be provided")
    resolved = resolve_sfft_config(
        n, k, batch_size=batch_size, explicit=overrides,
        comb_width=comb_width,
    )
    return cached_plan(n, k, seed=seed, **resolved.overrides), resolved


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
        to complex.  Only the samples the plan reads are checked: a NaN or
        inf among them raises :class:`~repro.errors.ParameterError`, and a
        sample it never reads is not scanned (it cannot change the
        result).
    k:
        Target sparsity.  Optional when ``plan`` is given; a ``k`` that
        disagrees with the plan's raises
        :class:`~repro.errors.ParameterError`.
    plan:
        A reusable :class:`~repro.core.plan.SfftPlan`; obtained from the
        process-level plan cache (with ``seed`` / ``plan_overrides``, e.g.
        ``profile="accurate"`` or ``loops=6``) when omitted, so repeat
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
        recovery votes/hits, collisions, and the ``sfft.location.*``
        route counters) of a traced call.  Defaults to
        :func:`repro.obs.global_registry`, which also counts the routes
        of untraced calls.
    verify:
        Debugging aid: additionally compute the dense FFT and raise
        :class:`~repro.errors.RecoveryError` unless the recovered support
        matches its top-``k`` (costs ``O(n log n)`` — development only).

    Returns
    -------
    SparseFFTResult
    """
    x = as_complex_signal(x, None if plan is None else plan.n)
    plan, resolved = resolve_plan(
        x.size, k, plan, seed=seed, overrides=plan_overrides,
        comb_width=comb_width,
    )

    stage = registry = None
    if tracer is not None:
        span_start = len(tracer.spans)
        registry = metrics if metrics is not None else global_registry()
        stage = partial(tracer.span, category="sfft")

    (result,) = run_serial(
        x[None], plan,
        cutoff_method=cutoff_method,
        comb_width=resolved.comb_width,
        comb_loops=comb_loops,
        trim_to_k=trim_to_k,
        strict=strict,
        seed=seed,
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
        k = plan.params.k
        top = np.argpartition(np.abs(dense), -k)[-k:]
        want = set(int(f) for f in top)
        got = set(int(f) for f in result.locations)
        if got != want:
            raise RecoveryError(
                f"verification failed: sparse support {sorted(got)[:8]}... "
                f"!= dense top-k {sorted(want)[:8]}..."
            )
    return result
