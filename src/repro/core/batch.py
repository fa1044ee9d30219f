"""Batched sparse-FFT execution — one plan, a stack of signals, one pass.

The per-call driver (:func:`~repro.core.sfft.sfft`) already amortizes plan
synthesis; this module amortizes *execution* overhead across a ``(S, n)``
signal stack the way the GPU implementation amortizes kernel launches:

* steps 1-2 run as **one** fancy-indexed gather over the whole stack
  (:meth:`~repro.core.workspace.PlanWorkspace.bin_fused_stack`);
* step 3 is a single ``(S*L, B)`` batched bucket FFT — the shape a batched
  cuFFT call would take;
* step 4 selects buckets with one batched top-k over all ``S * v_loops``
  voting rows (:func:`~repro.core.cutoff.cutoff_rows`);
* step 5 votes by sort-count, one sort per signal over its candidate
  keys, with no length-``n`` score array
  (:func:`~repro.core.recovery.recover_locations_stack`);
* step 6 estimates all signals' hits in one vectorized pass
  (:func:`~repro.core.estimation.estimate_values_stack`).

Every stage is a reshape of the exact computation the single-signal driver
performs, so ``sfft_batch_fused(X, plan)[s]`` recovers the same support as
``sfft(X[s], plan=plan)`` with (floating-point-)identical values — the
property suite asserts this signal for signal, with and without the Comb
pre-filter.

The stage pipeline itself is exposed as :func:`run_stack_pipeline` so the
sharded executor (:mod:`repro.core.executor`) can drive slices of a stack
through it concurrently — every stage is per-signal independent, so a
shard's results are bit-identical to the same rows of one whole-stack
pass.

The public entry point is :func:`repro.core.variants.sfft_batch`, which
routes eligible calls here and falls back to the per-signal loop for
non-default binning modes.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from ..analysis.staticcheck.contracts import shape_contract
from ..errors import ParameterError, RecoveryError
from ..utils.rng import RngLike
from ..utils.validation import as_complex_signal
from .comb import comb_approved_residues
from .cutoff import cutoff_rows
from .estimation import estimate_values_stack
from .plan import SfftPlan
from .recovery import recover_locations_stack
from .sfft import (
    NON_FINITE_INPUT,
    OVERFLOWING_INPUT,
    SparseFFTResult,
    reject_non_finite,
)

__all__ = ["sfft_batch_fused", "run_stack_pipeline", "as_signal_stack",
           "comb_masks_for_stack"]


@shape_contract("X:*, plan:* -> (S, n)", dtype="complex128",
                bind={"n": "plan.n"})
def as_signal_stack(X: np.ndarray, plan: SfftPlan) -> np.ndarray:
    """Validate ``X`` as an ``(S, n)`` complex stack for ``plan``, no-copy
    when it already is one (C-contiguous ``complex128``)."""
    X = np.atleast_2d(np.asarray(X))
    if X.ndim != 2:
        raise ParameterError(f"signal stack must be 2-D, got shape {X.shape}")
    if X.dtype == np.complex128 and X.flags.c_contiguous:
        # Already the working layout: validate the shape, never copy the
        # stack (it can dwarf every buffer the transform itself touches).
        if X.shape[1] != plan.n:
            raise ParameterError(
                f"signal length {X.shape[1]} != plan n={plan.n}"
            )
        if X.shape[0] == 0:
            raise ParameterError("batch must contain at least one signal")
        return X
    return np.stack([as_complex_signal(row, plan.n) for row in X])


@shape_contract("X:(S, n), plan:* -> (S, W)",
                bind={"n": "plan.n", "W": "comb_width"})
def comb_masks_for_stack(
    X: np.ndarray,
    plan: SfftPlan,
    comb_width: int,
    comb_loops: int,
    seed: RngLike,
) -> np.ndarray:
    """Per-signal sFFT-2.0 Comb masks, built row by row in stack order.

    The masks are data-dependent, hence per-signal; each row is built
    exactly as the per-signal driver would.  Computed in *stack order* so a
    :class:`numpy.random.Generator` seed draws the same permutation
    sequence whether the stack later runs serially or sharded.
    """
    return np.stack([
        comb_approved_residues(
            X[s], comb_width, plan.params.k, loops=comb_loops, seed=seed
        )
        for s in range(X.shape[0])
    ])


@shape_contract("X:(S, n):complex128, plan:* -> *",
                bind={"n": "plan.n", "B": "plan.params.B",
                      "L": "plan.params.loops",
                      "v": "plan.params.voting_loops"})
def run_stack_pipeline(
    X: np.ndarray,
    plan: SfftPlan,
    *,
    workspace=None,
    cutoff_method: str = "topk",
    residue_filters: np.ndarray | None = None,
    trim_to_k: bool = True,
    strict: bool = False,
    signal_offset: int = 0,
    stage=None,
) -> list[SparseFFTResult]:
    """Drive a validated ``(S, n)`` stack through the fused stage pipeline.

    This is the shard-runnable core of :func:`sfft_batch_fused`: ``X`` must
    already be a validated stack (see :func:`as_signal_stack`) and any Comb
    masks must be precomputed (``residue_filters``, one row per signal).
    ``workspace`` is the :class:`~repro.core.workspace.PlanWorkspace` to
    execute with — the sharded executor passes a per-worker clone; the
    default is the plan's cached workspace.  ``signal_offset`` shifts
    signal indices in ``strict`` error messages so shard errors name the
    global stack row.  ``stage`` is an optional ``stage(name, **attrs)``
    callable returning a context manager, used to clock each stage (the
    executor emits per-shard spans through it).
    """
    S = X.shape[0]
    params = plan.params
    B, L = params.B, params.loops
    v_loops = params.voting_loops
    ws = plan.workspace() if workspace is None else workspace
    if stage is None:
        def stage(name, **attrs):
            return nullcontext()

    # Steps 1-2: one gather + fold for the whole stack.
    with stage("perm_filter", signals=S, loops=L, B=B):
        raw = ws.bin_fused_stack(X)
    reject_non_finite(raw, NON_FINITE_INPUT, signal_offset)

    # Step 3: one (S*L, B) batched bucket FFT through the workspace's
    # backend binding.
    with stage("bucket_fft", B=B, batch=S * L):
        rows = ws.bucket_fft(raw.reshape(S * L, B)).reshape(S, L, B)

    # Step 4: batched cutoff over all (signal, voting-loop) rows at once.
    with stage("cutoff", method=cutoff_method):
        flat_sel = cutoff_rows(
            np.abs(rows[:, :v_loops, :]).reshape(S * v_loops, B),
            params.select_count,
            method=cutoff_method,
        )
        selected = [
            flat_sel[s * v_loops:(s + 1) * v_loops] for s in range(S)
        ]

    # Step 5: one flat vote pass for every signal.
    perms_v = list(plan.permutations[:v_loops])
    with stage("recovery", loops=v_loops):
        hits, votes = recover_locations_stack(
            selected, perms_v, B, params.vote_threshold,
            residue_filters=residue_filters,
        )

    if strict:
        for s in range(S):
            if hits[s].size < params.k:
                raise RecoveryError(
                    f"signal {signal_offset + s}: recovered only "
                    f"{hits[s].size} of k={params.k} coefficients"
                )

    # Step 6: all signals' estimates in one vectorized pass.
    with stage("estimation", hits=int(sum(h.size for h in hits))):
        values = estimate_values_stack(
            hits, rows, list(plan.permutations), plan.filt, B
        )
    reject_non_finite(values, OVERFLOWING_INPUT, signal_offset)

    results = []
    for s in range(S):
        res = SparseFFTResult(
            n=params.n, locations=hits[s], values=values[s], votes=votes[s]
        )
        if trim_to_k:
            res = res.top(params.k)
        results.append(res)
    return results


@shape_contract("X:*, plan:* -> *", bind={"n": "plan.n"})
def sfft_batch_fused(
    X: np.ndarray,
    plan: SfftPlan,
    *,
    cutoff_method: str = "topk",
    comb_width: int | None = None,
    comb_loops: int = 3,
    trim_to_k: bool = True,
    strict: bool = False,
    seed: RngLike = None,
    fft_backend: str | None = None,
    fft_workers: int = 1,
) -> list[SparseFFTResult]:
    """Transform an ``(S, n)`` signal stack under one plan, fully batched.

    Parameters mirror :func:`~repro.core.sfft.sfft`'s execution options
    (``cutoff_method``, ``comb_width``/``comb_loops``, ``trim_to_k``,
    ``strict``); ``seed`` only seeds the Comb pre-filter's permutations,
    exactly as it does in the per-signal driver.  ``fft_backend`` /
    ``fft_workers`` select the bucket-FFT implementation (see
    :mod:`repro.core.fft_backend`); the default resolves the process-wide
    backend.  Returns one :class:`~repro.core.sfft.SparseFFTResult` per
    stack row.
    """
    X = as_signal_stack(X, plan)

    # Optional sFFT-2.0 Comb screen.
    residue_filters = None
    if comb_width is not None:
        residue_filters = comb_masks_for_stack(
            X, plan, comb_width, comb_loops, seed
        )

    if fft_backend is None and fft_workers == 1:
        ws = plan.workspace()
    else:
        ws = plan.workspace().clone(
            fft_backend=fft_backend, fft_workers=fft_workers
        )
    return run_stack_pipeline(
        X, plan,
        workspace=ws,
        cutoff_method=cutoff_method,
        residue_filters=residue_filters,
        trim_to_k=trim_to_k,
        strict=strict,
    )
