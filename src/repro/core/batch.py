"""The sparse-FFT pipeline engine — one plan, a stack of signals, one pass.

Every entry point runs the paper's six steps (Section III) through
:func:`run_stack_pipeline` over an ``(S, n)`` signal stack: the per-call
driver :func:`~repro.core.sfft.sfft` as a stack of one, the batched
:func:`~repro.core.variants.sfft_batch` over a whole stack (both through
the serial run path :func:`run_serial`), and the sharded executor
(:mod:`repro.core.executor`) over slices of one.  The stack amortizes
execution overhead the way the GPU implementation amortizes kernel
launches:

1-2. permute + filter + fold, one fused gather per signal through the
     plan workspace (:meth:`~repro.core.workspace.PlanWorkspace.bin_fused_stack`);
3.   a single ``(S*L, B)`` batched bucket FFT — the shape a batched cuFFT
     call would take;
4.   one batched top-k over all ``S * v_loops`` voting rows
     (:func:`~repro.core.cutoff.cutoff_rows`);
5.   sort-count voting, one sort per signal over its candidate keys, with
     no length-``n`` score array
     (:func:`~repro.core.recovery.recover_locations_stack`);
6.   median magnitude reconstruction per signal
     (:func:`~repro.core.estimation.estimate_values_stack`).

Every stage is per-signal independent, so row ``s`` of a stack — whole,
sharded, or alone — gives bit-identical results.  The ``stage`` hook is
the one timing path: the driver, the benchmarks and the executor clock the
same :data:`STEP_NAMES` spans through it.

The public batch entry point is :func:`repro.core.variants.sfft_batch`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from ..analysis.staticcheck.contracts import shape_contract
from ..errors import ParameterError, RecoveryError
from ..obs import MetricsRegistry, Tracer, emit_sfft_metrics
from ..utils.rng import RngLike
from ..utils.validation import as_complex_signal
from .comb import comb_approved_residues
from .cutoff import cutoff_rows
from .estimation import estimate_values_stack
from .plan import SfftPlan
from .recovery import recover_locations_stack

__all__ = ["run_serial", "run_stack_pipeline", "as_signal_stack",
           "comb_masks_for_stack", "SparseFFTResult", "STEP_NAMES"]

STEP_NAMES = ("perm_filter", "bucket_fft", "cutoff", "recovery", "estimation")


@dataclass(frozen=True)
class SparseFFTResult:
    """Sparse transform output: the recovered ``(location, value)`` pairs.

    Attributes
    ----------
    n:
        Transform size the locations index into.
    locations:
        Recovered frequencies, ascending ``int64``.
    values:
        Complex coefficient estimates aligned with ``locations``
        (``numpy.fft.fft`` scale).
    votes:
        Location-loop vote count per recovered frequency.
    step_times:
        Wall-clock seconds per pipeline step when ``sfft`` was given a
        tracer, else ``None``.  A view over ``trace``: each step's spans
        summed.  Includes a ``"comb"`` entry when the sFFT-2.0 pre-filter
        ran.
    trace:
        The :class:`~repro.obs.Tracer` that clocked the run (traced calls
        only); ``trace.export_chrome_trace()`` renders it for
        ``chrome://tracing`` / Perfetto.
    """

    n: int
    locations: np.ndarray
    values: np.ndarray
    votes: np.ndarray
    step_times: dict[str, float] | None = field(default=None, compare=False)
    trace: Tracer | None = field(default=None, compare=False, repr=False)

    @property
    def k_found(self) -> int:
        """Number of recovered coefficients."""
        return self.locations.size

    def to_dense(self) -> np.ndarray:
        """Dense length-``n`` spectrum with the recovered coefficients."""
        spec = np.zeros(self.n, dtype=np.complex128)
        spec[self.locations] = self.values
        return spec

    def top(self, k: int) -> "SparseFFTResult":
        """Restrict to the ``k`` largest-magnitude coefficients."""
        if k >= self.k_found:
            return self
        order = np.argpartition(np.abs(self.values), -k)[-k:]
        order = order[np.argsort(self.locations[order])]
        return SparseFFTResult(
            n=self.n,
            locations=self.locations[order],
            values=self.values[order],
            votes=self.votes[order],
            step_times=self.step_times,
            trace=self.trace,
        )

    def as_dict(self) -> dict[int, complex]:
        """``{frequency: value}`` mapping (convenient for assertions)."""
        return {int(f): complex(v) for f, v in zip(self.locations, self.values)}


#: ``reject_non_finite`` messages for its two checkpoints.
NON_FINITE_INPUT = "input samples are NaN or infinite"
OVERFLOWING_INPUT = "coefficient estimates overflow float64"


def reject_non_finite(per_signal, problem: str, signal_offset: int = 0) -> None:
    """Raise :class:`~repro.errors.ParameterError` naming the first signal
    whose array in ``per_signal`` holds a NaN or inf.

    The drivers call it on the binned ``(S, L, B)`` buckets right after
    steps 1-2 instead of on the ``(S, n)`` input: ``S*L*B`` reads, not
    ``S*n``, and nothing is lost — every sample the transform reads is
    multiplied into some bucket (a NaN or inf times a zero tap is still
    NaN), and samples it never reads cannot affect the result.  A second
    call on the ``S*k`` estimates rejects finite input whose spectrum
    overflows ``float64``.
    """
    for s, row in enumerate(per_signal):
        if not np.isfinite(row).all():
            raise ParameterError(f"signal {signal_offset + s}: {problem}")


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

    The masks are data-dependent, hence per-signal.  Computed in *stack
    order* so a :class:`numpy.random.Generator` seed draws the same
    permutation sequence whether the stack later runs serially or sharded.
    """
    return np.stack([
        comb_approved_residues(
            X[s], comb_width, plan.params.k, loops=comb_loops, seed=seed
        )
        for s in range(X.shape[0])
    ])


def _no_stage(name: str, **attrs):
    """The ``stage`` hook of an unclocked run."""
    return nullcontext()


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
    metrics: MetricsRegistry | None = None,
) -> list[SparseFFTResult]:
    """Drive a validated ``(S, n)`` stack through the six-step pipeline.

    The one engine behind :func:`run_serial` (the path of ``sfft`` and
    ``sfft_batch``) and the sharded executor: ``X`` must
    already be a validated stack (see :func:`as_signal_stack`) and any Comb
    masks must be precomputed (``residue_filters``, one row per signal).
    ``workspace`` is the :class:`~repro.core.workspace.PlanWorkspace` to
    execute with — the sharded executor passes a per-worker clone; the
    default is the plan's cached workspace.  ``signal_offset`` shifts
    signal indices in ``strict`` error messages so shard errors name the
    global stack row.  ``stage`` is an optional ``stage(name, **attrs)``
    callable returning a context manager, used to clock each stage (the
    driver and the executor emit their spans through it).  ``metrics``
    receives each signal's ``sfft.*`` metrics (bucket occupancy, pre-trim
    hits and votes, collisions); ``None`` publishes nothing.
    """
    S = X.shape[0]
    params = plan.params
    B, L = params.B, params.loops
    v_loops = params.voting_loops
    ws = plan.workspace() if workspace is None else workspace
    stage = stage or _no_stage

    # Steps 1-2: one fused gather + fold per signal.
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

    # Step 5: sort-count voting, one sort per signal.
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

    # Step 6: median magnitude reconstruction.
    with stage("estimation", hits=int(sum(h.size for h in hits))):
        values = estimate_values_stack(
            hits, rows, list(plan.permutations), plan.filt, B
        )
    reject_non_finite(values, OVERFLOWING_INPUT, signal_offset)

    if metrics is not None:
        for s in range(S):
            emit_sfft_metrics(
                metrics, B=B, n=params.n,
                selected_sizes=[int(sel.size) for sel in selected[s]],
                hits=hits[s], votes=votes[s], permutations=perms_v,
            )

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
def run_serial(
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
    stage=None,
    metrics: MetricsRegistry | None = None,
) -> list[SparseFFTResult]:
    """Transform an ``(S, n)`` signal stack under one plan on this thread.

    The one serial run path of :func:`~repro.core.sfft.sfft` and
    :func:`~repro.core.variants.sfft_batch`: it builds the optional
    sFFT-2.0 Comb masks (clocked as the ``comb`` stage; ``seed`` only
    seeds their permutations), binds the plan workspace to
    ``fft_backend`` / ``fft_workers`` (see :mod:`repro.core.fft_backend`;
    the default resolves the process-wide backend) and runs
    :func:`run_stack_pipeline`.  ``stage`` and ``metrics`` pass through to
    the engine.  Returns one :class:`SparseFFTResult` per stack row.
    """
    X = as_signal_stack(X, plan)
    stage = stage or _no_stage
    residue_filters = None
    if comb_width is not None:
        with stage("comb", W=comb_width, loops=comb_loops):
            residue_filters = comb_masks_for_stack(
                X, plan, comb_width, comb_loops, seed
            )

    ws = plan.workspace()
    if fft_backend is not None or fft_workers != 1:
        ws = ws.clone(fft_backend=fft_backend, fft_workers=fft_workers)
    return run_stack_pipeline(
        X, plan,
        workspace=ws,
        cutoff_method=cutoff_method,
        residue_filters=residue_filters,
        trim_to_k=trim_to_k,
        strict=strict,
        stage=stage,
        metrics=metrics,
    )
