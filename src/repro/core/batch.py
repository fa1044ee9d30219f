"""The sparse-FFT pipeline engine — one plan, a stack of signals, one pass.

Every entry point runs the paper's six steps (Section III) through
:func:`run_stack_pipeline` over an ``(S, n)`` signal stack: the per-call
driver :func:`~repro.core.sfft.sfft` as a stack of one, the batched
:func:`~repro.core.variants.sfft_batch` over a whole stack (both through
the serial run path :func:`run_serial`), and the sharded executor
(:mod:`repro.core.executor`) over slices of one.  The stack amortizes
execution overhead the way the GPU implementation amortizes kernel
launches.

Location is phase-first (:mod:`repro.core.phase`), on the plan's phase
plan (:attr:`~repro.core.plan.SfftPlan.phase`, ``min(B, max(16k, 512))``
buckets) through the workspace every call starts in: in lockstep rounds,
one plan loop each, every signal's loop is gathered once and folded plain
and, while the signal still decodes, one-sample-shifted; a round's rows
go through one batched bucket FFT, and exactly sparse signals are
decoded, solved and certified on the next loop (folded plain only)
without voting.  Loop 0 is screened signal by signal on its plain fold
before any shifted fold.  The signals it does not certify run the paper's
steps on the voting plan (today's ``B`` and filter, built when a signal
first votes), one voter at a time, so only one signal's ``(L, B)`` rows
are alive:

1-2. permute + filter + fold, one gather per loop through the voting
     workspace (:meth:`~repro.core.workspace.PlanWorkspace.bin_fused`);
     loop 0's fold is the screen's when both plans are one;
3.   one batched ``(L, B)`` bucket FFT;
4.   one batched top-k over the ``v_loops`` voting rows
     (:func:`~repro.core.cutoff.cutoff_rows`);
5.   sort-count voting, one sort over the candidate keys, with no
     length-``n`` score array
     (:func:`~repro.core.recovery.recover_locations`);
6.   median magnitude reconstruction
     (:func:`~repro.core.estimation.estimate_values`).

Every stage is per-signal independent, so row ``s`` of a stack — whole,
sharded, or alone — gives bit-identical results.  The ``stage`` hook is
the one timing path: the driver, the benchmarks and the executor clock the
same :data:`STEP_NAMES` spans through it.  Phase location clocks its folds
as ``perm_filter``, its live-bucket selection as ``cutoff``, its peeling
and decoding as ``recovery`` and its value solve and refinement as
``estimation``.

The public batch entry point is :func:`repro.core.variants.sfft_batch`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from ..analysis.staticcheck.contracts import shape_contract
from ..errors import ParameterError, RecoveryError
from ..obs import (
    MetricsRegistry,
    Tracer,
    count_locations,
    emit_sfft_metrics,
    global_registry,
)
from ..utils.rng import RngLike
from ..utils.validation import as_complex_signal
from .comb import comb_approved_residues
from .cutoff import cutoff_rows
from .estimation import estimate_values
from .phase import CERTIFICATE_FAILS, FOUND_CAP, PhaseStack
from .plan import SfftPlan
from .recovery import recover_locations

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
        Per recovered frequency, the loops that confirmed it.  For a
        voted signal: its location-loop vote count.  For a signal
        located by phase (:mod:`repro.core.phase`): the loop it was
        decoded in plus every later loop it was peeled from, the
        certifying loop included.
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
        """Restrict to the ``k`` largest-magnitude coefficients.

        ``k = 0`` gives an empty result; a negative ``k`` raises
        :class:`~repro.errors.ParameterError`.
        """
        if k < 0:
            raise ParameterError(f"top(k) needs k >= 0, got {k}")
        if k >= self.k_found:
            return self
        # Slice from k_found - k, not -k: [-0:] would keep everything.
        order = np.argpartition(np.abs(self.values), -k)[self.k_found - k:]
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


def reject_non_finite(per_signal, problem: str, signal_offset: int = 0,
                      ids=None) -> None:
    """Raise :class:`~repro.errors.ParameterError` naming the first signal
    whose array in ``per_signal`` holds a NaN or inf.

    ``ids`` are the stack rows the arrays belong to (default: 0, 1, ...).
    The engine calls it on the folded buckets right after each fold
    instead of on the ``(S, n)`` input: bucket reads, not ``S*n``, and
    nothing is lost — every sample the transform reads is multiplied into
    some bucket (a NaN or inf times a zero tap is still NaN), and samples
    it never reads cannot affect the result.  A second call on the
    ``S*k`` estimates rejects finite input whose spectrum overflows
    ``float64``.
    """
    if isinstance(per_signal, np.ndarray) and np.isfinite(per_signal).all():
        return
    for s, row in zip(count() if ids is None else ids, per_signal):
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


_UNCLOCKED = nullcontext()


def _no_stage(name: str, **attrs):
    """The ``stage`` hook of an unclocked run (one shared null context)."""
    return _UNCLOCKED


@shape_contract("X:(S, n):complex128, plan:* -> *", bind={"n": "plan.n"})
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
    default is the plan's cached workspace, whose FFT backend binding is
    resolved once per call.  Phase location runs on the workspace's plan
    and voting on its
    :attr:`~repro.core.workspace.PlanWorkspace.voting` workspace.
    ``signal_offset`` shifts signal indices in
    ``strict`` error messages so shard errors name the global stack row.
    ``stage`` is an optional ``stage(name, **attrs)`` callable returning a
    context manager, used to clock each stage (the driver and the
    executor emit their spans through it).  ``metrics``
    receives each signal's ``sfft.*`` metrics (bucket occupancy, pre-trim
    hits and votes, collisions; ``B`` is the bucket count of the route
    that located it); ``None`` publishes none of those.

    Signals are located by phase first (:mod:`repro.core.phase`); those
    it does not certify — and every signal of a run with Comb masks, which
    only screen voting — run the cutoff, voting and median estimation on
    the voting plan, one signal at a time.
    How many signals took each route is always counted, in ``metrics`` or
    else the global registry, as ``sfft.location.phase`` and
    ``sfft.location.vote``.
    """
    S = X.shape[0]
    ws = plan.workspace() if workspace is None else workspace
    backend = ws.backend()
    stage = stage or _no_stage

    found, folds0 = {}, None
    if residue_filters is None:
        found, folds0 = _locate_by_phase(X, ws, backend, stage,
                                         signal_offset)
    n_phase = len(found)
    voters = [s for s in range(S) if s not in found]
    if voters:
        # Built only when a signal votes; ``ws`` itself on a plan with one
        # route.
        vote_ws = ws.voting
        for s in voters:
            found[s] = _locate_by_vote(
                X, s, vote_ws, backend, stage, signal_offset,
                first_fold=None if folds0 is None else folds0[s],
                cutoff_method=cutoff_method,
                residue_filter=None if residue_filters is None
                else residue_filters[s],
                strict=strict,
            )
    reject_non_finite((found[s][1] for s in range(S)), OVERFLOWING_INPUT,
                      signal_offset)

    count_locations(global_registry() if metrics is None else metrics,
                    phase=n_phase, vote=S - n_phase)
    results = []
    for s in range(S):
        hits, values, votes, selected_sizes, loops, B = found[s]
        if metrics is not None:
            emit_sfft_metrics(
                metrics, B=B, n=plan.n, selected_sizes=selected_sizes,
                hits=hits, votes=votes, permutations=plan.permutations[:loops],
            )
        res = SparseFFTResult(
            n=plan.n, locations=hits, values=values, votes=votes
        )
        results.append(res.top(plan.k) if trim_to_k else res)
    return results


def _locate_by_phase(X, ws, backend, stage, signal_offset):
    """Phase-first location in lockstep rounds over the stack, on the
    workspace's plan (the phase plan).

    Round ``r`` folds loop ``r`` for every signal still running and
    transforms the folds in one batched bucket FFT.  Loop 0 screens each
    signal on its plain fold first and folds it shifted only if it passes
    (:func:`_fold_screened`); signals that look noisy go to voting.
    Signals with ``k`` coefficients found have their values solved and
    fold the next loop plain only: it certifies those it finds empty once
    they are peeled, and only a failed certificate folds it shifted too
    (a second gather of the loop).  The others fold plain and shifted,
    select their live buckets and decode (see
    :class:`~repro.core.phase.PhaseStack`).  A signal leaves for voting
    when its solve does not converge, when its certificate fails for the
    :data:`~repro.core.phase.CERTIFICATE_FAILS`-th time, or when a decode
    round leaves it with more than :data:`~repro.core.phase.FOUND_CAP`
    times ``k`` coefficients.  Returns ``{s: (hits, values, votes, live
    sizes, loops, B)}`` for the certified signals, and the ``(S, B)``
    plain loop-0 folds when the phase plan is the voting plan (voting
    starts from them), else ``None``.  With two plans the values are
    refined over every consumed loop instead (see
    :class:`~repro.core.phase.PhaseStack`).
    """
    plan = ws.plan
    B, L, k = plan.params.B, plan.params.loops, plan.params.k
    one_plan = ws.voting_plan is plan
    phase = PhaseStack(plan, X.shape[0], refine=not one_plan)
    fails = np.zeros(X.shape[0], dtype=np.int64)
    located = []
    running, U, V, folds0 = _fold_screened(X, ws, backend, phase, stage,
                                           signal_offset, one_plan)
    certifying = np.zeros(running.size, dtype=bool)
    for r in range(L):
        if not running.size:
            break
        if r:
            ready = running[phase.count[running] >= k]
            if ready.size:
                with stage("estimation", hits=int(phase.count[ready].sum())):
                    phase.solve(ready)
                running = running[(phase.count[running] < k)
                                  | phase.solved[running]]
                if not running.size:
                    break
            certifying = phase.solved[running]
            rows = _fold_loop(X, ws, backend, running, r, ~certifying,
                              stage, signal_offset)
            U, V = rows[:running.size], rows[running.size:]
        A = running.size
        with stage("recovery", loops=1, signals=A):
            U, done, spread = phase.peel(running, r, U)
        located += running[done].tolist()
        if done.all():
            break
        leave = done
        if certifying.any():
            # Align V with running: a certified signal keeps a zero row.
            full = np.zeros((A, B), dtype=np.complex128)
            full[~certifying] = V
            failed = certifying & ~done
            fails[running[failed]] += 1
            leave = done | (fails[running] >= CERTIFICATE_FAILS)
            failed &= ~leave
            if failed.any():
                ids = running[failed]
                full[failed] = _fold_loop(
                    X, ws, backend, ids, r, np.ones(ids.size, dtype=bool),
                    stage, signal_offset, plain=False,
                )
            V = full
        with stage("cutoff", method="phase"):
            live, mags = phase.cutoff(running, U, leave)
        with stage("recovery", loops=1, signals=A):
            V = phase.peel_shifted(V, spread)
            phase.decode(running, r, U, V, live, mags)
        running = running[~leave]
        running = running[phase.count[running] <= FOUND_CAP * k]
    found = {s: (*phase.located(s), phase.live[s], int(phase.rounds[s]), B)
             for s in located}
    return found, folds0


def _fold_screened(X, ws, backend, phase, stage, signal_offset, keep):
    """Loop 0, signal by signal: fold it plain, transform that row and
    screen it, and fold the same gathered samples shifted only if it
    passes (no sample is gathered twice).  Returns the signals that pass
    with their plain and shifted bucket FFTs, ``(A, B)`` each, and with
    ``keep`` every signal's plain fold ``(S, B)``, else ``None``."""
    S, B = X.shape[0], ws.B
    folds = np.empty((S if keep else 1, B), dtype=np.complex128)
    U = np.empty((S, B), dtype=np.complex128)
    V = np.empty((S, B), dtype=np.complex128)
    passed = []
    for s in range(S):
        x = X[s]
        fold = folds[s if keep else 0:][:1]
        with stage("perm_filter", signals=1, loops=1, B=B):
            samples = ws.window(x, 0)
            ws.fold(samples, out=fold[0])
        reject_non_finite(fold, NON_FINITE_INPUT, signal_offset, ids=(s,))
        with stage("bucket_fft", B=B, batch=1):
            u = ws.bucket_fft(fold, backend)
        with stage("cutoff", method="phase"):
            if not phase.screen(s, u[0]):
                continue
        i = len(passed)
        passed.append(s)
        U[i] = u[0]
        with stage("perm_filter", signals=1, loops=1, B=B, shifted=1):
            ws.fold_shifted(x, 0, samples, out=V[i])
    A = len(passed)
    if A:
        reject_non_finite(V[:A], NON_FINITE_INPUT, signal_offset,
                          ids=passed)
        with stage("bucket_fft", B=B, batch=A):
            V = ws.bucket_fft(V[:A], backend)
    return (np.array(passed, dtype=np.int64), U[:A], V[:A],
            folds if keep else None)


def _fold_loop(X, ws, backend, ids, r, shifted, stage, signal_offset, *,
               plain=True):
    """Loop ``r`` for the signals ``ids``, gathered once each: folded
    plain (unless ``plain`` is false) and, from the same samples, shifted
    for those ``shifted`` marks; one finiteness check and one bucket FFT
    over all the folds.  Returns their bucket FFTs, plain rows first (one
    per signal) then shifted rows (one per marked signal)."""
    ids, shifted = ids.tolist(), shifted.tolist()
    A = len(ids) if plain else 0
    P = sum(shifted)
    folds = np.empty((A + P, ws.B), dtype=np.complex128)
    row_ids = ids[:A]
    with stage("perm_filter", signals=len(ids), loops=1, B=ws.B, shifted=P):
        for i, (s, sh) in enumerate(zip(ids, shifted)):
            samples = ws.window(X[s], r)
            if plain:
                ws.fold(samples, out=folds[i])
            if sh:
                ws.fold_shifted(X[s], r, samples, out=folds[len(row_ids)])
                row_ids.append(s)
    reject_non_finite(folds, NON_FINITE_INPUT, signal_offset, ids=row_ids)
    with stage("bucket_fft", B=ws.B, batch=A + P):
        return ws.bucket_fft(folds, backend)


def _locate_by_vote(X, s, ws, backend, stage, signal_offset, *, first_fold,
                    cutoff_method, residue_filter, strict):
    """The paper's steps 1-6 for signal ``s`` on the voting workspace
    ``ws``: all ``L`` loops folded (loop 0 given as ``first_fold`` when
    phase location made it on the same plan), transformed, cut off, voted
    and estimated, holding one signal's ``(L, B)`` rows.  Returns ``(hits,
    values, votes, cutoff sizes, voting loops, B)``."""
    plan = ws.plan
    params = plan.params
    B, L, v_loops = params.B, params.loops, params.voting_loops

    # Steps 1-2: one gather + fold per loop.
    rows = np.empty((L, B), dtype=np.complex128)
    with stage("perm_filter", signals=1, loops=L, B=B):
        if first_fold is None:
            ws.bin_fused(X[s], out=rows)
        else:
            rows[0] = first_fold
            if L > 1:
                ws.bin_fused(X[s], out=rows[1:], first=1)
    reject_non_finite(rows[None], NON_FINITE_INPUT, signal_offset, ids=(s,))

    # Step 3: one (L, B) batched bucket FFT.
    with stage("bucket_fft", B=B, batch=L):
        rows = ws.bucket_fft(rows, backend)

    # Step 4: batched cutoff over the voting-loop rows.
    with stage("cutoff", method=cutoff_method):
        selected = cutoff_rows(np.abs(rows[:v_loops]), params.select_count,
                               method=cutoff_method)

    # Step 5: sort-count voting.
    with stage("recovery", loops=v_loops):
        hits, votes = recover_locations(
            selected, list(plan.permutations[:v_loops]), B,
            params.vote_threshold, residue_filter=residue_filter,
        )
    if strict and hits.size < params.k:
        raise RecoveryError(
            f"signal {signal_offset + s}: recovered only "
            f"{hits.size} of k={params.k} coefficients"
        )

    # Step 6: median magnitude reconstruction.
    with stage("estimation", hits=int(hits.size)):
        values = estimate_values(hits, rows, list(plan.permutations),
                                 plan.filt, B)
    return (hits, values, votes, [int(sel.size) for sel in selected],
            v_loops, B)


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
