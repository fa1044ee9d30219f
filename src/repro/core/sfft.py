"""The sparse FFT driver — paper Section III end-to-end (CPU reference).

This is the orchestrator that strings the six steps together:

1-2. permute + filter + fold into buckets  (:mod:`~repro.core.binning`)
3.   batched ``B``-point FFT               (:mod:`~repro.core.subsampled`)
4.   cutoff                                (:mod:`~repro.core.cutoff`)
5.   reverse hash + voting                 (:mod:`~repro.core.recovery`)
6.   median magnitude reconstruction       (:mod:`~repro.core.estimation`)

It doubles as the profiling harness behind Figure 2: with ``profile=True``
it wall-clocks each step, which is how the paper identified perm+filter as
the dominant cost.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError, RecoveryError
from ..obs import MetricsRegistry, Tracer, emit_sfft_metrics, global_registry
from ..utils.rng import RngLike
from ..utils.validation import as_complex_signal
from .binning import bin_loop_partition, bin_serial, bin_vectorized
from .comb import comb_approved_residues
from .cutoff import cutoff_rows
from .estimation import estimate_values
from .params import resolve_sfft_config
from .plan import SfftPlan
from .plan_cache import cached_plan
from .recovery import recover_locations
from .subsampled import bucket_fft

__all__ = ["SparseFFTResult", "sfft", "STEP_NAMES"]

STEP_NAMES = ("perm_filter", "bucket_fft", "cutoff", "recovery", "estimation")

_BINNERS = {
    "serial": bin_serial,
    "vectorized": bin_vectorized,
    "loop_partition": bin_loop_partition,
}


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
        Wall-clock seconds per pipeline step when profiling was requested,
        else ``None``.  A view over ``trace``: each step's spans summed.
        Includes a ``"comb"`` entry when the sFFT-2.0 pre-filter ran.
    trace:
        The :class:`~repro.obs.Tracer` that clocked the run (profiling
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


def sfft(
    x,
    k: int | None = None,
    *,
    plan: SfftPlan | None = None,
    seed: RngLike = None,
    binning: str = "vectorized",
    cutoff_method: str = "topk",
    comb_width: int | None = None,
    comb_loops: int = 3,
    trim_to_k: bool = True,
    strict: bool = False,
    profile: bool = False,
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
        process-level plan cache (with ``seed`` / ``plan_overrides``) when
        omitted, so repeat convenience calls of one shape pay filter
        synthesis once — see :mod:`repro.core.plan_cache`.
    binning:
        ``"vectorized"`` (default), ``"loop_partition"`` (mirrors the GPU
        kernel), or ``"serial"`` (Algorithm 1 verbatim; slow, tests only).
        The default runs through the plan's fused execution workspace
        (:mod:`repro.core.workspace`): one gather + fold for all ``L``
        loops through the plan's precomputed index matrix.
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
    profile:
        Record per-step wall-clock times in the result (as spans on a
        :class:`~repro.obs.Tracer`, surfaced through ``step_times``).
    tracer:
        Record spans into this tracer instead of a fresh one (implies
        profiling); lets a run-scoped trace hold many transforms.
    metrics:
        Registry receiving the ``sfft.*`` metrics (bucket occupancy,
        recovery votes/hits, collisions).  Defaults to
        :func:`repro.obs.global_registry` when profiling is active.
    verify:
        Debugging aid: additionally compute the dense FFT and raise
        :class:`~repro.errors.RecoveryError` unless the recovered support
        matches its top-``k`` (costs ``O(n log n)`` — development only).

    Returns
    -------
    SparseFFTResult
    """
    if binning not in _BINNERS:
        raise ParameterError(
            f"unknown binning {binning!r}; choose from {sorted(_BINNERS)}"
        )
    binner = _BINNERS[binning]

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
        x = as_complex_signal(x, plan.n)
        if k is None:
            k = plan.k
    params = plan.params
    B, L = params.B, params.loops

    profiling = profile or tracer is not None
    if profiling and tracer is None:
        tracer = Tracer()
    span_start = len(tracer.spans) if profiling else 0

    def step(name: str, **attrs):
        return tracer.span(name, category="sfft", **attrs) if profiling \
            else nullcontext()

    # Optional sFFT-2.0 Comb screen — timed as its own step so Figure-2
    # style breakdowns account for every stage that ran.
    residue_filter = None
    if comb_width is not None:
        with step("comb", W=comb_width, loops=comb_loops):
            residue_filter = comb_approved_residues(
                x, comb_width, params.k, loops=comb_loops, seed=seed
            )

    # Steps 1-2: permutation + filter + fold, one row per loop.  The
    # default binning runs fused through the plan workspace (one gather for
    # all loops); the explicit binner variants keep their per-loop
    # structure for kernel-shape fidelity.  The fusion
    # only engages while the dispatch entry is the stock binner, so
    # patching ``_BINNERS["vectorized"]`` (tests inject slow/instrumented
    # binners there) still takes effect.
    ws = plan.workspace() if binner is bin_vectorized else None
    with step("perm_filter", loops=L, B=B):
        if ws is not None:
            raw = ws.bin_fused(x)
        else:
            raw = np.empty((L, B), dtype=np.complex128)
            for r, perm in enumerate(plan.permutations):
                raw[r] = binner(x, plan.filt, B, perm)
    reject_non_finite(raw[None], NON_FINITE_INPUT)

    # Step 3: batched B-point FFT.
    with step("bucket_fft", B=B, batch=L):
        rows = bucket_fft(raw)

    # Step 4: cutoff — only the voting loops need it (the reference
    # implementation's location/estimation split).  One batched top-k over
    # all voting rows at once.
    v_loops = params.voting_loops
    with step("cutoff", method=cutoff_method):
        selected = cutoff_rows(
            np.abs(rows[:v_loops]), params.select_count, method=cutoff_method
        )

    # Step 5: reverse hash + voting over the location loops.
    with step("recovery", loops=v_loops):
        hits, votes = recover_locations(
            selected, list(plan.permutations[:v_loops]), B,
            params.vote_threshold, residue_filter=residue_filter,
        )

    if strict and hits.size < params.k:
        raise RecoveryError(
            f"recovered only {hits.size} of k={params.k} coefficients"
        )

    # Step 6: magnitude reconstruction.
    with step("estimation", hits=int(hits.size)):
        values = estimate_values(
            hits, rows, list(plan.permutations), plan.filt, B
        )
    reject_non_finite(values[None], OVERFLOWING_INPUT)

    times: dict[str, float] | None = None
    if profiling:
        emit_sfft_metrics(
            metrics if metrics is not None else global_registry(),
            B=B,
            n=params.n,
            selected_sizes=[int(s.size) for s in selected],
            hits=hits,
            votes=votes,
            permutations=list(plan.permutations[:v_loops]),
        )
        # step_times is a view over this call's spans: same keys as the
        # old accumulating clock, plus "comb" when the pre-filter ran.
        by_name: dict[str, float] = {}
        for sp in tracer.spans[span_start:]:
            if sp.category == "sfft":
                by_name[sp.name] = by_name.get(sp.name, 0.0) + sp.duration_s
        times = {name: by_name.get(name, 0.0) for name in STEP_NAMES}
        if "comb" in by_name:
            times = {"comb": by_name["comb"], **times}

    result = SparseFFTResult(
        n=params.n,
        locations=hits,
        values=values,
        votes=votes,
        step_times=times,
        trace=tracer if profiling else None,
    )
    if trim_to_k:
        result = result.top(params.k)
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
