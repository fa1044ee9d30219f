"""Sharded, pipelined batch execution — the paper's stream overlap on CPU.

cusFFT's optimization #3 runs the data-layout remap kernel of chunk *i+1*
on one CUDA stream while the execution kernel of chunk *i* occupies another
(DESIGN §1, table row 3).  This module reproduces that structure for the
batched engine: an ``(S, n)`` signal stack is split into **shards**, and a
:class:`ShardedExecutor` drives each shard through the fused stage pipeline
(:func:`~repro.core.batch.run_stack_pipeline` — gather/bin → bucket FFT →
cutoff → recovery → estimation) on a worker pool.

Two execution modes share one contract:

* ``mode="thread"`` — a thread pool.  NumPy releases the GIL inside the
  large fancy-indexed gathers and the pocketfft bucket FFT, so with two or
  more workers shard *i*'s bucket FFT genuinely overlaps shard *i+1*'s
  gather — but the pure-Python stage orchestration still serializes on the
  GIL.
* ``mode="process"`` — a warm **forkserver process pool** over
  ``multiprocessing.shared_memory``.  The signal stack and the plan's
  immutable derived arrays (gather-index matrix, padded taps) are packed
  into segments once (:mod:`repro.core.shm`); workers attach zero-copy,
  hold a private per-process plan/workspace lease, run their shards, and
  write result rows straight into a shared output segment.  Nothing
  Python-level is shared, so shards scale past the GIL — the mode that
  makes the paper's "saturate every lane" structure real on multi-core
  hosts.  Pools are cached per ``(workers, start_method)`` and stay warm
  across runs; segments are per-run and are **always unlinked** before
  :meth:`ShardedExecutor.run` returns, success or failure.

Correctness is structural, not approximate: every pipeline stage is
per-signal independent (the property suite asserts it), so running rows
``[lo:hi]`` as a shard is *bit-identical* to the same rows of one
whole-stack :func:`~repro.core.batch.sfft_batch_fused` pass, for every
mode, worker count, shard size, and FFT backend.

Concurrency hygiene mirrors the GPU resource model:

* thread workers share one :meth:`PlanWorkspace.clone
  <repro.core.workspace.PlanWorkspace.clone>` bound to the executor's FFT
  backend; each process worker rebuilds it from shared memory
  (:meth:`PlanWorkspace.adopt_shared`).  The workspace holds only
  immutable gather / tap matrices and every stage allocates its own
  output, so no worker can see another's intermediate data;
* the bucket FFT resolves through the pluggable backend registry
  (:mod:`repro.core.fft_backend`), so ``scipy``'s ``workers=`` fan-out (or
  ``pyfftw`` threads) can parallelize *within* a shard while the pool
  parallelizes *across* shards;
* Comb masks (data-dependent, possibly Generator-seeded) are built
  serially in stack order before sharding, so seeding semantics match the
  serial engine exactly — in every mode and under every start method.

Observability: each shard's stage spans land on its worker's trace track
(``worker0``, ``worker1``, ... — mirroring the simulator's per-stream
tracks, so Perfetto shows the overlap), all nested under one
``executor.run`` root span on the ``executor`` track; every span carries
the DAG metadata the critical-path engine (:mod:`repro.obs.critical`)
reconstructs runs from — ``shard`` / ``worker`` ids, a ``parent`` link,
and the shard's measured ``queue_wait_s``.  Process workers clock their
stages on the same ``CLOCK_MONOTONIC`` timebase the parent uses and ship
the timings home in the task result, so the merged trace is
indistinguishable from thread mode.  Every run also publishes the
``sfft.executor.*`` metrics family: shard/signal counts, queue wait (as a
histogram *and* ``queue_wait_p50_s``/``p90``/``p99`` tail gauges),
per-shard wall, the achieved overlap ratio (total busy seconds over
elapsed wall, clamped to ``[0, workers]``), the shared-workspace footprint
(``workspace_shared_bytes``) and, in process mode, the shared-segment
footprint (``shm_bytes``) plus a ``worker_failures`` counter that ticks
when a worker process dies mid-run (the run then raises
:class:`~repro.errors.ExecutorError` after unlinking every segment).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import queue
import signal as _signal
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager

import numpy as np

from ..analysis.staticcheck.contracts import shape_contract
from ..errors import ExecutorError, ParameterError
from ..obs import MetricsRegistry, Tracer, global_registry, monotonic
from ..utils.rng import RngLike
from .batch import (
    SparseFFTResult,
    as_signal_stack,
    comb_masks_for_stack,
    run_stack_pipeline,
)
from .fft_backend import get_backend
from .plan import SfftPlan
from .shm import (
    AttachedSegment,
    PlanDescriptor,
    SegmentBundle,
    SharedArraySpec,
    describe_plan,
    plan_shared_arrays,
    worker_lease,
)

__all__ = ["ShardedExecutor", "EXECUTOR_TRACK", "EXECUTOR_MODES"]

#: Trace track label for executor-level (non-shard) spans.
EXECUTOR_TRACK = "executor"

#: The executor's execution-mode axis.
EXECUTOR_MODES = ("thread", "process")

#: Environment default for :class:`ShardedExecutor`'s ``mode`` (CI runs the
#: whole executor battery under ``REPRO_EXECUTOR_MODE=process``).
MODE_ENV = "REPRO_EXECUTOR_MODE"

#: Test-only fault injection: a shard index whose worker process kills
#: itself (``SIGKILL``) before touching any shared state.  Read in the
#: *parent* at run time and shipped in the task payload, so it works even
#: against an already-warm pool.
_KILL_ENV = "REPRO_EXECUTOR_KILL_SHARD"

_START_METHODS = ("fork", "forkserver", "spawn")

#: Warm process pools, keyed ``(workers, start_method)``.  Forkserver
#: workers import this module once and then stay resident, so repeat runs
#: pay no spawn cost — the "warm pool" half of the process mode.
_PROCESS_POOLS: dict[tuple[int, str], ProcessPoolExecutor] = {}


def _process_pool(workers: int, start_method: str) -> ProcessPoolExecutor:
    key = (workers, start_method)
    pool = _PROCESS_POOLS.get(key)
    if pool is None:
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(start_method),
        )
        _PROCESS_POOLS[key] = pool
    return pool


def _discard_pool(workers: int, start_method: str) -> None:
    """Drop a (presumed broken) pool so the next run gets a fresh one."""
    pool = _PROCESS_POOLS.pop((workers, start_method), None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def _shutdown_pools() -> None:
    while _PROCESS_POOLS:
        _, pool = _PROCESS_POOLS.popitem()
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(_shutdown_pools)


@contextmanager
def _worker_stage(spans: list, name: str, attrs: dict):
    t0 = monotonic()
    try:
        yield
    finally:
        spans.append((name, t0, monotonic(), attrs))


@shape_contract("desc:*, data_specs:* -> *")
def _process_shard(
    desc: PlanDescriptor,
    data_specs: dict[str, SharedArraySpec],
    idx: int,
    lo: int,
    hi: int,
    options: dict,
    want_stages: bool,
    kill: bool,
):
    """One shard, executed inside a pool worker process.

    Attaches the run's data segment, runs the pipeline against the
    worker's cached plan lease, writes result rows into the shared output
    arrays (or returns them pickled when the run asked for untrimmed
    results), and ships stage timings home on the parent's monotonic
    timebase.  Raises exactly what the pipeline raises — a strict
    :class:`~repro.errors.RecoveryError` crosses the process boundary
    naming the same global signal index.
    """
    t_pick = monotonic()
    if kill:
        # Fault injection for the crash tests: die the hard way, before
        # touching any shared state, exactly like an OOM-killed worker.
        os.kill(os.getpid(), _signal.SIGKILL)
    lease = worker_lease(desc)
    spans: list = []
    stage = None
    if want_stages:
        def stage(name, **attrs):
            return _worker_stage(spans, name, attrs)
    data = AttachedSegment(data_specs["stack"].segment)
    try:
        stack = data.view(data_specs["stack"])
        masks = None
        if "masks" in data_specs:
            masks = data.view(data_specs["masks"])
        out = run_stack_pipeline(
            stack[lo:hi], lease.plan,
            workspace=lease.workspace,
            cutoff_method=options["cutoff_method"],
            residue_filters=None if masks is None else masks[lo:hi],
            trim_to_k=options["trim_to_k"],
            strict=options["strict"],
            signal_offset=lo,
            stage=stage,
        )
        if "out_locations" in data_specs:
            out_locs = data.view(data_specs["out_locations"], writeable=True)
            out_vals = data.view(data_specs["out_values"], writeable=True)
            out_votes = data.view(data_specs["out_votes"], writeable=True)
            out_counts = data.view(data_specs["out_counts"], writeable=True)
            for j, res in enumerate(out):
                s = lo + j
                c = res.locations.size
                out_counts[s] = c
                out_locs[s, :c] = res.locations
                out_vals[s, :c] = res.values
                out_votes[s, :c] = res.votes
            results = None
        else:
            # Untrimmed runs have no per-signal size bound, so the shared
            # (S, k) output layout cannot hold them; fall back to pickling.
            results = [(r.locations, r.values, r.votes) for r in out]
    finally:
        data.close()
    return {
        "pid": os.getpid(),
        "t_pick": t_pick,
        "t_end": monotonic(),
        "stages": spans,
        "results": results,
    }


class ShardedExecutor:
    """Drives signal stacks through the pipeline on a sharded worker pool.

    Parameters
    ----------
    workers:
        Pool width.  ``1`` degenerates to serial execution through the
        identical code path (useful as a like-for-like baseline).
    shard_size:
        Signals per shard.  Default: ``ceil(S / (2 * workers))`` — two
        shards per worker, so the pool always has a queued shard to start
        the moment a worker's current shard finishes (the double-buffering
        that makes gather/FFT overlap continuous rather than lockstep).
    fft_backend:
        Registered FFT backend name for the shards' bucket FFTs (``None``
        = process default, see :mod:`repro.core.fft_backend`).  Unknown
        names raise :class:`~repro.errors.ParameterError` here, at
        construction.
    fft_workers:
        Intra-call thread fan-out handed to the backend (scipy/pyfftw).
    mode:
        ``"thread"`` (GIL-bound pool, zero setup cost) or ``"process"``
        (shared-memory process pool — scales Python-level stage work
        across cores).  ``None`` reads the ``REPRO_EXECUTOR_MODE``
        environment variable, defaulting to ``"thread"``.  Results are
        bit-identical across modes.
    start_method:
        Multiprocessing start method for ``mode="process"`` pools
        (default ``"forkserver"`` — fork-speed workers without inheriting
        the parent's full heap; ``"fork"`` and ``"spawn"`` are accepted
        where the platform offers them).

    Instances are reusable across runs and stacks; each :meth:`run` leases
    per-worker workspace state for its plan, and process pools stay warm
    between runs.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        shard_size: int | None = None,
        fft_backend: str | None = None,
        fft_workers: int = 1,
        mode: str | None = None,
        start_method: str = "forkserver",
    ):
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        if shard_size is not None and shard_size < 1:
            raise ParameterError(
                f"shard_size must be >= 1 (or None), got {shard_size}"
            )
        if fft_workers < 1:
            raise ParameterError(
                f"fft_workers must be >= 1, got {fft_workers}"
            )
        if fft_backend is not None:
            get_backend(fft_backend)  # unknown names fail fast, here
        if mode is None:
            mode = os.environ.get(MODE_ENV) or "thread"
        if mode not in EXECUTOR_MODES:
            raise ParameterError(
                f"mode must be one of {EXECUTOR_MODES}, got {mode!r}"
            )
        if start_method not in _START_METHODS:
            raise ParameterError(
                f"start_method must be one of {_START_METHODS}, "
                f"got {start_method!r}"
            )
        if mode == "process" \
                and start_method not in multiprocessing.get_all_start_methods():
            raise ParameterError(
                f"start_method {start_method!r} is unavailable on this "
                f"platform"
            )
        self.workers = int(workers)
        self.shard_size = None if shard_size is None else int(shard_size)
        self.fft_backend = fft_backend
        self.fft_workers = int(fft_workers)
        self.mode = mode
        self.start_method = start_method

    def __repr__(self) -> str:
        return (
            f"ShardedExecutor(workers={self.workers}, "
            f"shard_size={self.shard_size}, "
            f"fft_backend={self.fft_backend!r}, "
            f"fft_workers={self.fft_workers}, "
            f"mode={self.mode!r})"
        )

    @shape_contract("S:* -> *")
    def shard_bounds(self, S: int) -> list[tuple[int, int]]:
        """The ``[lo, hi)`` row ranges this executor splits ``S`` rows into."""
        if S < 1:
            raise ParameterError(f"stack must have >= 1 signals, got {S}")
        size = self.shard_size
        if size is None:
            size = max(1, -(-S // (2 * self.workers)))
        return [(lo, min(lo + size, S)) for lo in range(0, S, size)]

    @shape_contract("X:*, plan:* -> *", bind={"n": "plan.n"})
    def run(
        self,
        X: np.ndarray,
        plan: SfftPlan,
        *,
        cutoff_method: str = "topk",
        comb_width: int | None = None,
        comb_loops: int = 3,
        trim_to_k: bool = True,
        strict: bool = False,
        seed: RngLike = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> list[SparseFFTResult]:
        """Transform an ``(S, n)`` stack; results match the serial engine.

        Execution options mirror :func:`~repro.core.batch.sfft_batch_fused`
        (which also defines the reference output this method is
        bit-identical to, in both modes).  ``tracer`` receives per-shard
        stage spans on per-worker tracks; ``metrics`` (default: the global
        registry) receives the ``sfft.executor.*`` family.

        In process mode a worker death surfaces as
        :class:`~repro.errors.ExecutorError` — after every shared segment
        has been unlinked and the broken pool discarded (the next run
        builds a fresh one).
        """
        X = as_signal_stack(X, plan)
        S = X.shape[0]
        registry = metrics if metrics is not None else global_registry()
        bounds = self.shard_bounds(S)
        nw = min(self.workers, len(bounds))
        run_t0 = monotonic()

        masks = None
        if comb_width is not None:
            # Serial, in stack order: Generator seeds must draw the same
            # permutation sequence the serial engine would — regardless of
            # mode or start method.
            t0 = monotonic()
            masks = comb_masks_for_stack(
                X, plan, comb_width, comb_loops, seed
            )
            if tracer is not None:
                tracer.add_span(
                    "comb", start_s=t0 - run_t0,
                    duration_s=monotonic() - t0,
                    category="executor", track=EXECUTOR_TRACK, depth=1,
                    attrs={"W": comb_width, "loops": comb_loops,
                           "parent": "executor.run"},
                )

        if self.mode == "process":
            results, waits, busys = self._run_processes(
                X, plan, bounds=bounds, nw=nw, masks=masks, run_t0=run_t0,
                registry=registry, tracer=tracer,
                cutoff_method=cutoff_method, trim_to_k=trim_to_k,
                strict=strict,
            )
        else:
            results, waits, busys = self._run_threads(
                X, plan, bounds=bounds, nw=nw, masks=masks, run_t0=run_t0,
                registry=registry, tracer=tracer,
                cutoff_method=cutoff_method, trim_to_k=trim_to_k,
                strict=strict,
            )

        wall = monotonic() - run_t0
        if tracer is not None:
            # Root of the span DAG: every comb/shard/stage span carries a
            # `parent` attr pointing (transitively) here, and the critical
            # path engine charges otherwise-uncovered intervals to this
            # span rather than to "(idle)".
            tracer.add_span(
                "executor.run", start_s=0.0, duration_s=wall,
                category="executor", track=EXECUTOR_TRACK,
                attrs={"workers": nw, "shards": len(bounds), "signals": S,
                       "mode": self.mode},
            )
        registry.gauge("sfft.executor.workers").set(nw)
        registry.counter("sfft.executor.shards").inc(len(bounds))
        registry.counter("sfft.executor.signals").inc(S)
        wait_hist = registry.histogram("sfft.executor.queue_wait_s")
        wait_hist.observe_many(waits)
        # Tail visibility for the attribution layer: the histogram's sum
        # hides whether queue wait is spread thin or one shard starved.
        for q, suffix in ((50, "p50"), (90, "p90"), (99, "p99")):
            registry.gauge(f"sfft.executor.queue_wait_{suffix}_s").set(
                wait_hist.percentile(q)
            )
        registry.histogram("sfft.executor.shard_wall_s").observe_many(busys)
        registry.histogram("sfft.executor.run_wall_s").observe(wall)
        # Busy-over-wall: 1.0 is perfectly serial, > 1.0 means shards
        # genuinely overlapped.  Clamped to [0, workers] so timer jitter
        # cannot report impossible overlap (in particular a 1-worker run
        # can never exceed 1.0, keeping attribution ratios well-posed);
        # a degenerate zero-wall run reports 0.0.
        overlap = sum(busys) / wall if wall > 0 else 0.0
        registry.gauge("sfft.executor.overlap_ratio").set(
            min(max(0.0, overlap), float(nw))
        )
        return results

    # -- thread mode ---------------------------------------------------------

    def _run_threads(
        self, X, plan, *, bounds, nw, masks, run_t0, registry, tracer,
        cutoff_method, trim_to_k, strict,
    ):
        # One workspace for every worker: it holds only immutable
        # gather/tap arrays plus this executor's FFT-backend binding.  The
        # queue hands out worker ids, which name the trace tracks.
        base = plan.workspace()
        ws = base.clone(
            fft_backend=self.fft_backend, fft_workers=self.fft_workers,
        )
        pool: queue.SimpleQueue = queue.SimpleQueue()
        for w in range(nw):
            pool.put(w)
        base_mem = base.memory_breakdown()
        registry.gauge("sfft.executor.workspace_shared_bytes").set(
            base_mem["gather_bytes"] + base_mem["tap_bytes"]
        )

        @contextmanager
        def _stage_span(name: str, track: str, attrs: dict):
            t0 = monotonic()
            try:
                yield
            finally:
                tracer.add_span(
                    name, start_s=max(0.0, t0 - run_t0),
                    duration_s=monotonic() - t0,
                    category="executor", track=track, depth=1, attrs=attrs,
                )

        def _task(idx: int, lo: int, hi: int, submit_t: float):
            t_pick = monotonic()
            w = pool.get()
            track = f"worker{w}"
            stage = None
            if tracer is not None:
                def stage(name, **attrs):
                    return _stage_span(
                        f"shard{idx}.{name}", track,
                        {"shard": idx, "worker": w,
                         "parent": f"shard{idx}", **attrs},
                    )
            try:
                out = run_stack_pipeline(
                    X[lo:hi], plan,
                    workspace=ws,
                    cutoff_method=cutoff_method,
                    residue_filters=None if masks is None else masks[lo:hi],
                    trim_to_k=trim_to_k,
                    strict=strict,
                    signal_offset=lo,
                    stage=stage,
                )
            finally:
                pool.put(w)
            t_end = monotonic()
            if tracer is not None:
                tracer.add_span(
                    f"shard{idx}", start_s=max(0.0, t_pick - run_t0),
                    duration_s=t_end - t_pick,
                    category="executor", track=track,
                    attrs={"signals": hi - lo, "lo": lo, "hi": hi,
                           "shard": idx, "worker": w,
                           "queue_wait_s": max(0.0, t_pick - submit_t),
                           "parent": "executor.run"},
                )
            return out, t_pick - submit_t, t_end - t_pick

        with ThreadPoolExecutor(
            max_workers=nw, thread_name_prefix="sfft-exec"
        ) as ex:
            futures = [
                ex.submit(_task, idx, lo, hi, monotonic())
                for idx, (lo, hi) in enumerate(bounds)
            ]
            # .result() re-raises the first shard failure (e.g. a strict
            # RecoveryError naming the global signal index).
            shard_outs = [f.result() for f in futures]

        waits = [max(0.0, w) for _, w, _ in shard_outs]
        busys = [busy for _, _, busy in shard_outs]
        results: list[SparseFFTResult] = []
        for out, _, _ in shard_outs:
            results.extend(out)
        return results, waits, busys

    # -- process mode --------------------------------------------------------

    def _run_processes(
        self, X, plan, *, bounds, nw, masks, run_t0, registry, tracer,
        cutoff_method, trim_to_k, strict,
    ):
        S = X.shape[0]
        k = plan.params.k
        base = plan.workspace()
        # Same accounting as thread mode: the derived arrays are shared,
        # now via shm instead of by reference.
        base_arrays = plan_shared_arrays(plan, base)  # forces gather/taps
        base_mem = base.memory_breakdown()
        registry.gauge("sfft.executor.workspace_shared_bytes").set(
            base_mem["gather_bytes"] + base_mem["tap_bytes"]
        )

        kill_raw = os.environ.get(_KILL_ENV, "")
        kill_idx = int(kill_raw) if kill_raw.lstrip("-").isdigit() else None

        plan_bundle = SegmentBundle.create(base_arrays, label="sfft-plan")
        try:
            data_arrays: dict[str, np.ndarray] = {"stack": X}
            if masks is not None:
                data_arrays["masks"] = masks
            if trim_to_k:
                # Trimmed results are bounded by k per signal, so shards
                # write straight into one shared output block.
                data_arrays["out_locations"] = np.zeros((S, k), np.int64)
                data_arrays["out_values"] = np.zeros((S, k), np.complex128)
                data_arrays["out_votes"] = np.zeros((S, k), np.int64)
                data_arrays["out_counts"] = np.zeros(S, np.int64)
            data_bundle = SegmentBundle.create(data_arrays, label="sfft-data")
        except BaseException:
            plan_bundle.close()
            raise

        desc = describe_plan(
            plan, plan_bundle.specs,
            fft_backend=self.fft_backend, fft_workers=self.fft_workers,
        )
        options = {
            "cutoff_method": cutoff_method,
            "trim_to_k": trim_to_k,
            "strict": strict,
        }
        registry.gauge("sfft.executor.shm_bytes").set(
            plan_bundle.nbytes + data_bundle.nbytes
        )

        try:
            submits: list[float] = []
            futures: list = []
            for attempt in range(2):
                pool = _process_pool(nw, self.start_method)
                submits = []
                futures = []
                broken_at_submit: BrokenProcessPool | None = None
                try:
                    for idx, (lo, hi) in enumerate(bounds):
                        submits.append(monotonic())
                        futures.append(pool.submit(
                            _process_shard, desc, data_bundle.specs, idx,
                            lo, hi, options, tracer is not None,
                            kill_idx == idx,
                        ))
                except BrokenProcessPool as exc:
                    # The pool broke while shards were still being
                    # submitted: either an earlier run's casualty left a
                    # poisoned pool in the cache, or this run's own dying
                    # worker raced the submit loop.  Either way the pool
                    # must not survive in the cache.
                    broken_at_submit = exc
                # Wait for *all* shards before raising anything: no worker
                # may attach after the segments are unlinked below.
                wait(futures)
                error = broken_at_submit or next(
                    (f.exception() for f in futures if f.exception()), None
                )
                if isinstance(error, BrokenProcessPool):
                    registry.counter("sfft.executor.worker_failures").inc()
                    _discard_pool(nw, self.start_method)
                    if broken_at_submit is not None and attempt == 0:
                        # Submit-time breakage can predate this run (a
                        # stale poisoned pool); one retry on a fresh pool
                        # separates that from a genuine worker death,
                        # which will break again and error out below.
                        continue
                    raise ExecutorError(
                        f"a worker process died mid-run "
                        f"(mode=process, workers={nw}, "
                        f"start_method={self.start_method}); shared "
                        f"segments unlinked, pool discarded"
                    ) from error
                if error is not None:
                    raise error
                break
            payloads = [f.result() for f in futures]

            # Copy result rows out of the shared output block *before* the
            # finally unlinks it.
            if trim_to_k:
                locs = np.array(data_bundle.view("out_locations"))
                vals = np.array(data_bundle.view("out_values"))
                votes = np.array(data_bundle.view("out_votes"))
                counts = np.array(data_bundle.view("out_counts"))
        finally:
            data_bundle.close()
            plan_bundle.close()

        # Merge worker telemetry: pids map to stable worker ordinals in
        # first-seen order, so traces read worker0/worker1/... exactly as
        # thread mode's do.
        ordinals: dict[int, int] = {}
        waits: list[float] = []
        busys: list[float] = []
        for idx, payload in enumerate(payloads):
            w = ordinals.setdefault(payload["pid"], len(ordinals) % nw)
            t_pick, t_end = payload["t_pick"], payload["t_end"]
            waits.append(max(0.0, t_pick - submits[idx]))
            busys.append(t_end - t_pick)
            if tracer is None:
                continue
            track = f"worker{w}"
            lo, hi = bounds[idx]
            for name, s0, s1, attrs in payload["stages"]:
                tracer.add_span(
                    f"shard{idx}.{name}", start_s=max(0.0, s0 - run_t0),
                    duration_s=s1 - s0,
                    category="executor", track=track, depth=1,
                    attrs={"shard": idx, "worker": w,
                           "parent": f"shard{idx}", **attrs},
                )
            tracer.add_span(
                f"shard{idx}", start_s=max(0.0, t_pick - run_t0),
                duration_s=t_end - t_pick,
                category="executor", track=track,
                attrs={"signals": hi - lo, "lo": lo, "hi": hi,
                       "shard": idx, "worker": w,
                       "queue_wait_s": waits[idx],
                       "parent": "executor.run"},
            )

        results: list[SparseFFTResult] = []
        if trim_to_k:
            for s in range(S):
                c = int(counts[s])
                results.append(SparseFFTResult(
                    n=plan.params.n, locations=locs[s, :c],
                    values=vals[s, :c], votes=votes[s, :c],
                ))
        else:
            for payload in payloads:
                for loc, val, vote in payload["results"]:
                    results.append(SparseFFTResult(
                        n=plan.params.n, locations=loc, values=val,
                        votes=vote,
                    ))
        return results, waits, busys
