"""Timing windows, output checks and metric assembly for one workload run.

:func:`run_workload` is the whole benchmark for one workload in the current
process.  The untraced run (``trace=False``) yields the end-to-end metrics;
the traced run (``trace=True``) yields the per-layer metrics and a
``repro.run/1`` record holding every span it kept in memory.

Every timed window is a sequence of *rounds*.  A round runs a block of calls
of each leg in turn (path under test, then its references), each block for a
fixed share of the round.  A ratio such as ``sparse_over_dense`` is taken
within each round and the median over rounds is reported, so a slow drift in
machine load moves both sides of the ratio together.
"""

from __future__ import annotations

import ctypes
import resource
import statistics
import sys
import threading
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from repro.analysis.accuracy import score_result
from repro.core import (
    STEP_NAMES,
    ShardedExecutor,
    cached_plan,
    global_plan_cache,
    resolve_sfft_config,
    sfft,
    sfft_batch,
)
from repro.dispatch import recommend_transform
from repro.obs import MetricsRegistry, Tracer, make_run_record

from workloads import (
    PLAN_SEED,
    PROBE_SEED,
    WORKLOADS,
    Inputs,
    make_inputs,
    make_path,
)

#: Set-ups per run: at least SETUP_MIN_REPS, more while under
#: SETUP_MIN_SECONDS (a cheap set-up needs many samples for a steady
#: median), never more than SETUP_MAX_REPS.  ``setup_s`` and the build
#: times are medians over them.
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 50
SETUP_MIN_SECONDS = 1.5
#: A window is split into about this many rounds (at least MIN_ROUNDS).
ROUNDS_PER_WINDOW = 30
MIN_ROUNDS = 3
#: Untraced run: share of each round per leg (path, dense, loop).
E2E_SHARES = {"path": 0.6, "dense": 0.15, "loop": 0.25}
#: Traced run: share of the run's seconds per leg; the stage window gets
#: the rest.  The executor leg is long only on the workload whose path runs
#: the executor; elsewhere it gives a short look at that workload's call.
LOOKUP_SHARE = 0.05
RACE_SHARE = 0.15
EXECUTOR_SHARE = 0.30
EXECUTOR_SHARE_BYPASSED = 0.05
#: Pool width of the executor leg and thread count of the race leg.
WORKERS = 2
RACE_INPUTS = 8
#: Computed bytes per perm_filter gather element: 8 B index, 16 B sample,
#: 16 B tap, then the 16 B product written and read back by the fold.
GATHER_BYTES_PER_ELEMENT = 72
COMPLEX_BYTES = 16
#: The vote-score scratch is int16.
SCORE_BYTES = 2
#: glibc mallopt parameters (malloc.h).
M_TRIM_THRESHOLD = -1
M_MMAP_MAX = -4
#: Measured, printed and saved, but not in BENCHMARK.json's gate.  On a
#: shared 2-vCPU VM, absolute walls moved by up to 26% between passes half
#: an hour apart while the ratios to the dense and loop references, taken
#: in the same rounds, held within a few percent (see the README).
ADVISORY_UNITS = {"signals_per_s": "1/s", "latency_p50_ms": "ms"}


def _bits(res) -> bytes:
    """A result's locations and values, byte for byte."""
    return res.locations.tobytes() + res.values.tobytes()


class OutputChecker:
    """Counts failed outputs and scores the first result of each input.

    A result fails when its call raised, when it does not hold exactly
    ``k`` coefficients, when a value is not finite, or when its bits differ
    from the first result seen for the same input.  With ground truth given,
    each input's first result is scored with ``score_result``.
    """

    def __init__(self, k: int, inputs: Inputs | None = None):
        self.k = k
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self._first: dict[int, bytes] = {}
        self.reports: dict = {}

    def check(self, ids, results) -> int:
        """Check ``results`` (one per input id); returns the failures."""
        ids = list(ids)
        if not isinstance(results, list) or len(results) != len(ids):
            return self.raised(ids)
        failed = 0
        for i, res in zip(ids, results):
            bits = _bits(res)
            bad = res.k_found != self.k or not np.isfinite(res.values).all()
            if i not in self._first:
                self._first[i] = bits
                if self.inputs is not None and not bad:
                    self.reports[i] = score_result(
                        res, self.inputs.locations[i], self.inputs.values[i]
                    )
            failed += bool(bad or bits != self._first[i])
        self.attempted += len(ids)
        self.failed += failed
        return failed

    def raised(self, ids) -> int:
        """Count every input of a call that raised as failed."""
        n = len(list(ids))
        self.attempted += n
        self.failed += n
        return n

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def support_recall(self) -> float:
        """Planted locations found over planted locations, all scored inputs."""
        tp = sum(r.true_positives for r in self.reports.values())
        return tp / (self.k * len(self.reports)) if self.reports else 0.0

    def l1_error_per_coeff(self) -> float:
        """Median over scored inputs of the paper's per-coefficient L1 error.

        The median, not the mean: a rare near-collision gives one signal an
        error orders of magnitude above the rest, and the mean would follow
        those rare signals rather than the transform.
        """
        if not self.reports:
            return float("nan")
        return statistics.median(r.l1_error for r in self.reports.values())


@dataclass
class Leg:
    """One kind of call in a window: ``fn(i)`` runs call ``i``.

    ``after(i, out)`` runs after each call, outside the timed region; with
    ``checked`` set, an exception from ``fn`` is passed to ``after`` as
    ``out`` and the call's time is dropped, so a failing path still runs to
    the end of its window.
    """

    name: str
    fn: Callable
    share: float
    after: Callable | None = None
    checked: bool = False


def run_rounds(legs: list[Leg], seconds: float) -> dict[str, list[list[float]]]:
    """Run interleaved rounds for ``seconds``; per leg, per round call times.

    One more round runs first and is dropped: the first calls after set-up
    run up to twice as slow as the rest (allocator and cache warm-up).
    """
    round_s = seconds / ROUNDS_PER_WINDOW
    times: dict[str, list[list[float]]] = {leg.name: [] for leg in legs}
    cursor = dict.fromkeys(times, 0)
    deadline = None
    round_dur = 0.0
    while deadline is None or len(times[legs[0].name]) < MIN_ROUNDS \
            or perf_counter() + round_dur / 2 < deadline:
        r0 = perf_counter()
        for leg in legs:
            block: list[float] = []
            b0 = perf_counter()
            while True:
                i = cursor[leg.name]
                cursor[leg.name] += 1
                t0 = perf_counter()
                try:
                    out = leg.fn(i)
                except Exception as exc:
                    if not leg.checked:
                        raise
                    out = exc
                t1 = perf_counter()
                if not isinstance(out, Exception):
                    block.append(t1 - t0)
                if leg.after is not None:
                    leg.after(i, out)
                if t1 - b0 >= leg.share * round_s:
                    break
            if deadline is not None:
                times[leg.name].append(block)
        if deadline is None:
            deadline = perf_counter() + seconds
        round_dur = perf_counter() - r0
    return times


def _mean(block: list[float]) -> float:
    return sum(block) / len(block) if block else float("nan")


def _round_ratios(num: list[list[float]], den: list[list[float]]) -> list[float]:
    """Per-round ratio of mean call times, rounds with an empty block skipped."""
    return [_mean(a) / _mean(b) for a, b in zip(num, den) if a and b]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def describe(values) -> str:
    """``median [q1, q3] (N=...)`` of a sample, for the human-readable lines."""
    values = list(values)
    if len(values) < 2:
        return f"{_median(values):.6g} (N={len(values)})"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.6g} [q1 {q1:.6g}, q3 {q3:.6g}] (N={len(values)})"


def tail_latency(samples: list[float]) -> tuple[float, float, int] | None:
    """``(percentile, value, samples beyond)`` for the highest standard
    percentile with at least ten samples beyond it, or ``None``."""
    N = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        beyond = int(N * (100.0 - p) / 100.0)
        if beyond >= 10:
            return p, float(np.percentile(samples, p)), beyond
    return None


def reuse_large_buffers() -> None:
    """Serve large allocations from glibc's heap, reused, not mapped anew.

    numpy's FFT takes fresh work buffers on every call, ~290 MiB per
    16-signal call at n = 2^20.  Above glibc's mmap threshold each is mapped
    and unmapped per call, so the dense reference timed the VM's page
    faults: 17 to 30 ms/signal from one process to the next, against a
    steady 20 with the buffers reused.  The sparse paths fault ~11 MiB per
    call either way.  No effect where the C library has no ``mallopt``.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(M_MMAP_MAX, 0)
        mallopt(M_TRIM_THRESHOLD, 1 << 30)


def max_rss_mb() -> float:
    """Peak resident set of this process so far in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunResult:
    """Everything one workload run measured.

    ``correct`` holds when no output failed its check and the support
    recall reached the workload's floor.
    """

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: list[str]
    record: dict | None = None


def run_workload(name: str, *, seed: int, seconds: float,
                 trace: bool = False) -> RunResult:
    """Run workload ``name`` for ``seconds`` of measurement."""
    w = WORKLOADS[name]
    reuse_large_buffers()
    inputs = make_inputs(w, seed)
    path = make_path(w, inputs)
    # The inputs and the dense output array are resident now.  peak_rss_mb
    # is what the first set-up (plan, workspace, executor, first call) adds
    # on top, read before the dense reference's own work buffers can count
    # and before the number of set-ups that fit in a run can matter.
    rss_baseline = max_rss_mb()
    setups = [path.setup()]
    peak_mb = max_rss_mb() - rss_baseline
    start = perf_counter()
    while len(setups) < SETUP_MIN_REPS or (
            len(setups) < SETUP_MAX_REPS
            and perf_counter() - start < SETUP_MIN_SECONDS):
        setups.append(path.setup())
    checker = OutputChecker(w.k, inputs)

    def check_path(i, out):
        ids = path.input_ids(i)
        if not isinstance(out, Exception):
            checker.check(ids, out)
            return
        if checker.failed == 0:
            traceback.print_exception(out, file=sys.stderr)
        checker.raised(ids)

    checkers = [checker]
    record = None
    if trace:
        exec_checker = OutputChecker(w.k)
        checkers.append(exec_checker)
        metrics, notes, record = _traced_run(
            w, path, inputs, check_path, exec_checker, seconds, setups, seed
        )
    else:
        metrics, notes = _untraced_run(w, path, checker, check_path, seconds,
                                       setups)
        metrics["peak_rss_mb"] = peak_mb
        notes.append(f"peak_rss_mb {peak_mb:.6g} above the "
                     f"{rss_baseline:.6g} MiB resident with the inputs")
        probe = accuracy_probe(w, path)
        checkers.append(probe)
        metrics["l1_error_per_coeff"] = probe.l1_error_per_coeff()
        notes.append(
            f"l1_error_per_coeff {metrics['l1_error_per_coeff']:.6g} on the "
            f"probe's {len(probe.reports)} inputs (seed {PROBE_SEED}); "
            f"{checker.l1_error_per_coeff():.6g} on this seed's"
        )
    recall = checker.support_recall()
    failed = sum(c.failed for c in checkers)
    notes += [
        f"failed_fraction {checker.failed_fraction:.6g} "
        f"({checker.failed} of {checker.attempted} path outputs)",
        f"support_recall {recall:.6f} over {len(checker.reports)} inputs "
        f"(floor {w.min_recall})",
    ]
    return RunResult(
        correct=failed == 0 and recall >= w.min_recall,
        attempted=sum(c.attempted for c in checkers),
        failed=failed, metrics=metrics, notes=notes, record=record,
    )


def accuracy_probe(w, path) -> OutputChecker:
    """Run the path under test once over the probe inputs and score them.

    The probe's inputs come from :data:`PROBE_SEED`, not from the run seed,
    so their error is an exact function of the code: a 1% loss of accuracy
    shows, where the error over a run seed's inputs moves by up to 8% from
    one seed to the next.  The timed inputs are no longer needed and the
    path is pointed at the probe's.
    """
    probe = make_inputs(w, PROBE_SEED)
    path.X = probe.X
    checker = OutputChecker(w.k, probe)
    for i in range(path.calls):
        ids = path.input_ids(i)
        try:
            out = path.call(i)
        except Exception:
            checker.raised(ids)
            continue
        checker.check(ids, out)
    return checker


def _untraced_run(w, path, checker, check_path, seconds, setups):
    S = w.signals_per_call
    times = run_rounds([
        Leg("path", path.call, E2E_SHARES["path"], check_path, checked=True),
        Leg("dense", path.dense_call, E2E_SHARES["dense"]),
        Leg("loop", path.loop_call, E2E_SHARES["loop"]),
    ], seconds)
    sps = [S * len(b) / sum(b) for b in times["path"] if b]
    calls_ms = [t * 1e3 for b in times["path"] for t in b]
    sod = _round_ratios(times["path"], times["dense"])
    # A path call carries S signals, a loop call one.
    pol = [r / S for r in _round_ratios(times["path"], times["loop"])]
    setup_s = [s["setup_s"] for s in setups]
    metrics = {
        "signals_per_s": _median(sps),
        "latency_p50_ms": _median(calls_ms),
        "sparse_over_dense": _median(sod),
        "path_over_loop": _median(pol),
        "support_recall": checker.support_recall(),
        "setup_s": _median(setup_s),
    }
    notes = [
        f"rounds {len(times['path'])}, path calls {len(calls_ms)} "
        f"of {S} signal(s)",
        f"signals_per_s per round: {describe(sps)}",
        f"latency per call ms: {describe(calls_ms)}",
        f"sparse_over_dense per round: {describe(sod)}",
        f"path_over_loop per round: {describe(pol)}",
        f"setup_s per set-up: {describe(setup_s)}",
    ]
    tail = tail_latency(calls_ms)
    if tail is None:
        notes.append(f"latency_tail_ms: n/a ({len(calls_ms)} calls, fewer "
                     f"than 10 beyond any percentile above p50)")
    else:
        p, value, beyond = tail
        notes.append(f"latency_tail_ms p{p:g} = {value:.6g} ms "
                     f"(N={len(calls_ms)}, {beyond} beyond)")
    return metrics, notes


@dataclass
class _TracedCall:
    wall_s: float
    busy_s: float | None  # summed shard busy time of an executor call
    stages: dict[str, float]
    hits: int
    true_positives: int

    @property
    def path_s(self) -> float:
        """The time the call's stages are shares of."""
        return self.wall_s if self.busy_s is None else self.busy_s


def _stage_split(spans) -> tuple[dict[str, float], int, float | None]:
    """Stage seconds, vote-threshold hits and shard busy time of one call.

    Stage spans come named by stage (``sfft`` profiling and the
    ``run_stack_pipeline`` hook) or as ``shard<i>.<stage>`` from the
    executor, whose ``shard<i>`` spans give each shard's busy time.
    """
    stages = dict.fromkeys(STEP_NAMES, 0.0)
    hits = 0
    busy = None
    for sp in spans:
        name = sp.name
        if name.startswith("shard"):
            _, _, name = name.partition(".")
            if not name:
                busy = (busy or 0.0) + sp.duration_s
                continue
        if name in stages:
            stages[name] += sp.duration_s
            if name == "estimation":
                hits += int(sp.attrs.get("hits", 0))
    return stages, hits, busy


def _traced_run(w, path, inputs, check_path, exec_checker, seconds, setups,
                seed):
    S = w.signals_per_call
    plan = path.plan
    params = plan.params
    run_tracer = Tracer()
    origin = perf_counter()
    traced: list[_TracedCall] = []

    def traced_fn(i):
        t0 = perf_counter()
        tracer = Tracer()
        out = path.traced_call(i, tracer)
        return out, tracer, t0, perf_counter() - t0

    def after_traced(i, out):
        if isinstance(out, Exception):
            check_path(i, out)
            return
        results, tracer, t0, wall = out
        check_path(i, results)
        spans = tracer.spans
        stages, hits, busy = _stage_split(spans)
        ids = list(path.input_ids(i))
        tp = sum(
            np.intersect1d(r.locations, inputs.locations[j]).size
            for j, r in zip(ids, results)
        )
        traced.append(_TracedCall(wall, busy, stages, hits, tp))
        start = t0 - origin
        # On the default track, where the in-process stage spans land, so
        # span nesting charges each stage to its call.
        run_tracer.add_span("call", start_s=start, duration_s=wall,
                            category="bench", attrs={"call": i, "signals": S})
        for sp in spans:
            run_tracer.add_span(sp.name, start_s=start + sp.start_s,
                                duration_s=sp.duration_s,
                                category=sp.category, track=sp.track,
                                depth=sp.depth + 1, attrs=sp.attrs)

    executor_share = (EXECUTOR_SHARE if w.path == "sharded"
                      else EXECUTOR_SHARE_BYPASSED)
    window_share = 1.0 - LOOKUP_SHARE - RACE_SHARE - executor_share
    times = run_rounds([
        Leg("untraced", path.call, 0.4, check_path, checked=True),
        Leg("traced", traced_fn, 0.4, after_traced, checked=True),
        Leg("dense", path.dense_call, 0.2),
    ], window_share * seconds)

    metrics: dict[str, float] = {
        "plan.build_s": _median(s["plan_s"] for s in setups),
        "workspace.build_s": _median(s["workspace_s"] for s in setups),
    }
    metrics.update(_lookup_leg(w, LOOKUP_SHARE * seconds))
    metrics["workspace.shared_plan_mismatch_fraction"] = _race_leg(
        w, inputs, RACE_SHARE * seconds
    )
    metrics["plan_cache.bytes"] = float(global_plan_cache().nbytes())

    # Stages: medians over traced calls, per signal and as shares of the
    # path time; glue is the path time outside every stage.  The stack
    # engine's stage= hook and the executor add only spans, so a traced
    # call's own wall (an executor call: its shards' summed busy time) is
    # the path time, and the glue is taken call by call.  sfft's profiling
    # mode also publishes the sfft.* metrics on every call, outside any
    # stage; there the path time is the median untraced call of the same
    # rounds, so that cost lands in neither a stage nor the glue.
    stage_s = {stage: _median(c.stages[stage] for c in traced)
               for stage in STEP_NAMES}
    if w.path == "stream":
        path_s = _median(t for b in times["untraced"] for t in b)
        glue_s = path_s - sum(stage_s.values())
    else:
        path_s = _median(c.path_s for c in traced)
        glue_s = _median(c.path_s - sum(c.stages.values()) for c in traced)
    L, B, n = params.loops, params.B, params.n
    v_loops = params.voting_loops
    stage_ms = {}
    for stage in STEP_NAMES:
        stage_ms[stage] = stage_s[stage] / S * 1e3
        metrics[f"{stage}.ms_per_signal"] = stage_ms[stage]
        metrics[f"{stage}.share"] = stage_s[stage] / path_s
    glue_ms = glue_s / S * 1e3
    metrics["batch.glue_ms_per_signal"] = glue_ms
    gather = L * plan.rounds * B
    perm_bytes = gather * GATHER_BYTES_PER_ELEMENT + L * B * COMPLEX_BYTES
    hits = sum(c.hits for c in traced)
    hits_per_signal = hits / (S * len(traced))
    metrics.update({
        "perm_filter.gather_elems_per_signal": float(gather),
        "perm_filter.computed_bytes_per_signal": float(perm_bytes),
        "perm_filter.computed_gbytes_per_s":
            perm_bytes / (stage_ms["perm_filter"] * 1e-3) / 1e9,
        "bucket_fft.points_per_signal": float(L * B),
        "cutoff.rows_per_signal": float(v_loops),
        "recovery.candidates_per_signal":
            float(v_loops * params.select_count * (n // B)),
        # The single-signal driver votes into the workspace's length-n
        # scratch; the stack engine allocates one (S * n) array per call.
        "recovery.score_bytes_per_call":
            float(n * SCORE_BYTES * (1 if w.path == "stream" else S)),
        "recovery.hits_per_signal": hits_per_signal,
        "recovery.hit_precision":
            sum(c.true_positives for c in traced) / hits if hits else 0.0,
        "estimation.values_per_signal": hits_per_signal * L,
    })

    untraced_over_traced = _round_ratios(times["untraced"], times["traced"])
    metrics["trace.overhead_fraction"] = 1.0 - _median(untraced_over_traced)
    sparse_over_dense = _median(
        _round_ratios(times["untraced"], times["dense"])
    )
    measured = "sparse" if sparse_over_dense < 1.0 else "dense"
    model = recommend_transform(n, w.k).cpu_winner
    metrics["dispatch.model_picks_measured_winner"] = float(model == measured)

    metrics.update(_executor_leg(path, exec_checker,
                                 executor_share * seconds))

    record = make_run_record(
        f"bench-pipeline-{w.name}",
        params={"workload": w.name, "n": n, "k": w.k, "S": S,
                "seed": seed, "seconds": seconds, "path": w.path},
        tracer=run_tracer, results=metrics,
    )
    notes = [
        f"traced calls {len(traced)} of {S} signal(s); traced wall per "
        f"call ms: {describe(c.wall_s * 1e3 for c in traced)}; path time "
        f"{path_s * 1e3:.6g} ms",
        "stage ms/signal: " + ", ".join(
            f"{s} {stage_ms[s]:.4g}" for s in STEP_NAMES
        ) + f", glue {glue_ms:.4g}",
        f"untraced/traced per round: {describe(untraced_over_traced)}",
        f"sparse_over_dense {sparse_over_dense:.4g}: measured winner "
        f"{measured}, cost model picks {model}",
        f"executor leg: failed {exec_checker.failed} of "
        f"{exec_checker.attempted} (bits must match across modes)",
    ]
    return metrics, notes, record


def _lookup_leg(w, seconds: float) -> dict[str, float]:
    """Median time of the plan-less path's resolution plus cache hit."""
    def lookup():
        cfg = resolve_sfft_config(w.n, w.k)
        return cached_plan(w.n, w.k, seed=PLAN_SEED, **cfg.overrides)

    lookup()  # the first lookup of a batch workload's shape is a miss
    samples = []
    end = perf_counter() + seconds
    while perf_counter() < end or len(samples) < 100:
        t0 = perf_counter()
        lookup()
        samples.append(perf_counter() - t0)
    return {"plan_cache.lookup_us": _median(samples) * 1e6}


def _race_leg(w, inputs: Inputs, seconds: float) -> float:
    """Fraction of concurrent plan-less ``sfft`` results that differ in bits
    from the serial result for the same input (threads share one cached
    plan and its workspace scratch)."""
    ids = list(range(min(RACE_INPUTS, inputs.X.shape[0])))
    refs = {i: _bits(sfft(inputs.X[i], w.k, seed=PLAN_SEED)) for i in ids}
    counts = [[0, 0] for _ in range(WORKERS)]
    stop_at = perf_counter() + seconds

    def worker(slot: int) -> None:
        j = slot
        while perf_counter() < stop_at:
            i = ids[j % len(ids)]
            j += 1
            try:
                differs = _bits(sfft(inputs.X[i], w.k, seed=PLAN_SEED)) \
                    != refs[i]
            except Exception:
                differs = True
            counts[slot][0] += 1
            counts[slot][1] += differs

    threads = [threading.Thread(target=worker, args=(s,), daemon=True)
               for s in range(WORKERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=seconds + 120)
    if any(t.is_alive() for t in threads):
        raise RuntimeError("race leg: a worker thread did not finish")
    total = sum(c[0] for c in counts)
    return sum(c[1] for c in counts) / total if total else 0.0


def _executor_leg(path, checker: OutputChecker, seconds: float):
    """Fused serial, thread-sharded and process-sharded runs of one call.

    The stack is the inputs of the workload's first call (one signal on
    ``stream-14``).  All three must return the same bits for each input.  The thread runs
    publish the ``sfft.executor.*`` metrics into one registry.
    """
    ids = path.input_ids(0)
    stack = path.X[ids.start:ids.stop]
    plan = path.plan
    threads = ShardedExecutor(workers=WORKERS, mode="thread")
    processes = ShardedExecutor(workers=WORKERS, mode="process")
    registry = MetricsRegistry()
    overlaps: list[float] = []
    try:
        # Starting the process pool is set-up, not part of the leg.
        processes.run(stack, plan, metrics=MetricsRegistry())

        def thread_run(i):
            return threads.run(stack, plan, metrics=registry)

        def after_thread(i, out):
            overlaps.append(
                registry.gauge("sfft.executor.overlap_ratio").value
            )
            checker.check(ids, out)

        times = run_rounds([
            Leg("fused", lambda i: sfft_batch(stack, plan=plan), 1 / 3,
                lambda i, out: checker.check(ids, out)),
            Leg("thread", thread_run, 1 / 3, after_thread),
            Leg("process",
                lambda i: processes.run(stack, plan,
                                        metrics=MetricsRegistry()),
                1 / 3, lambda i, out: checker.check(ids, out)),
        ], seconds)
    finally:
        _stop_worker_processes()
    wait = registry.histogram("sfft.executor.queue_wait_s")
    wall = registry.histogram("sfft.executor.shard_wall_s")
    return {
        "executor.overlap_ratio": _median(overlaps),
        "executor.queue_wait_p50_ms": wait.percentile(50) * 1e3,
        "executor.shard_wall_p50_ms": wall.percentile(50) * 1e3,
        "executor.speedup_vs_fused":
            _median(_round_ratios(times["fused"], times["thread"])),
        "executor.process_over_thread":
            _median(_round_ratios(times["process"], times["thread"])),
    }


def _stop_worker_processes() -> None:
    """Stop the process pool, the forkserver and the resource tracker.

    All three would otherwise outlive this function until interpreter exit;
    the benchmark must leave no process running when it returns.
    """
    import multiprocessing.forkserver
    import multiprocessing.resource_tracker

    from repro.core import executor

    executor._shutdown_pools()
    multiprocessing.forkserver._forkserver._stop()
    multiprocessing.resource_tracker._resource_tracker._stop()
