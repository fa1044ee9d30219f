"""cusFFT — the paper's contribution: sparse FFT on the (simulated) GPU.

:class:`CusFFT` drives the six-step pipeline in two coupled ways:

* **functionally** — every step executes its vectorized NumPy kernel body,
  producing the same coefficients the CUDA kernels would (tested against
  the CPU reference);
* **temporally** — the same launches are enqueued on simulated CUDA
  streams (:class:`~repro.cusim.timeline.GpuSimulation`) with their cost
  specs, and the event-driven scheduler produces the timeline the
  benchmarks report.

The stream structure follows the paper exactly.  With the asynchronous
layout transformation on (Section V-A / Figure 4), each loop's ``w/B``
rounds become remap kernels fanned across ``num_streams`` streams plus
in-order exec kernels on a dedicated accumulation stream, each gated on its
chunk's remap event.  The score-array memset overlaps binning on its own
stream.  Cutoff is Thrust sort&select or the single-pass fast selection
(Section V-B) per the configuration.

Timing scope matches the paper's methodology: the signal is resident on the
device (the paper ports the whole algorithm to the GPU "to avoid the
overhead due to bulk volume of PCIe data transfers"); per-call PCIe traffic
is the D2H of the recovered coefficients.  Two sensitivity modes widen the
scope: ``h2d="filter"`` ships the per-call filter taps (``w`` complex
values — the per-transform upload an un-cached plan implementation pays,
and the term behind Figure 5(e)'s dip), ``h2d="sampled"`` ships the
``w*L`` signal samples the filters read (a host-resident-signal
implementation), and ``h2d="full"`` ships the whole signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.parameters import SfftParameters, derive_parameters
from ..core.plan import SfftPlan, make_plan
from ..core.sfft import SparseFFTResult
from ..cufft.plan import CufftPlan
from ..cusim.device import KEPLER_K20X, DeviceSpec
from ..cusim.memory_pool import DeviceMemoryPool
from ..cusim.stream import Event
from ..cusim.timeline import GpuSimulation, TimelineReport
from ..errors import ParameterError
from ..obs import (
    MetricsRegistry,
    Tracer,
    count_locations,
    emit_sfft_metrics,
    global_registry,
)
from ..perf.counts import sfft_step_counts
from ..utils.rng import RngLike
from ..utils.validation import as_complex_signal
from .config import OPTIMIZED, CusfftConfig
from .kernels import (
    atomic_spec,
    bin_atomic_functional,
    bin_layout_functional,
    bin_partition_functional,
    estimate_functional,
    estimate_spec,
    exec_spec,
    fast_select_functional,
    fast_select_spec,
    partition_spec,
    recovery_functional,
    recovery_spec,
    remap_spec,
    score_memset_spec,
    sort_select_functional,
    sort_select_specs,
)

__all__ = ["CusfftRun", "CusFFT", "cusfft"]

_RESULT_BYTES = 24  # (int64 location, complex128 value) per coefficient


@dataclass(frozen=True)
class CusfftRun:
    """Output of one cusFFT execution: coefficients plus the timeline."""

    result: SparseFFTResult | None
    report: TimelineReport

    @property
    def modeled_time_s(self) -> float:
        """Simulated wall-clock of the transform."""
        return self.report.makespan_s


@dataclass
class CusFFT:
    """A planned cusFFT transform for one ``(n, k)`` shape.

    Parameters mirror :func:`repro.core.sfft`; ``config`` picks the build
    variant (:data:`~repro.gpu.config.BASELINE` /
    :data:`~repro.gpu.config.OPTIMIZED` / ablations), ``device`` the
    simulated GPU.
    """

    params: SfftParameters
    config: CusfftConfig = OPTIMIZED
    device: DeviceSpec = KEPLER_K20X
    h2d: str = "none"
    _plan: SfftPlan | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.h2d not in ("none", "filter", "sampled", "full"):
            raise ParameterError(
                f"h2d must be none/filter/sampled/full, got {self.h2d!r}"
            )

    @classmethod
    def create(
        cls,
        n: int,
        k: int,
        *,
        config: CusfftConfig = OPTIMIZED,
        device: DeviceSpec = KEPLER_K20X,
        h2d: str = "none",
        **overrides,
    ) -> "CusFFT":
        """Build a transform for ``(n, k)`` with derived parameters."""
        return cls(
            params=derive_parameters(n, k, **overrides),
            config=config,
            device=device,
            h2d=h2d,
        )

    def device_footprint(self) -> DeviceMemoryPool:
        """Account the transform's device allocations against the GPU.

        Raises :class:`~repro.errors.DeviceMemoryError` when the shape
        would not fit the card — e.g. n = 2^29 complex doubles already
        exceed the K20x's 6 GB, which is why the paper's sweep stops at
        2^27.
        """
        counts = sfft_step_counts(self.params)
        pool = DeviceMemoryPool(self.device)
        pool.alloc("signal", counts.signal_bytes)
        pool.alloc("score", counts.score_bytes)
        pool.alloc("buckets", counts.bucket_bytes)
        pool.alloc("filter", counts.filter_width * 16)
        if self.config.layout_transform:
            chunks = max(1, min(self.config.num_streams, 16))
            pool.alloc("remap_chunks", chunks * self.params.B * 16)
        pool.alloc("results", max(1, counts.expected_hits) * _RESULT_BYTES)
        return pool

    def plan(self, seed: RngLike = None) -> SfftPlan:
        """Materialize (and cache) the filter + permutation schedule."""
        if self._plan is None:
            self._plan = make_plan(
                self.params.n, self.params.k, seed=seed, params=self.params
            )
        return self._plan

    # ------------------------------------------------------------------ #
    # functional execution                                               #
    # ------------------------------------------------------------------ #

    def execute(
        self,
        x,
        *,
        seed: RngLike = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> CusfftRun:
        """Run the transform on real data; returns values and timeline.

        Checks the device memory budget first — shapes the physical card
        could not hold are rejected, as they would be on hardware.

        Observability: the simulated timeline is ingested into ``tracer``
        (one track per CUDA stream, Chrome-trace exportable) when one is
        given, and the run's metrics — the same ``sfft.*`` names the CPU
        reference emits, plus the ``cusim.*`` device gauges — are
        published into ``metrics`` (default:
        :func:`repro.obs.global_registry`).
        """
        self.device_footprint()
        plan = self.plan(seed)
        p = self.params
        x = as_complex_signal(x, p.n)
        B, L = p.B, p.loops
        rounds = plan.rounds

        if self.config.layout_transform:
            binner = bin_layout_functional
        elif self.config.loop_partition:
            binner = bin_partition_functional
        else:
            binner = bin_atomic_functional
        raw = np.empty((L, B), dtype=np.complex128)
        for r, perm in enumerate(plan.permutations):
            raw[r] = binner(x, plan.filt, B, perm)

        fft_plan = CufftPlan(B, batch=L)
        rows = fft_plan.execute(raw)

        selected: list[np.ndarray] = []
        for r in range(p.voting_loops):
            mags = np.abs(rows[r])
            if self.config.fast_select:
                sel, _ = fast_select_functional(mags, p.select_count)
            else:
                sel, _ = sort_select_functional(mags, p.select_count)
            selected.append(sel)

        hits, votes = recovery_functional(
            selected, list(plan.permutations[: p.voting_loops]), B,
            p.vote_threshold,
        )
        values = estimate_functional(
            hits, rows, list(plan.permutations), plan.filt, B
        )
        result = SparseFFTResult(
            n=p.n, locations=hits, values=values, votes=votes
        ).top(p.k)

        report = self._build_timeline(
            rounds=rounds,
            selected_per_loop=[int(s.size) for s in selected],
            hits=int(hits.size),
        )

        registry = metrics if metrics is not None else global_registry()
        emit_sfft_metrics(
            registry,
            B=B,
            n=p.n,
            selected_sizes=[int(s.size) for s in selected],
            hits=hits,
            votes=votes,
            permutations=list(plan.permutations[: p.voting_loops]),
        )
        count_locations(registry, vote=1)
        report.emit_metrics(registry)
        if tracer is not None:
            tracer.add_timeline(report)
        return CusfftRun(result=result, report=report)

    # ------------------------------------------------------------------ #
    # modeled execution (no data; paper-scale sweeps)                    #
    # ------------------------------------------------------------------ #

    def modeled_report(self) -> TimelineReport:
        """Timeline from analytic operation counts (no signal required)."""
        counts = sfft_step_counts(self.params)
        return self._build_timeline(
            rounds=counts.rounds,
            selected_per_loop=(
                [self.params.select_count] * self.params.voting_loops
            ),
            hits=counts.expected_hits,
        )

    def estimated_time(self) -> float:
        """Modeled wall-clock of one transform."""
        return self.modeled_report().makespan_s

    # ------------------------------------------------------------------ #
    # timeline construction                                              #
    # ------------------------------------------------------------------ #

    def _build_timeline(
        self,
        *,
        rounds: int,
        selected_per_loop: list[int],
        hits: int,
    ) -> TimelineReport:
        p = self.params
        cfg = self.config
        B, L, n = p.B, p.loops, p.n
        if len(selected_per_loop) != p.voting_loops:
            raise ParameterError("one selected count per voting loop required")
        tpb = cfg.threads_per_block
        w = rounds * B

        sim = GpuSimulation(self.device)
        compute = sim.stream()
        aux = sim.stream()

        h2d_event: tuple[Event, ...] = ()
        if self.h2d != "none":
            if self.h2d == "full":
                nbytes = n * 16
            elif self.h2d == "sampled":
                # w*L samples the filters touch; capped at the signal size.
                nbytes = min(w * L, n) * 16
            else:  # "filter": per-call upload of the w filter taps
                nbytes = w * 16
            sim.memcpy(aux, nbytes, "h2d")
            h2d_event = (aux.record_event(),)

        # Score memset overlaps binning on the aux stream.
        sim.launch(aux, score_memset_spec(n=n, threads_per_block=tpb), after=h2d_event)
        memset_ev = aux.record_event()

        # --- steps 1-2: permutation + filter + fold -----------------------
        if cfg.layout_transform:
            n_remap = max(1, min(cfg.num_streams - 1, 16))
            remap_streams = [sim.stream() for _ in range(n_remap)]
            chunk = 0
            for _ in range(L):
                for _r in range(rounds):
                    rs = remap_streams[chunk % n_remap]
                    sim.launch(rs, remap_spec(B=B, threads_per_block=tpb, use_ldg=cfg.use_ldg), after=h2d_event)
                    ev = rs.record_event()
                    sim.launch(
                        compute, exec_spec(B=B, threads_per_block=tpb), after=(ev,)
                    )
                    chunk += 1
        else:
            for _ in range(L):
                if cfg.loop_partition:
                    spec = partition_spec(
                        B=B, rounds=rounds, threads_per_block=tpb,
                        use_ldg=cfg.use_ldg,
                    )
                else:
                    spec = atomic_spec(
                        B=B, width=w, threads_per_block=tpb, use_ldg=cfg.use_ldg
                    )
                sim.launch(compute, spec, after=h2d_event)

        # --- step 3: subsampled FFT ---------------------------------------
        if cfg.batched_fft:
            for spec in CufftPlan(B, batch=L).kernel_specs():
                sim.launch(compute, spec)
        else:
            single = CufftPlan(B, batch=1)
            for _ in range(L):
                for spec in single.kernel_specs():
                    sim.launch(compute, spec)

        # --- step 4: cutoff -------------------------------------------------
        for sel in selected_per_loop:
            if cfg.fast_select:
                sim.launch(
                    compute, fast_select_spec(B=B, expected_selected=sel)
                )
            else:
                for spec in sort_select_specs(B=B):
                    sim.launch(compute, spec)

        # --- step 5: location recovery --------------------------------------
        first = True
        for sel in selected_per_loop:
            deps = (memset_ev,) if first else ()
            sim.launch(
                compute,
                recovery_spec(
                    selected=max(1, sel), n_div_B=p.n_div_B, n=n,
                    threads_per_block=tpb,
                ),
                after=deps,
            )
            first = False

        # --- step 6: magnitude reconstruction -------------------------------
        sim.launch(
            compute, estimate_spec(hits=hits, loops=L, threads_per_block=tpb)
        )

        # Results back to the host.
        sim.memcpy(compute, max(1, hits) * _RESULT_BYTES, "d2h")
        return sim.run()


def cusfft(
    x,
    k: int,
    *,
    config: CusfftConfig = OPTIMIZED,
    device: DeviceSpec = KEPLER_K20X,
    seed: RngLike = None,
    **overrides,
) -> CusfftRun:
    """One-shot convenience wrapper: plan + execute cusFFT on ``x``."""
    x = as_complex_signal(x)
    transform = CusFFT.create(x.size, k, config=config, device=device, **overrides)
    return transform.execute(x, seed=seed)
