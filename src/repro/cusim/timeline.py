"""Event-driven fluid scheduler: turns queued stream operations into a
timeline with realistic overlap.

The model is processor sharing: every active kernel asks for a fraction
``demand`` of the compute machine; while the total demand of concurrently
active kernels stays below 1 they all run at full speed (true concurrency —
the win the asynchronous layout transformation banks on), and once the
machine is overcommitted everyone slows down by ``1 / total_demand``.
Copy engines are separate resources (one per direction on the K20x), which
is why transfers overlap kernels for free.

Invariants the tests pin down:

* two independent kernels with demand <= 0.5 each finish in the time of one;
* two demand-1.0 kernels take exactly the sum of their durations;
* stream order is respected; events order across streams;
* no more than ``device.max_concurrent_kernels`` kernels are ever active.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import StreamError
from .device import DeviceSpec
from .kernel import KernelSpec, KernelTiming, estimate_kernel
from .stream import Event, OpKind, Operation, Stream

__all__ = ["OpRecord", "TimelineReport", "GpuSimulation"]

_EPS = 1e-15


@dataclass(frozen=True)
class OpRecord:
    """Completed operation with its simulated interval."""

    name: str
    kind: OpKind
    stream_id: int
    start_s: float
    end_s: float
    isolated_s: float
    timing: KernelTiming | None = None

    @property
    def span_s(self) -> float:
        """Wall-clock the op occupied (>= isolated duration)."""
        return self.end_s - self.start_s


@dataclass
class TimelineReport:
    """Result of simulating all queued work."""

    makespan_s: float
    records: list[OpRecord] = field(default_factory=list)

    def by_kind(self, kind: OpKind) -> list[OpRecord]:
        """Records of one kind, in completion order."""
        return [r for r in self.records if r.kind == kind]

    def kernel_time_sum(self) -> float:
        """Sum of isolated kernel durations (the no-overlap lower bound)."""
        return sum(r.isolated_s for r in self.records if r.kind is OpKind.KERNEL)

    def stream_ids(self) -> list[int]:
        """Distinct stream ids appearing in the timeline, ascending."""
        return sorted({r.stream_id for r in self.records})

    def emit_metrics(self, registry, prefix: str = "cusim") -> None:
        """Publish derived gauges/counters into a metrics registry.

        ``registry`` is any :class:`~repro.obs.MetricsRegistry`-shaped
        object (duck-typed to keep this module free of an obs dependency).
        Names follow the ``<prefix>.<object>.<measure>`` scheme documented
        in ``docs/observability.md``.
        """
        kernels = [r for r in self.records if r.kind is OpKind.KERNEL]
        transfers = [
            r for r in self.records if r.kind in (OpKind.H2D, OpKind.D2H)
        ]
        registry.gauge(f"{prefix}.timeline.makespan_s").set(self.makespan_s)
        registry.gauge(f"{prefix}.timeline.kernel_time_s").set(
            self.kernel_time_sum()
        )
        registry.gauge(f"{prefix}.timeline.max_concurrency").set(
            self.max_concurrency()
        )
        registry.counter(f"{prefix}.launches").inc(len(kernels))
        registry.counter(f"{prefix}.transfers").inc(len(transfers))
        wire = sum(r.timing.wire_bytes for r in kernels if r.timing)
        useful = sum(r.timing.useful_bytes for r in kernels if r.timing)
        registry.counter(f"{prefix}.kernel.wire_bytes").inc(wire)
        registry.gauge(f"{prefix}.kernel.coalescing_efficiency").set(
            useful / wire if wire else 1.0
        )

    def max_concurrency(self) -> int:
        """Peak number of simultaneously active operations."""
        edges: list[tuple[float, int]] = []
        for r in self.records:
            edges.append((r.start_s, 1))
            edges.append((r.end_s, -1))
        # Ends sort before starts at the same instant, so back-to-back ops
        # do not double-count.
        peak = cur = 0
        for _, delta in sorted(edges, key=lambda e: (e[0], e[1])):
            cur += delta
            peak = max(peak, cur)
        return peak


class GpuSimulation:
    """Driver-side facade: enqueue kernels/transfers on streams, then run.

    Functional results are computed eagerly by the caller (NumPy); this
    object only accounts for *time*.  A fresh instance per transform keeps
    timelines independent.
    """

    #: Host-side serialization between kernel/copy enqueues.  Streams hide
    #: *device* launch latency, but the CPU thread still issues launches one
    #: by one (~4 us each on CUDA 5.5) — at small problem sizes this issue
    #: rate, not the device, bounds a many-small-kernel pipeline.
    HOST_LAUNCH_GAP_S = 4e-6

    def __init__(self, device: DeviceSpec, *, host_launch_gap_s: float | None = None):
        self.device = device
        self.streams: list[Stream] = []
        self._seq = 0
        self.host_launch_gap_s = (
            self.HOST_LAUNCH_GAP_S if host_launch_gap_s is None else host_launch_gap_s
        )

    # -- construction -----------------------------------------------------

    def stream(self) -> Stream:
        """Create a new stream."""
        s = Stream()
        self.streams.append(s)
        return s

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def launch(
        self,
        stream: Stream,
        spec: KernelSpec,
        *,
        after: tuple[Event, ...] = (),
    ) -> KernelTiming:
        """Enqueue a kernel launch; returns its isolated-cost estimate."""
        timing = estimate_kernel(spec, self.device)
        op = Operation(
            name=spec.name,
            kind=OpKind.KERNEL,
            duration_s=timing.total_s,
            demand=timing.sm_demand,
            stream_id=stream.id,
            seq=self._next_seq(),
            after=tuple(after),
            timing=timing,
        )
        stream.append(op)
        return timing

    def memcpy(
        self,
        stream: Stream,
        nbytes: int,
        direction: str,
        *,
        after: tuple[Event, ...] = (),
    ) -> float:
        """Enqueue a PCIe transfer (``"h2d"`` or ``"d2h"``); returns its time."""
        if direction not in ("h2d", "d2h"):
            raise StreamError(f"direction must be h2d or d2h, got {direction!r}")
        if nbytes < 0:
            raise StreamError(f"nbytes must be >= 0, got {nbytes}")
        dur = self.device.pcie_latency_s + nbytes / self.device.pcie_bandwidth
        op = Operation(
            name=f"memcpy_{direction}",
            kind=OpKind.H2D if direction == "h2d" else OpKind.D2H,
            duration_s=dur,
            demand=1.0,
            stream_id=stream.id,
            seq=self._next_seq(),
            after=tuple(after),
            bytes_moved=int(nbytes),
        )
        stream.append(op)
        return dur

    def host_work(self, stream: Stream, name: str, seconds: float) -> None:
        """Enqueue fixed-duration host-side work serialized on ``stream``."""
        op = Operation(
            name=name,
            kind=OpKind.HOST,
            duration_s=float(seconds),
            demand=1e-9 + 0.001,
            stream_id=stream.id,
            seq=self._next_seq(),
        )
        stream.append(op)

    # -- simulation --------------------------------------------------------

    def run(self) -> TimelineReport:
        """Simulate all enqueued work; returns the timeline."""
        pending: dict[int, list[Operation]] = {
            s.id: list(s.ops) for s in self.streams
        }
        finished: set[int] = set()          # op seq numbers
        active: list[_Active] = []
        records: list[OpRecord] = []
        now = 0.0
        total_ops = sum(len(v) for v in pending.values())

        def issue_time(op: Operation) -> float:
            # Host ops are free; device launches pay the CPU issue gap in
            # enqueue order.
            if op.kind is OpKind.HOST:
                return 0.0
            return op.seq * self.host_launch_gap_s

        # One picosecond of slack absorbs accumulated float error in `now`;
        # all modeled durations are nanoseconds or more.
        _SLACK = 1e-12

        def ready(op: Operation) -> bool:
            return (
                all(ev.op.seq in finished for ev in op.after)
                and issue_time(op) <= now + _SLACK
            )

        guard = 0
        while len(records) < total_ops:
            guard += 1
            if guard > 10 * total_ops + 100:
                raise StreamError(
                    "scheduler failed to make progress (dependency cycle?)"
                )
            # Admit every stream-head op whose dependencies are satisfied,
            # honouring the concurrent-kernel limit (FIFO by seq).
            heads = [ops[0] for ops in pending.values() if ops]
            heads.sort(key=lambda o: o.seq)
            kernels_active = sum(1 for a in active if a.op.kind is OpKind.KERNEL)
            # CUDA stream semantics: an op starts only after its stream's
            # previous op completed.
            busy_streams = {a.op.stream_id for a in active}
            admitted = False
            for op in heads:
                if op.stream_id in busy_streams or not ready(op):
                    continue
                if (
                    op.kind is OpKind.KERNEL
                    and kernels_active >= self.device.max_concurrent_kernels
                ):
                    continue
                pending[op.stream_id].pop(0)
                active.append(_Active(op=op, start=now, remaining=op.duration_s))
                busy_streams.add(op.stream_id)
                if op.kind is OpKind.KERNEL:
                    kernels_active += 1
                admitted = True

            # Heads blocked only on the host issue gap: the next issue
            # instant is a scheduling event too.
            next_issue = min(
                (
                    issue_time(op)
                    for op in heads
                    if op.stream_id not in busy_streams
                    and all(ev.op.seq in finished for ev in op.after)
                    and issue_time(op) > now + _SLACK
                ),
                default=float("inf"),
            )

            if not active:
                if admitted:
                    continue
                if next_issue < float("inf"):
                    now = next_issue
                    continue
                if not heads:
                    continue
                raise StreamError(
                    "deadlock: operations pending but none can start "
                    "(event recorded on a later op in the same stream?)"
                )

            rates = self._rates(active)
            # Advance to the earliest completion or the next host issue.
            dt = min(
                (a.remaining / r if r > 0 else float("inf"))
                for a, r in zip(active, rates)
            )
            if dt == float("inf"):
                raise StreamError("scheduler stalled: all rates are zero")
            dt = min(dt, max(0.0, next_issue - now))
            now += dt
            still: list[_Active] = []
            for a, r in zip(active, rates):
                a.remaining -= r * dt
                if a.remaining <= _EPS * max(1.0, a.op.duration_s):
                    finished.add(a.op.seq)
                    records.append(
                        OpRecord(
                            name=a.op.name,
                            kind=a.op.kind,
                            stream_id=a.op.stream_id,
                            start_s=a.start,
                            end_s=now,
                            isolated_s=a.op.duration_s,
                            timing=a.op.timing,
                        )
                    )
                else:
                    still.append(a)
            active = still

        records.sort(key=lambda r: (r.start_s, r.end_s))
        return TimelineReport(makespan_s=now, records=records)

    def _rates(self, active: list["_Active"]) -> list[float]:
        """Progress rate (fraction of isolated speed) per active op."""
        kernel_demand = sum(
            a.op.demand for a in active if a.op.kind is OpKind.KERNEL
        )
        # Copy engines: one per direction when the device has two engines,
        # otherwise both directions share one.
        h2d = [a for a in active if a.op.kind is OpKind.H2D]
        d2h = [a for a in active if a.op.kind is OpKind.D2H]
        rates: list[float] = []
        for a in active:
            if a.op.kind is OpKind.KERNEL:
                rates.append(min(1.0, 1.0 / kernel_demand) if kernel_demand > 0 else 1.0)
            elif a.op.kind is OpKind.HOST:
                rates.append(1.0)
            else:
                group = h2d if a.op.kind is OpKind.H2D else d2h
                if self.device.copy_engines >= 2:
                    rates.append(1.0 / len(group))
                else:
                    rates.append(1.0 / (len(h2d) + len(d2h)))
        return rates


@dataclass
class _Active:
    op: Operation
    start: float
    remaining: float
