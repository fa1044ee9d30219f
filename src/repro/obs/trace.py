"""Span tracing — the time half of the observability layer.

A :class:`Tracer` records *spans*: named intervals with a category, nesting
depth, and free-form attributes.  Two kinds of spans coexist on one
timebase:

* **live spans** — opened with :meth:`Tracer.span` around real CPU work and
  clocked with ``time.perf_counter`` relative to the tracer's origin (this
  is what ``sfft(..., tracer=...)`` uses for its Figure-2 breakdowns);
* **synthetic spans** — injected with :meth:`Tracer.add_span` /
  :meth:`Tracer.add_timeline` from the simulated-GPU scheduler, whose
  timestamps start at the simulation's time zero.

Both export to the Chrome ``trace_event`` format (open the file in
``chrome://tracing`` or https://ui.perfetto.dev): the CPU gets ``tid`` 0,
each simulated CUDA stream gets its own ``tid`` — so the stream overlap the
paper's Section V-A optimization banks on is *visible*, not just summed.
"""

from __future__ import annotations

import json
import threading
import time as _time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..errors import ParameterError

__all__ = ["Span", "Tracer", "CPU_TRACK", "monotonic"]

#: Track label for live (host-clocked) spans.
CPU_TRACK = "cpu"


def monotonic() -> float:
    """The sanctioned wall-clock for code outside the observability layer.

    ``core/`` and ``gpu/`` are forbidden from reading host clocks directly
    (reprolint rule ``wallclock-in-core``): modeled time and measured time
    must stay separable, and every wall reading should be attributable to
    this one seam.  Same timebase as live spans (``time.perf_counter``).
    """
    return _time.perf_counter()


@dataclass(frozen=True)
class Span:
    """One completed interval on the trace.

    ``start_s`` is relative to the tracer origin for live spans and to the
    simulation's time zero for synthetic ones; both are >= 0.  ``track``
    groups spans into timeline rows (:data:`CPU_TRACK` or one label per
    simulated stream).
    """

    name: str
    category: str
    start_s: float
    duration_s: float
    track: str = CPU_TRACK
    depth: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        """Interval end, in the span's own timebase."""
        return self.start_s + self.duration_s


class Tracer:
    """Thread-safe collector of spans (live and synthetic).

    The tracer is cheap to create; one per transform / experiment / run
    keeps traces independent.  ``clock`` is injectable for deterministic
    tests.
    """

    def __init__(self, clock: Callable[[], float] = _time.perf_counter) -> None:
        self._clock = clock
        self._origin = clock()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._local = threading.local()
        self._subscribers: list[Callable[[Span], None]] = []

    def subscribe(self, fn: Callable[[Span], None]) -> Callable[[], None]:
        """Call ``fn(span)`` after every span close (live or synthetic).

        Callbacks run on the recording thread, outside the tracer lock.
        Returns an unsubscribe callable.
        """
        with self._lock:
            self._subscribers.append(fn)

        def unsubscribe() -> None:
            with self._lock:
                try:
                    self._subscribers.remove(fn)
                except ValueError:
                    pass

        return unsubscribe

    # -- recording --------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        """Completed spans, in completion order (copy)."""
        with self._lock:
            return list(self._spans)

    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    @contextmanager
    def span(self, name: str, *, category: str = "step", **attrs: Any) -> Iterator[None]:
        """Clock a live span around the ``with`` body (nestable)."""
        depth = self._depth()
        self._local.depth = depth + 1
        start = self._clock()
        try:
            yield
        finally:
            end = self._clock()
            self._local.depth = depth
            self.add_span(
                name,
                start_s=max(0.0, start - self._origin),
                duration_s=max(0.0, end - start),
                category=category,
                track=CPU_TRACK,
                depth=depth,
                attrs=attrs,
            )

    def add_span(
        self,
        name: str,
        *,
        start_s: float,
        duration_s: float,
        category: str = "step",
        track: str = CPU_TRACK,
        depth: int = 0,
        attrs: dict[str, Any] | None = None,
    ) -> Span:
        """Record a pre-timed (synthetic) span."""
        if start_s < 0 or duration_s < 0:
            raise ParameterError(
                f"span times must be >= 0, got start={start_s} dur={duration_s}"
            )
        sp = Span(
            name=name,
            category=category,
            start_s=float(start_s),
            duration_s=float(duration_s),
            track=track,
            depth=depth,
            attrs=dict(attrs or {}),
        )
        with self._lock:
            self._spans.append(sp)
            subs = list(self._subscribers)
        for fn in subs:
            fn(sp)
        return sp

    def add_timeline(self, report: Any, *, category: str = "cusim") -> int:
        """Ingest a simulated :class:`~repro.cusim.timeline.TimelineReport`.

        Each operation record becomes a synthetic span on a per-stream
        track (``stream0``, ``stream1``, ... in ascending raw-id order, the
        same ordinals :func:`~repro.cusim.profiler.render_timeline` shows).
        Returns the number of spans added.
        """
        ordinals = {
            sid: i
            for i, sid in enumerate(sorted({r.stream_id for r in report.records}))
        }
        for rec in report.records:
            attrs: dict[str, Any] = {
                "kind": getattr(rec.kind, "value", str(rec.kind)),
                "isolated_s": rec.isolated_s,
            }
            if rec.timing is not None:
                wire = rec.timing.wire_bytes
                attrs["wire_bytes"] = wire
                attrs["coalescing_efficiency"] = (
                    rec.timing.useful_bytes / wire if wire else 1.0
                )
            self.add_span(
                rec.name,
                start_s=rec.start_s,
                duration_s=rec.end_s - rec.start_s,
                category=category,
                track=f"stream{ordinals[rec.stream_id]}",
                attrs=attrs,
            )
        return len(report.records)

    # -- views ------------------------------------------------------------

    def durations(self, *, category: str | None = None) -> dict[str, float]:
        """Total seconds per span name (insertion-ordered).

        This is the view behind ``SparseFFTResult.step_times``: summing
        repeated spans keeps the semantics of the old accumulating clock.
        """
        out: dict[str, float] = {}
        for sp in self.spans:
            if category is not None and sp.category != category:
                continue
            out[sp.name] = out.get(sp.name, 0.0) + sp.duration_s
        return out

    def tracks(self) -> list[str]:
        """Distinct track labels, CPU first then streams in natural order."""
        seen = {sp.track for sp in self.spans}
        rest = sorted(
            (t for t in seen if t != CPU_TRACK), key=lambda t: (len(t), t)
        )
        return ([CPU_TRACK] if CPU_TRACK in seen else []) + rest

    # -- export -----------------------------------------------------------

    def chrome_trace_events(self) -> list[dict]:
        """Chrome ``trace_event`` dicts (``ph: "X"`` complete events).

        ``tid`` 0 is the CPU track; each simulated stream gets the next
        integer in sorted-label order.  Timestamps are microseconds, always
        >= 0.
        """
        tids = {
            track: (0 if track == CPU_TRACK else i)
            for i, track in enumerate(self.tracks())
        }
        events: list[dict] = [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": "repro"}},
        ]
        for track, tid in tids.items():
            events.append(
                {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                 "args": {"name": track}}
            )
        for sp in self.spans:
            events.append(
                {
                    "name": sp.name,
                    "cat": sp.category,
                    "ph": "X",
                    "ts": max(0.0, sp.start_s * 1e6),
                    "dur": max(0.0, sp.duration_s * 1e6),
                    "pid": 1,
                    "tid": tids[sp.track],
                    "args": dict(sp.attrs),
                }
            )
        return events

    def export_chrome_trace(self, path: str | None = None) -> str:
        """Serialize the trace as Chrome/Perfetto-loadable JSON.

        Returns the JSON text; when ``path`` is given the document is also
        written there.
        """
        doc = {
            "traceEvents": self.chrome_trace_events(),
            "displayTimeUnit": "ms",
        }
        text = json.dumps(doc, indent=None, separators=(",", ":"))
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return text
