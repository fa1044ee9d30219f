"""Critical-path analysis over the span DAG — *why* a run took as long as it did.

The executor's trace is a set of timed intervals on parallel tracks
(``cpu``, ``executor``, ``worker0``, ``worker1``, ..., simulated
``streamN``).  Total time tells you *that* a run was slow; the **critical
path** tells you *which* work actually bounded the end-to-end wall: the
chain of spans such that shortening anything off the chain cannot shorten
the run at all.

The engine is trace-based (the interval-sweep flavour of the backward
walk distributed-trace critical-path tools use): between any two adjacent
span boundaries (a start or an end) the set of covering spans is
constant, so each elementary interval is charged to the *most binding*
covering span — the one with the latest start, i.e. the innermost /
most recent scheduling decision; a stage span beats its shard wrapper,
a shard beats the ``executor.run`` root, and the root soaks up
orchestration time nothing else covers.  Intervals no span covers at all
are charged to the ``(idle)`` pseudo-stage.  The resulting segments tile
``[first start, last end]`` exactly, so per-stage **path shares always
sum to 1.0** — the property that makes Amdahl-style what-if projections
well-posed:

    speed up a stage with path share ``p`` by factor ``f``
    → the whole run improves by ``1 / (1 - p + p / f)``.

Executor shard spans (``shard3.bucket_fft`` on track ``worker1``) are
normalized to their pipeline stage (``bucket_fft``) for shares, so the
answer reads "the bucket FFT sat on 43% of the critical path", not a
per-shard smear; the per-shard ``queue_wait_s`` attrs the executor records
are surfaced as :attr:`CriticalPath.queue_wait_s`.

Spans arrive either as live :class:`~repro.obs.trace.Span` objects or as
the plain dicts stored in ``repro.run/1`` records — same duck typing as
:mod:`repro.obs.report`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterable

from ..errors import ParameterError
from .trace import as_span

__all__ = [
    "IDLE_STAGE",
    "PathSegment",
    "CriticalPath",
    "critical_path",
    "stage_of",
    "what_if_speedup",
    "render_critical_path",
]

#: Stage label for intervals no span covers (queue/scheduler gaps).
IDLE_STAGE = "(idle)"

#: Relative tolerance for interval-boundary comparisons.
_EPS_REL = 1e-9

_SHARD_RE = re.compile(r"^shard\d+$")
_SHARD_STAGE_RE = re.compile(r"^shard\d+\.")


def stage_of(name: str) -> str:
    """Normalize a span name to its pipeline stage.

    Executor shard spans fold onto their stage (``shard3.bucket_fft`` →
    ``bucket_fft``; the bare shard wrapper ``shard3`` → ``shard``); every
    other name is already a stage.
    """
    if _SHARD_RE.match(name):
        return "shard"
    return _SHARD_STAGE_RE.sub("", name)


def what_if_speedup(path_share: float, factor: float) -> float:
    """Amdahl projection: whole-run speedup from speeding one stage up.

    ``path_share`` is the stage's fraction of the critical path (0..1),
    ``factor`` the hypothetical per-stage speedup (> 0).  Returns the
    projected end-to-end speedup (>= 1 for factor >= 1 when
    0 <= path_share <= 1).
    """
    if factor <= 0:
        raise ParameterError(f"what-if factor must be > 0, got {factor}")
    if not 0.0 <= path_share <= 1.0:
        raise ParameterError(
            f"path share must be in [0, 1], got {path_share}"
        )
    remaining = (1.0 - path_share) + path_share / factor
    return 1.0 / remaining if remaining > 0 else float("inf")


@dataclass(frozen=True)
class PathSegment:
    """One interval of the critical path, charged to one span (or idle)."""

    name: str
    track: str
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        """Length of the interval."""
        return self.end_s - self.start_s

    @property
    def stage(self) -> str:
        """The segment's normalized stage (see :func:`stage_of`)."""
        return IDLE_STAGE if self.name == IDLE_STAGE else stage_of(self.name)


@dataclass(frozen=True)
class CriticalPath:
    """The end-to-end critical path of one run's trace.

    ``segments`` tile ``[start_s, end_s]`` in time order; ``queue_wait_s``
    sums the ``queue_wait_s`` attrs the executor records on its shard
    spans (0.0 when the trace has none).
    """

    segments: tuple[PathSegment, ...]
    start_s: float
    end_s: float
    queue_wait_s: float = 0.0

    @property
    def makespan_s(self) -> float:
        """End-to-end wall covered by the path (last end - first start)."""
        return self.end_s - self.start_s

    def stage_path_s(self) -> dict[str, float]:
        """Seconds of critical path charged to each stage (descending)."""
        out: dict[str, float] = {}
        for seg in self.segments:
            out[seg.stage] = out.get(seg.stage, 0.0) + seg.duration_s
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def stage_shares(self) -> dict[str, float]:
        """Fraction of the critical path per stage; sums to 1.0.

        Empty when the trace had no spans (zero makespan).
        """
        span = self.makespan_s
        if span <= 0:
            return {}
        return {
            stage: seconds / span
            for stage, seconds in self.stage_path_s().items()
        }

    def what_if(self, stage: str, factor: float) -> float:
        """Projected whole-run speedup from speeding ``stage`` up ``factor``x.

        A stage absent from the path has share 0 and projects 1.0 (no
        improvement) — off-path work cannot shorten the run.
        """
        share = self.stage_shares().get(stage, 0.0)
        return what_if_speedup(share, factor)


def critical_path(spans: Iterable[Any]) -> CriticalPath:
    """Compute the critical path of a set of spans (all tracks at once).

    Zero-duration spans cannot carry path time and are skipped.  The
    sweep visits every elementary interval between adjacent span
    boundaries, charges it to the latest-starting covering span (ties:
    deepest, then track/name for determinism), and merges adjacent
    intervals charged to the same span name — so the segments tile
    ``[start_s, end_s]`` with no gaps and no overlaps by construction.
    """
    items: list[tuple[float, float, str, str, int]] = []
    queue_wait = 0.0
    for sp in spans:
        sp = as_span(sp)
        wait = sp.attrs.get("queue_wait_s")
        if isinstance(wait, (int, float)) and not isinstance(wait, bool):
            queue_wait += float(wait)
        if sp.duration_s <= 0:
            continue
        items.append((sp.start_s, sp.end_s, sp.name, sp.track, sp.depth))
    if not items:
        return CriticalPath(segments=(), start_s=0.0, end_s=0.0,
                            queue_wait_s=queue_wait)

    t_start = min(it[0] for it in items)
    t_end = max(it[1] for it in items)
    eps = max(t_end - t_start, abs(t_end), 1.0) * _EPS_REL
    cuts = sorted({t for it in items for t in (it[0], it[1])})

    segments: list[PathSegment] = []
    for lo, hi in zip(cuts, cuts[1:]):
        if hi <= lo:
            continue
        covering = [
            it for it in items if it[0] <= lo + eps and it[1] >= hi - eps
        ]
        if covering:
            _start, _end, name, track, _depth = max(
                covering, key=lambda it: (it[0], it[4], it[3], it[2])
            )
        else:
            name, track = IDLE_STAGE, ""
        last = segments[-1] if segments else None
        if last is not None and last.name == name and last.track == track:
            segments[-1] = PathSegment(
                name=name, track=track, start_s=last.start_s, end_s=hi,
            )
        else:
            segments.append(PathSegment(
                name=name, track=track, start_s=lo, end_s=hi,
            ))
    return CriticalPath(
        segments=tuple(segments), start_s=t_start, end_s=t_end,
        queue_wait_s=queue_wait,
    )


def render_critical_path(
    cp: CriticalPath,
    *,
    what_if_factor: float = 2.0,
    title: str = "critical path",
) -> str:
    """Stage table: path seconds, share, and the what-if projection.

    The last column answers the question the paper's Figure 2 answers for
    its stages: "if this stage were ``what_if_factor``x faster, how much
    faster would the *run* be?".
    """
    from ..utils.tables import format_seconds, format_table

    shares = cp.stage_shares()
    if not shares:
        return "(no spans — nothing on the critical path)"
    rows = [
        [
            stage,
            format_seconds(seconds),
            f"{100.0 * shares[stage]:.1f}%",
            "-" if stage == IDLE_STAGE
            else f"{cp.what_if(stage, what_if_factor):.2f}x",
        ]
        for stage, seconds in cp.stage_path_s().items()
    ]
    out = format_table(
        ["stage", "path time", "share", f"run if {what_if_factor:g}x faster"],
        rows,
        title=f"{title} (makespan {format_seconds(cp.makespan_s)})",
    )
    if cp.queue_wait_s > 0:
        out += f"\nshard queue wait (sum): {format_seconds(cp.queue_wait_s)}"
    return out
