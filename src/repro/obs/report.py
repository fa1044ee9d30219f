"""Span self times and collapsed stacks, the inputs of ``repro why``.

The paper's optimization story (Fig. 2, Fig. 5/6) is told through
per-stage cost attribution; this module derives it from the
observability layer without touching raw Chrome traces:

* :func:`self_time_rows` — per-span *self* time (own duration minus
  directly-nested children), per track;
* :func:`collapsed_stacks` — the classic flamegraph collapsed-stack text
  format (``frame;frame value``), derived from live-span nesting and the
  simulated per-stream timeline tracks (values in integer microseconds,
  ready for ``flamegraph.pl`` or speedscope).

Spans arrive either as live :class:`~repro.obs.trace.Span` objects or as
the plain dicts stored in ``repro.run/1`` records; nesting is
reconstructed from interval containment per track, so both work.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from .trace import as_span

__all__ = ["self_time_rows", "collapsed_stacks"]

_EPS = 1e-12


def _nest(spans: Iterable[Any]) -> list[dict]:
    """Annotate spans with their enclosing stack, per track.

    Containment is decided purely from intervals: sorted by
    ``(start, -duration)``, a span nests under the innermost open span
    whose interval covers it.  Returns dicts with ``stack`` (outermost
    first, excluding self), ``self_s``, and the base fields.
    """
    by_track: dict[str, list[tuple]] = {}
    for sp in spans:
        sp = as_span(sp)
        by_track.setdefault(sp.track, []).append(
            (sp.start_s, -sp.duration_s, sp.name, sp.category, sp.duration_s)
        )
    out: list[dict] = []
    for track, items in by_track.items():
        items.sort(key=lambda t: (t[0], t[1]))
        open_stack: list[dict] = []
        for start, _, name, cat, dur in items:
            end = start + dur
            while open_stack and start >= open_stack[-1]["end"] - _EPS:
                out.append(open_stack.pop())
            node = {
                "track": track,
                "name": name,
                "category": cat,
                "start_s": start,
                "duration_s": dur,
                "end": end,
                "stack": [n["name"] for n in open_stack],
                "self_s": dur,
            }
            if open_stack:
                parent = open_stack[-1]
                parent["self_s"] = max(0.0, parent["self_s"] - dur)
            open_stack.append(node)
        out.extend(reversed(open_stack))
    for node in out:
        node.pop("end", None)
    return out


def self_time_rows(spans: Iterable[Any]) -> list[dict]:
    """Per-(track, name) aggregation with self time.

    ``total_s`` sums each span's full duration; ``self_s`` subtracts time
    spent in directly-nested spans, so a fat parent whose children explain
    its cost shows near-zero self time — the attribution Figure 2 needs.
    Sorted by descending self time.
    """
    agg: dict[tuple[str, str], dict] = {}
    for node in _nest(spans):
        slot = agg.setdefault(
            (node["track"], node["name"]),
            {"track": node["track"], "name": node["name"], "calls": 0,
             "total_s": 0.0, "self_s": 0.0},
        )
        slot["calls"] += 1
        slot["total_s"] += node["duration_s"]
        slot["self_s"] += node["self_s"]
    return sorted(agg.values(), key=lambda r: -r["self_s"])


def collapsed_stacks(
    spans: Iterable[Any] = (), *, report=None, root: str | None = None
) -> list[str]:
    """Flamegraph collapsed-stack lines, values in integer microseconds.

    Each line is ``track;ancestors...;name <usec>`` where ``<usec>`` is
    the frame's *self* time.  ``report`` optionally merges a simulated
    :class:`~repro.cusim.timeline.TimelineReport` under a ``gpu`` root via
    :func:`repro.cusim.profiler.kernel_self_times` (useful when the
    timeline was not ingested into a tracer).  Zero-microsecond frames are
    dropped.
    """
    frames: dict[str, int] = {}

    def add(path: Sequence[str], seconds: float) -> None:
        usec = int(round(seconds * 1e6))
        if usec <= 0:
            return
        line = ";".join(path)
        frames[line] = frames.get(line, 0) + usec

    for node in _nest(spans):
        path = [node["track"], *node["stack"], node["name"]]
        if root:
            path.insert(0, root)
        add(path, node["self_s"])
    if report is not None:
        from ..cusim.profiler import kernel_self_times

        for track, name, self_s in kernel_self_times(report):
            path = ["gpu", track, name]
            if root:
                path.insert(0, root)
            add(path, self_s)
    return [f"{line} {usec}" for line, usec in sorted(frames.items())]
