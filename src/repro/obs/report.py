"""Attribution reports: self-time tables, collapsed stacks, trajectories.

The paper's optimization story (Fig. 2, Fig. 5/6) is told through
per-stage cost attribution; this module renders that view from the
observability layer without touching raw Chrome traces:

* :func:`self_time_rows` / :func:`render_attribution` — per-span *self*
  time (own duration minus directly-nested children), per track, with the
  run's ``sfft.*`` / ``cusim.*`` gauges inline and deltas against a
  baseline entry when one is given;
* :func:`collapsed_stacks` — the classic flamegraph collapsed-stack text
  format (``frame;frame value``), derived from live-span nesting and the
  simulated per-stream timeline tracks (values in integer microseconds,
  ready for ``flamegraph.pl`` or speedscope);
* :func:`sparkline` / :func:`render_trajectory_dashboard` — the
  performance history of ``repro.trajectory/1`` documents as one line per
  ``(experiment, n, k, variant)`` key.

Spans arrive either as live :class:`~repro.obs.trace.Span` objects or as
the plain dicts stored in ``repro.run/1`` records; nesting is
reconstructed from interval containment per track, so both work.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from .trace import as_span

__all__ = [
    "self_time_rows",
    "collapsed_stacks",
    "render_attribution",
    "sparkline",
    "render_trajectory_dashboard",
]

_EPS = 1e-12

#: Eight-level block ramp (the conventional terminal sparkline glyphs).
SPARK_CHARS = "▁▂▃▄▅▆▇█"


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


def render_attribution(
    spans: Iterable[Any],
    *,
    metrics: Mapping[str, Mapping] | None = None,
    baseline_entry: Mapping | None = None,
    title: str = "per-step attribution",
) -> str:
    """Self-time table with gauge values (and baseline deltas) inline.

    ``metrics`` is a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
    dict; ``baseline_entry`` one ``entries[key]`` object from a
    ``repro.baseline/1`` document — when given, each span row and gauge
    shows its delta against the baseline median.
    """
    from ..utils.tables import format_seconds, format_table

    base_metrics = (baseline_entry or {}).get("metrics", {})

    def delta(metric_name: str, value: float) -> str:
        stat = base_metrics.get(metric_name)
        if not isinstance(stat, Mapping):
            return "-"
        base = stat.get("median")
        if not isinstance(base, (int, float)) or base == 0:
            return "-"
        return f"{100.0 * (value - base) / base:+.1f}%"

    rows = self_time_rows(spans)
    total_self = sum(r["self_s"] for r in rows) or 1.0
    # Baseline span metrics aggregate across tracks, so the delta must too
    # (a per-stream row compared against the all-streams median would be
    # wildly off for any multi-stream kernel).
    name_totals: dict[str, float] = {}
    for r in rows:
        name_totals[r["name"]] = name_totals.get(r["name"], 0.0) + r["total_s"]
    table_rows = [
        [
            r["track"],
            r["name"],
            r["calls"],
            format_seconds(r["total_s"]),
            format_seconds(r["self_s"]),
            f"{100.0 * r['self_s'] / total_self:.1f}%",
            delta(f"span.{r['name']}.total_s", name_totals[r["name"]]),
        ]
        for r in rows
    ]
    out = format_table(
        ["track", "span", "calls", "total", "self", "self%", "vs base"],
        table_rows,
        title=title,
    ) if rows else "(no spans)"

    gauges = [
        (name, state) for name, state in sorted((metrics or {}).items())
        if isinstance(state, Mapping)
        and isinstance(state.get("value"), (int, float))
        and not isinstance(state.get("value"), bool)
    ]
    if gauges:
        grows = [
            [name, state.get("kind", "?"), f"{float(state['value']):.6g}",
             delta(name, float(state["value"]))]
            for name, state in gauges
        ]
        out += "\n\n" + format_table(
            ["metric", "kind", "value", "vs base"], grows, title="gauges"
        )
    return out


# --------------------------------------------------------------------------
# trajectory dashboard
# --------------------------------------------------------------------------

def sparkline(values: Sequence[float], *, width: int | None = None) -> str:
    """Block-character sparkline of ``values`` (empty input -> '')."""
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if width is not None and len(vals) > width > 0:
        # Keep the most recent points; the dashboard reads left-to-right
        # as oldest-to-newest.
        vals = vals[-width:]
    lo, hi = min(vals), max(vals)
    if hi - lo <= _EPS * max(1.0, abs(hi)):
        return SPARK_CHARS[3] * len(vals)
    span = hi - lo
    return "".join(
        SPARK_CHARS[min(len(SPARK_CHARS) - 1,
                        int((v - lo) / span * len(SPARK_CHARS)))]
        for v in vals
    )


def _headline_metric(experiment: str, names: Iterable[str]) -> str | None:
    """Pick the one metric a key's dashboard row shows."""
    names = sorted(names)
    preferred = [
        f"span.{experiment}.total_s",
        "results.sfft_wall_s",
        "results.modeled_gpu_s",
        "cusim.timeline.makespan_s",
    ]
    for name in preferred:
        if name in names:
            return name
    for name in names:
        if name.endswith("_s"):
            return name
    return names[0] if names else None


def render_trajectory_dashboard(
    trajectory: Mapping,
    *,
    baseline: Mapping | None = None,
    width: int = 24,
) -> str:
    """One sparkline row per run key from a ``repro.trajectory/1`` doc.

    Shows the headline metric's history, its latest value, and — when a
    baseline document is given — the latest value's delta against the
    baseline median.
    """
    from ..utils.tables import format_seconds, format_table

    points = trajectory.get("points") or []
    series: dict[str, dict] = {}
    for point in points:
        if not isinstance(point, Mapping):
            continue
        key = point.get("key")
        slot = series.setdefault(
            key, {"experiment": point.get("experiment", "?"), "metrics": {}}
        )
        for mname, value in (point.get("metrics") or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                slot["metrics"].setdefault(mname, []).append(float(value))
    if not series:
        return "(empty trajectory)"

    base_entries = (baseline or {}).get("entries", {})
    rows = []
    for key in sorted(series):
        slot = series[key]
        metric = _headline_metric(slot["experiment"], slot["metrics"])
        if metric is None:
            continue
        values = slot["metrics"][metric]
        latest = values[-1]
        shown = (format_seconds(latest) if metric.endswith("_s")
                 else f"{latest:.4g}")
        stat = (base_entries.get(key) or {}).get("metrics", {}).get(metric)
        if isinstance(stat, Mapping) and isinstance(
            stat.get("median"), (int, float)
        ) and stat["median"]:
            vs = f"{100.0 * (latest - stat['median']) / stat['median']:+.1f}%"
        else:
            vs = "-"
        rows.append([
            key, metric, sparkline(values, width=width), len(values),
            shown, vs,
        ])
    return format_table(
        ["key", "metric", "trend", "runs", "latest", "vs base"],
        rows,
        title="performance trajectory",
    )
