"""Unified observability: spans, metrics, and exporters.

One subsystem serves the CPU reference (``repro.core.sfft``), the simulated
GPU (``repro.gpu`` / ``repro.cusim``), and the benchmark/experiment harness:

* :class:`Tracer` — nestable spans plus ingestion of simulated timelines,
  exporting Chrome ``trace_event`` JSON (``chrome://tracing`` / Perfetto);
* :class:`MetricsRegistry` — thread-safe counters / gauges / histograms
  under one ``sfft.*`` / ``cusim.*`` naming scheme;
* run records — a JSONL schema (``repro.run/1``) benchmarks and experiments
  persist, validated by ``scripts/check_bench_json.py`` in CI;
* baselines — versioned snapshots (``repro.baseline/1``) of run-record
  metrics, with a noise-aware regression gate (``scripts/bench_gate.py``);
* span self times and flamegraph collapsed stacks (:mod:`repro.obs.report`);
* why-analysis — a critical-path engine over the span DAG with
  Amdahl-style what-if projections (:mod:`repro.obs.critical`),
  differential profiles, and automatic regression attribution emitting
  ``repro.attrib/1`` records (:mod:`repro.obs.attrib`, surfaced as
  ``python -m repro why``).

See ``docs/observability.md`` for the naming scheme and schemas.
"""

from .attrib import (
    ATTRIB_SCHEMA,
    attribute_run,
    attribute_verdict,
    diff_attrib_record,
    diff_collapsed_stacks,
    diff_self_times,
    make_attrib_record,
    render_attrib_record,
    validate_attrib_record,
)
from .critical import (
    IDLE_STAGE,
    CriticalPath,
    PathSegment,
    critical_path,
    render_critical_path,
    stage_of,
    what_if_speedup,
)
from .export import (
    RUN_RECORD_SCHEMA,
    atomic_append_text,
    make_run_record,
    render_obs_summary,
    validate_run_record,
    write_jsonl,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    count_locations,
    emit_sfft_metrics,
    global_registry,
)
from .regress import (
    BASELINE_SCHEMA,
    GateConfig,
    GateVerdict,
    MetricCheck,
    compare_to_baseline,
    make_baseline,
    prune_runs,
    render_verdict,
    validate_baseline,
)
from .report import (
    collapsed_stacks,
    self_time_rows,
)
from .trace import CPU_TRACK, Span, Tracer, monotonic

__all__ = [
    "CPU_TRACK",
    "monotonic",
    "Span",
    "Tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "emit_sfft_metrics",
    "count_locations",
    "global_registry",
    "RUN_RECORD_SCHEMA",
    "atomic_append_text",
    "make_run_record",
    "render_obs_summary",
    "validate_run_record",
    "write_jsonl",
    "BASELINE_SCHEMA",
    "GateConfig",
    "GateVerdict",
    "MetricCheck",
    "compare_to_baseline",
    "make_baseline",
    "prune_runs",
    "render_verdict",
    "validate_baseline",
    "collapsed_stacks",
    "self_time_rows",
    "ATTRIB_SCHEMA",
    "attribute_run",
    "attribute_verdict",
    "diff_attrib_record",
    "diff_collapsed_stacks",
    "diff_self_times",
    "make_attrib_record",
    "render_attrib_record",
    "validate_attrib_record",
    "IDLE_STAGE",
    "CriticalPath",
    "PathSegment",
    "critical_path",
    "render_critical_path",
    "stage_of",
    "what_if_speedup",
]
