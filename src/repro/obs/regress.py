"""Baselines and the performance-regression gate.

PR 1 made every path emit ``repro.run/1`` records; this module *consumes*
them, closing the loop the sFFT evaluation literature runs on (runtime
vs. ``(n, k)`` trajectories, per-stage attribution):

* a **baseline** (``repro.baseline/1``) snapshots the per-metric median and
  IQR of a set of run records, keyed by ``(experiment, n, k, variant)`` —
  the committed reference every future PR's numbers are judged against;
* :func:`compare_to_baseline` is the noise-aware gate: a fresh median must
  exceed the baseline median by a per-class relative threshold *plus* an
  IQR band *plus* an absolute floor before a regression is confirmed, so
  timer jitter cannot fail CI while a real slowdown (the 3x perm+filter
  kind) cannot hide.

Metric *classes* carry their own tolerances because their noise differs:

* ``wall`` — host wall-clock span totals (noisy; generous threshold);
* ``modeled`` — simulated-device counters and modeled row values
  (deterministic; tight threshold, safe to compare across machines);
* ``accuracy`` — error metrics (seeded, nearly deterministic);
* ``memory`` — byte-count gauges (``*.bytes`` / ``*_bytes`` outside the
  deterministic ``cusim.*`` family): allocator-dependent but far steadier
  than wall clocks, so they get a middling threshold and a page-sized
  absolute floor.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np

from ..errors import ParameterError

__all__ = [
    "BASELINE_SCHEMA",
    "METRIC_CLASSES",
    "GateConfig",
    "MetricCheck",
    "GateVerdict",
    "run_key",
    "extract_metrics",
    "collect_samples",
    "make_baseline",
    "compare_to_baseline",
    "higher_is_better",
    "prune_runs",
    "validate_baseline",
    "render_verdict",
]

BASELINE_SCHEMA = "repro.baseline/1"

#: Metric classes the gate distinguishes (each with its own tolerance).
METRIC_CLASSES = ("wall", "modeled", "accuracy", "memory")

#: Statuses a single metric check can land on.  Only ``regression`` fails
#: the gate; ``new`` / ``missing`` report coverage drift without failing.
CHECK_STATUSES = ("ok", "regression", "improvement", "new", "missing")


def _default_thresholds() -> dict[str, float]:
    return {"wall": 0.30, "modeled": 0.05, "accuracy": 0.50, "memory": 0.25}


def _default_min_abs() -> dict[str, float]:
    # wall: ignore sub-millisecond jitter outright; modeled/accuracy are
    # deterministic so the floor only absorbs float formatting noise;
    # memory: one 4 KiB page absorbs allocator rounding.
    return {"wall": 1e-3, "modeled": 1e-9, "accuracy": 1e-12,
            "memory": 4096.0}


@dataclass(frozen=True)
class GateConfig:
    """Tunable decision rule for :func:`compare_to_baseline`.

    A fresh median is a **regression** when::

        fresh > base * (1 + thresholds[class]) + iqr_factor * max(IQRs)
                                               + min_abs[class]

    and an **improvement** under the symmetric lower bound; the two swap
    for metrics that are better when higher (:func:`higher_is_better`).  ``classes``
    restricts which metric classes are compared at all (CI compares only
    machine-independent classes against a committed baseline).
    """

    thresholds: Mapping[str, float] = field(default_factory=_default_thresholds)
    min_abs: Mapping[str, float] = field(default_factory=_default_min_abs)
    iqr_factor: float = 1.5
    classes: tuple[str, ...] = METRIC_CLASSES


@dataclass(frozen=True)
class MetricCheck:
    """Verdict for one metric under one run key."""

    key: str
    metric: str
    klass: str
    status: str
    base_median: float | None = None
    fresh_median: float | None = None
    band: float | None = None

    @property
    def ratio(self) -> float | None:
        """fresh / base, when both sides exist and base is nonzero."""
        if self.base_median and self.fresh_median is not None:
            return self.fresh_median / self.base_median
        return None

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "metric": self.metric,
            "class": self.klass,
            "status": self.status,
            "base_median": self.base_median,
            "fresh_median": self.fresh_median,
            "band": self.band,
            "ratio": self.ratio,
        }


@dataclass(frozen=True)
class GateVerdict:
    """Machine-readable outcome of one gate evaluation."""

    status: str                      # "ok" | "regression" | "no-baseline"
    checks: tuple[MetricCheck, ...] = ()

    def regressions(self) -> list[MetricCheck]:
        """Only the confirmed-regression checks."""
        return [c for c in self.checks if c.status == "regression"]

    def to_json(self) -> dict:
        return {
            "schema": "repro.gate/1",
            "status": self.status,
            "regressions": len(self.regressions()),
            "checks": [c.to_json() for c in self.checks],
        }


# --------------------------------------------------------------------------
# extraction: repro.run/1 record -> comparable (class, value) metrics
# --------------------------------------------------------------------------

_QUANTITY_RE = re.compile(
    r"^(-?\d+(?:\.\d+)?(?:e[+-]?\d+)?)\s*(s|ms|us|ns|x|%)?$", re.IGNORECASE
)
_UNIT_SCALE = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9,
               "x": 1.0, "%": 0.01, None: 1.0}


def parse_quantity(cell: Any) -> float | None:
    """Numeric value of a table cell, or ``None`` if it isn't one.

    Understands the harness's own formats: plain numbers,
    :func:`~repro.utils.tables.format_seconds` strings (``"1.234 ms"``),
    ``format_ratio`` strings (``"14.90x"``), and percentages.
    """
    if isinstance(cell, bool):
        return None
    if isinstance(cell, (int, float)):
        return float(cell)
    if not isinstance(cell, str):
        return None
    m = _QUANTITY_RE.match(cell.strip())
    if m is None:
        return None
    return float(m.group(1)) * _UNIT_SCALE[m.group(2) and m.group(2).lower()]


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9_^.-]+", "_", str(text).strip().lower()).strip("_")


def run_key(record: Mapping) -> tuple[str, dict]:
    """``(key string, meta)`` identifying comparable runs of one record.

    Runs compare only within the same ``(experiment, n, k, variant)``
    cell — the axes the paper's Figure 5 sweeps.
    """
    params = record.get("params") or {}
    meta = {
        "experiment": str(record.get("name", "?")),
        "n": params.get("n"),
        "k": params.get("k"),
        "variant": str(params.get("variant", "default")),
    }
    key = (f"{meta['experiment']}|n={meta['n']}|k={meta['k']}"
           f"|{meta['variant']}")
    return key, meta


#: Metric-name words whose metrics are better when higher (a recall or
#: precision that rises is an improvement, not a regression).
HIGHER_IS_BETTER = ("recall", "precision")


def higher_is_better(metric: str) -> bool:
    """Whether ``metric`` improves when it rises (see
    :data:`HIGHER_IS_BETTER`); every other gated metric improves when it
    falls."""
    lowered = metric.lower()
    return any(word in lowered for word in HIGHER_IS_BETTER)


def extract_metrics(record: Mapping) -> dict[str, tuple[str, float]]:
    """``{metric name: (class, value)}`` comparable metrics of one record.

    Only metrics with an unambiguous direction are extracted (times,
    error, and table rows, whose recall/precision columns are better when
    higher); count-like ``sfft.*`` gauges are reported elsewhere but not
    gated on.
    """
    out: dict[str, tuple[str, float]] = {}

    # Span totals: live spans are wall-clock, simulated-timeline spans
    # (category "cusim") are modeled device time.
    for sp in record.get("spans") or []:
        if not isinstance(sp, Mapping):
            continue
        name, dur = sp.get("name"), sp.get("duration_s")
        if not isinstance(name, str) or not isinstance(dur, (int, float)):
            continue
        klass = "modeled" if sp.get("category") == "cusim" else "wall"
        mname = f"span.{name}.total_s"
        cls, total = out.get(mname, (klass, 0.0))
        out[mname] = (cls, total + float(dur))

    # Registry snapshot: cusim.* device model values are deterministic.
    for mname, state in (record.get("metrics") or {}).items():
        if not isinstance(state, Mapping):
            continue
        value = state.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        lowered = mname.lower()
        if "error" in lowered or "l1" in lowered:
            out[mname] = ("accuracy", float(value))
        elif mname.startswith("cusim."):
            # Includes cusim.*_bytes: modeled wire traffic stays in the
            # deterministic class committed baselines already use.
            out[mname] = ("modeled", float(value))
        elif lowered.endswith("_bytes") or lowered.endswith(".bytes"):
            out[mname] = ("memory", float(value))

    # Demo-style scalar results.
    for rname, value in (record.get("results") or {}).items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        lowered = rname.lower()
        if "error" in lowered or "l1" in lowered:
            klass = "accuracy"
        elif "modeled" in lowered:
            klass = "modeled"
        elif lowered.endswith("_bytes"):
            klass = "memory"
        elif lowered.endswith("_s") or "wall" in lowered:
            klass = "wall"
        else:
            continue
        out[f"results.{rname}"] = (klass, float(value))

    # Table rows: modeled sweep values, parsed back out of their
    # human-formatted cells (deterministic, so cross-machine comparable).
    headers = record.get("headers")
    rows = record.get("rows")
    if isinstance(headers, list) and isinstance(rows, list) and headers:
        for row in rows:
            if not isinstance(row, list) or len(row) != len(headers):
                continue
            label = _slug(row[0]) if row else ""
            for header, cell in zip(headers[1:], row[1:]):
                value = parse_quantity(cell)
                if value is None:
                    continue
                lowered = str(header).lower()
                klass = ("accuracy" if "error" in lowered or "l1" in lowered
                         else "modeled")
                out[f"row.{label}.{_slug(header)}"] = (klass, value)
    return out


def collect_samples(records: Iterable[Mapping]) -> dict[str, dict]:
    """Group record metrics by run key.

    Returns ``{key: {"meta": ..., "metrics": {name: {"class": ...,
    "values": [...]}}}}`` with one value per record that produced the
    metric.
    """
    grouped: dict[str, dict] = {}
    for record in records:
        key, meta = run_key(record)
        entry = grouped.setdefault(key, {"meta": meta, "metrics": {}})
        for mname, (klass, value) in extract_metrics(record).items():
            slot = entry["metrics"].setdefault(
                mname, {"class": klass, "values": []}
            )
            slot["values"].append(value)
    return grouped


def _median(values: list[float]) -> float:
    return float(np.median(values))


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q75, q25 = np.percentile(values, [75, 25])
    return float(q75 - q25)


# --------------------------------------------------------------------------
# baseline documents
# --------------------------------------------------------------------------

def make_baseline(records: Iterable[Mapping], *, source: str = "bench_gate") -> dict:
    """Snapshot run records into a ``repro.baseline/1`` document."""
    entries = {}
    for key, entry in sorted(collect_samples(records).items()):
        metrics = {
            mname: {
                "class": slot["class"],
                "median": _median(slot["values"]),
                "iqr": _iqr(slot["values"]),
                "count": len(slot["values"]),
            }
            for mname, slot in sorted(entry["metrics"].items())
        }
        entries[key] = {**entry["meta"], "metrics": metrics}
    return {"schema": BASELINE_SCHEMA, "source": source, "entries": entries}


# --------------------------------------------------------------------------
# pruning: compact the append-only runs file
# --------------------------------------------------------------------------

def _atomic_write_text(path: str, text: str) -> None:
    """Replace ``path``'s contents atomically (same dance as appends)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as out:
            out.write(text)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _keep_last_per_key(
    keys: list[str], keep_per_key: int | None
) -> list[bool]:
    """Keep-mask over ``keys``: the newest ``keep_per_key`` of each key.

    ``None`` keeps everything (the caller is only deduplicating).
    """
    if keep_per_key is None:
        return [True] * len(keys)
    if keep_per_key < 1:
        raise ParameterError(
            f"keep_per_key must be >= 1 (or None), got {keep_per_key}"
        )
    counts: dict[str, int] = {}
    mask = [False] * len(keys)
    for i in range(len(keys) - 1, -1, -1):
        seen = counts.get(keys[i], 0)
        if seen < keep_per_key:
            mask[i] = True
            counts[keys[i]] = seen + 1
    return mask


def prune_runs(path: str, *, keep_per_key: int | None = None) -> tuple[int, int]:
    """Compact a ``repro.run/1`` JSONL file in place.

    Drops byte-identical duplicate records, then (optionally) keeps only
    the newest ``keep_per_key`` records per run key.  Refuses files with invalid lines rather than
    silently discarding them.  Returns ``(kept, dropped)``.
    """
    from .export import validate_run_record

    lines: list[str] = []
    records: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParameterError(
                    f"refusing to prune {path}: line {lineno} is not JSON "
                    f"({exc})"
                ) from exc
            problems = validate_run_record(record)
            if problems:
                raise ParameterError(
                    f"refusing to prune {path}: line {lineno}: {problems[0]}"
                )
            lines.append(line)
            records.append(record)
    total = len(lines)
    seen: set[str] = set()
    deduped: list[tuple[str, dict]] = []
    for line, record in zip(lines, records):
        if line in seen:
            continue
        seen.add(line)
        deduped.append((line, record))
    mask = _keep_last_per_key(
        [run_key(record)[0] for _, record in deduped], keep_per_key
    )
    kept = [line for (line, _), keep in zip(deduped, mask) if keep]
    _atomic_write_text(path, "".join(line + "\n" for line in kept))
    return len(kept), total - len(kept)


# --------------------------------------------------------------------------
# the gate
# --------------------------------------------------------------------------

def compare_to_baseline(
    baseline: Mapping,
    records: Iterable[Mapping],
    config: GateConfig | None = None,
) -> GateVerdict:
    """Judge fresh run records against a baseline document.

    Every (key, metric) pair present on either side produces one
    :class:`MetricCheck`; the verdict is ``"regression"`` iff at least one
    check confirms a regression under the :class:`GateConfig` rule.
    """
    config = config or GateConfig()
    fresh = collect_samples(records)
    entries = baseline.get("entries", {})
    checks: list[MetricCheck] = []

    for key in sorted(set(entries) | set(fresh)):
        base_metrics = (entries.get(key) or {}).get("metrics", {})
        fresh_metrics = (fresh.get(key) or {}).get("metrics", {})
        for mname in sorted(set(base_metrics) | set(fresh_metrics)):
            base = base_metrics.get(mname)
            slot = fresh_metrics.get(mname)
            klass = (base or slot)["class"]
            if klass not in config.classes:
                continue
            if base is None:
                checks.append(MetricCheck(
                    key, mname, klass, "new",
                    fresh_median=_median(slot["values"]),
                ))
                continue
            if slot is None:
                checks.append(MetricCheck(
                    key, mname, klass, "missing",
                    base_median=base["median"],
                ))
                continue
            base_median = float(base["median"])
            fresh_median = _median(slot["values"])
            band = (
                config.iqr_factor
                * max(float(base.get("iqr", 0.0)), _iqr(slot["values"]))
                + float(config.min_abs.get(klass, 0.0))
            )
            threshold = float(config.thresholds.get(klass, 0.0))
            upper = base_median * (1.0 + threshold) + band
            lower = base_median * (1.0 - threshold) - band
            worse, better = fresh_median > upper, fresh_median < lower
            if higher_is_better(mname):
                worse, better = better, worse
            status = ("regression" if worse
                      else "improvement" if better else "ok")
            checks.append(MetricCheck(
                key, mname, klass, status,
                base_median=base_median, fresh_median=fresh_median, band=band,
            ))

    status = "regression" if any(
        c.status == "regression" for c in checks
    ) else "ok"
    return GateVerdict(status=status, checks=tuple(checks))


def render_verdict(verdict: GateVerdict, *, max_ok_rows: int = 12) -> str:
    """Human-readable gate outcome: regressions first, then a digest."""
    from ..utils.tables import format_seconds, format_table

    def fmt(metric: str, value: float | None) -> str:
        if value is None:
            return "-"
        if metric.endswith("_s"):
            return format_seconds(value)
        return f"{value:.4g}"

    interesting = [c for c in verdict.checks
                   if c.status in ("regression", "improvement")]
    rest = [c for c in verdict.checks if c.status == "ok"]
    drift = [c for c in verdict.checks if c.status in ("new", "missing")]
    shown = interesting + rest[:max_ok_rows]
    rows = [
        [
            c.status.upper() if c.status == "regression" else c.status,
            c.key,
            c.metric,
            c.klass,
            fmt(c.metric, c.base_median),
            fmt(c.metric, c.fresh_median),
            f"{c.ratio:.2f}x" if c.ratio is not None else "-",
        ]
        for c in shown
    ]
    out = format_table(
        ["status", "key", "metric", "class", "baseline", "fresh", "ratio"],
        rows,
        title=f"regression gate: {verdict.status}",
    )
    hidden = len(rest) - max_ok_rows
    if hidden > 0:
        out += f"\n... {hidden} more ok check(s)"
    if drift:
        news = sum(1 for c in drift if c.status == "new")
        out += (f"\ncoverage drift: {news} new metric(s), "
                f"{len(drift) - news} missing from this run")
    return out


# --------------------------------------------------------------------------
# validators (shared with scripts/check_bench_json.py)
# --------------------------------------------------------------------------

def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_baseline(doc: Any) -> list[str]:
    """Problems in a ``repro.baseline/1`` document (empty list = valid)."""
    if not isinstance(doc, dict):
        return [f"baseline must be a JSON object, got {type(doc).__name__}"]
    problems: list[str] = []
    if doc.get("schema") != BASELINE_SCHEMA:
        problems.append(
            f"schema must be {BASELINE_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    entries = doc.get("entries")
    if not isinstance(entries, dict):
        return problems + ["entries must be an object"]
    for key, entry in entries.items():
        where = f"entries[{key!r}]"
        if not isinstance(entry, dict):
            problems.append(f"{where} must be an object")
            continue
        metrics = entry.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            problems.append(f"{where}.metrics must be a non-empty object")
            continue
        for mname, stat in metrics.items():
            mwhere = f"{where}.metrics[{mname!r}]"
            if not isinstance(stat, dict):
                problems.append(f"{mwhere} must be an object")
                continue
            if stat.get("class") not in METRIC_CLASSES:
                problems.append(
                    f"{mwhere}.class must be one of {METRIC_CLASSES}, "
                    f"got {stat.get('class')!r}"
                )
            if not _is_number(stat.get("median")):
                problems.append(f"{mwhere}.median must be a number")
            if not _is_number(stat.get("iqr")) or stat.get("iqr", 0) < 0:
                problems.append(f"{mwhere}.iqr must be a number >= 0")
            count = stat.get("count")
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                problems.append(f"{mwhere}.count must be an integer >= 1")
    return problems
