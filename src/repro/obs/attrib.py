"""Regression attribution and differential profiles (``repro.attrib/1``).

The gate (:mod:`repro.obs.regress`) answers *whether* a run regressed;
this module answers *why*, in three escalating forms:

* **differential self-time profiles** — align two span sets by name
  (aggregated across tracks, so a re-sharded run still lines up), emit a
  signed delta table (:func:`diff_self_times`) and a two-value collapsed
  stack file (:func:`diff_collapsed_stacks`, the ``difffolded.pl`` format
  ``stack base_usec fresh_usec`` that flamegraph.pl renders as a red/blue
  differential flame);
* **automatic regression attribution** — for each confirmed
  :class:`~repro.obs.regress.MetricCheck` regression, rank the per-stage
  ``span.*.total_s`` deltas (baseline median vs. fresh median) by how much
  of the target's delta they explain, annotate each with its critical-path
  share and an Amdahl what-if projection from :mod:`repro.obs.critical`,
  and always carry an **unattributed residual** line so a partial
  explanation cannot masquerade as a full one;
* the **``repro.attrib/1`` record** — the schema-validated JSONL form of
  either analysis, written by ``scripts/bench_gate.py --attrib`` on gate
  failure and by ``python -m repro why --json``, checked by
  ``scripts/check_bench_json.py``.

Records carry a ``status``: ``"regression"`` (gate-failure attribution),
``"ok"`` (healthy-run headline attribution — what *would* bound the run),
or ``"diff"`` (two arbitrary runs compared).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

import numpy as np

from ..errors import ParameterError
from .critical import CriticalPath, critical_path, stage_of, what_if_speedup
from .regress import GateVerdict, collect_samples, run_key
from .report import collapsed_stacks, self_time_rows

__all__ = [
    "ATTRIB_SCHEMA",
    "diff_self_times",
    "diff_collapsed_stacks",
    "latest_spans_by_key",
    "make_attrib_record",
    "attribute_verdict",
    "attribute_run",
    "diff_attrib_record",
    "validate_attrib_record",
    "render_attrib_record",
]

ATTRIB_SCHEMA = "repro.attrib/1"

ATTRIB_STATUSES = ("regression", "ok", "diff")

#: Tolerance on the critical-path share sum (must tile the makespan).
_SHARE_SUM_TOL = 1e-6


def _median_of(values: list[float]) -> float:
    return float(np.median(values))


def _span_metric_stage(metric: str) -> str | None:
    """Pipeline stage behind a ``span.<name>.total_s``/``.self_s`` metric."""
    for suffix in (".total_s", ".self_s"):
        if metric.startswith("span.") and metric.endswith(suffix):
            return stage_of(metric[len("span."):-len(suffix)])
    return None


# --------------------------------------------------------------------------
# differential profiles: two span sets, aligned by name
# --------------------------------------------------------------------------

def _self_time_by_name(spans: Iterable[Any]) -> dict[str, float]:
    """Self seconds per span name, aggregated across tracks."""
    out: dict[str, float] = {}
    for row in self_time_rows(spans):
        name = str(row["name"])
        out[name] = out.get(name, 0.0) + float(row["self_s"])
    return out


def diff_self_times(
    spans_a: Iterable[Any], spans_b: Iterable[Any]
) -> list[dict[str, Any]]:
    """Signed self-time deltas between two span sets, by span name.

    Rows are ``{name, base_s, fresh_s, delta_s}`` (``delta_s`` =
    fresh - base; positive means B is slower there), sorted by descending
    ``|delta_s|``.  Names present on only one side keep a 0.0 on the
    other, so appearing/disappearing stages show as their full cost.
    """
    base = _self_time_by_name(spans_a)
    fresh = _self_time_by_name(spans_b)
    rows = [
        {
            "name": name,
            "base_s": base.get(name, 0.0),
            "fresh_s": fresh.get(name, 0.0),
            "delta_s": fresh.get(name, 0.0) - base.get(name, 0.0),
        }
        for name in sorted(set(base) | set(fresh))
    ]
    rows.sort(key=lambda r: (-abs(float(r["delta_s"])), str(r["name"])))
    return rows


def diff_collapsed_stacks(
    spans_a: Iterable[Any], spans_b: Iterable[Any]
) -> list[str]:
    """Two-value collapsed stacks: ``stack base_usec fresh_usec`` lines.

    This is the input format of flamegraph.pl's ``difffolded.pl``
    pipeline; frames absent from one side carry an explicit 0 so the
    renderer colors them as pure growth/shrinkage.
    """
    def parse(lines: list[str]) -> dict[str, int]:
        out: dict[str, int] = {}
        for line in lines:
            stackpart, _, usec = line.rpartition(" ")
            out[stackpart] = int(usec)
        return out

    base = parse(collapsed_stacks(spans_a))
    fresh = parse(collapsed_stacks(spans_b))
    return [
        f"{stack} {base.get(stack, 0)} {fresh.get(stack, 0)}"
        for stack in sorted(set(base) | set(fresh))
    ]


def latest_spans_by_key(
    records: Iterable[Mapping[str, Any]],
) -> dict[str, list[dict[str, Any]]]:
    """Newest record's span list per run key (later records win)."""
    out: dict[str, list[dict[str, Any]]] = {}
    for record in records:
        key, _meta = run_key(record)
        spans = record.get("spans")
        out[key] = [
            dict(sp) for sp in spans if isinstance(sp, Mapping)
        ] if isinstance(spans, list) else []
    return out


# --------------------------------------------------------------------------
# repro.attrib/1 records
# --------------------------------------------------------------------------

def _what_if_block(
    path_share: float | None,
    base: float | None,
    fresh: float | None,
    *,
    default_factor: float,
) -> dict[str, float] | None:
    """Amdahl projection for recovering a contributor's regression.

    The factor is how much faster the stage must get to return to its
    baseline (fresh/base) when that is a real slowdown, else the caller's
    default; without a critical-path share there is no projection.
    """
    if path_share is None:
        return None
    factor = default_factor
    if (base is not None and fresh is not None
            and base > 0 and fresh > base):
        factor = fresh / base
    if factor <= 1.0:
        return None
    return {
        "speedup_factor_x": factor,
        "projected_run_speedup_x": what_if_speedup(path_share, factor),
    }


def make_attrib_record(
    *,
    key: str,
    status: str,
    target: Mapping[str, Any] | None,
    candidates: Iterable[Mapping[str, Any]],
    spans: Iterable[Any] | None = None,
    top_n: int = 5,
    what_if_factor: float = 2.0,
) -> dict[str, Any]:
    """Assemble one ``repro.attrib/1`` record.

    ``target`` carries ``metric`` and optional ``class``/``base``/
    ``fresh`` (its ``delta`` is derived); ``candidates`` are mappings with
    ``metric``, ``base``, ``fresh`` — the contributors to rank.  ``spans``
    (usually the fresh run's) feed the critical-path block; contributor
    metrics of the form ``span.<name>.total_s`` are joined to path shares
    through :func:`~repro.obs.critical.stage_of`.
    """
    if status not in ATTRIB_STATUSES:
        raise ParameterError(
            f"attrib status must be one of {ATTRIB_STATUSES}, got {status!r}"
        )
    if top_n < 1:
        raise ParameterError(f"top_n must be >= 1, got {top_n}")

    cp: CriticalPath | None = None
    shares: dict[str, float] = {}
    if spans is not None:
        cp = critical_path(spans)
        shares = cp.stage_shares()

    target_doc: dict[str, Any] | None = None
    target_delta: float | None = None
    if target is not None:
        base = target.get("base")
        fresh = target.get("fresh")
        if base is not None and fresh is not None:
            target_delta = float(fresh) - float(base)
        target_doc = {
            "metric": str(target["metric"]),
            "class": target.get("class"),
            "base": None if base is None else float(base),
            "fresh": None if fresh is None else float(fresh),
            "delta": target_delta,
        }

    ranked = sorted(
        (dict(c) for c in candidates),
        key=lambda c: (-abs(float(c["fresh"]) - float(c["base"])),
                       str(c["metric"])),
    )
    dropped = ranked[top_n:]
    contributors: list[dict[str, Any]] = []
    for cand in ranked[:top_n]:
        base_v = float(cand["base"])
        fresh_v = float(cand["fresh"])
        delta = fresh_v - base_v
        stage = _span_metric_stage(str(cand["metric"]))
        path_share = shares.get(stage) if stage is not None else None
        share_of_delta = (
            delta / target_delta
            if target_delta is not None and target_delta != 0.0
            else None
        )
        contributors.append({
            "metric": str(cand["metric"]),
            "base": base_v,
            "fresh": fresh_v,
            "delta": delta,
            "share_of_delta": share_of_delta,
            "path_share": path_share,
            "what_if": _what_if_block(
                path_share, base_v, fresh_v, default_factor=what_if_factor
            ),
        })

    residual: dict[str, Any] | None = None
    if target_delta is not None:
        explained = sum(float(c["delta"]) for c in contributors)
        residual_delta = target_delta - explained
        residual = {
            "delta": residual_delta,
            "share": (residual_delta / target_delta
                      if target_delta != 0.0 else None),
            "dropped_candidates": len(dropped),
        }

    critical_doc: dict[str, Any] | None = None
    if cp is not None:
        critical_doc = {
            "makespan_s": cp.makespan_s,
            "queue_wait_s": cp.queue_wait_s,
            "shares": shares,
        }

    return {
        "schema": ATTRIB_SCHEMA,
        "key": key,
        "status": status,
        "target": target_doc,
        "contributors": contributors,
        "residual": residual,
        "critical_path": critical_doc,
    }


def _span_candidates(
    base_metrics: Mapping[str, Any], fresh_metrics: Mapping[str, Any]
) -> list[dict[str, Any]]:
    """``span.*.total_s`` metrics present on both sides, as candidates."""
    out: list[dict[str, Any]] = []
    for mname in sorted(set(base_metrics) & set(fresh_metrics)):
        if _span_metric_stage(mname) is None:
            continue
        stat = base_metrics[mname]
        slot = fresh_metrics[mname]
        out.append({
            "metric": mname,
            "base": float(stat["median"]),
            "fresh": _median_of([float(v) for v in slot["values"]]),
        })
    return out


def attribute_verdict(
    baseline: Mapping[str, Any],
    records: Iterable[Mapping[str, Any]],
    verdict: GateVerdict,
    *,
    top_n: int = 5,
    what_if_factor: float = 2.0,
) -> list[dict[str, Any]]:
    """One ``repro.attrib/1`` record per confirmed regression in a verdict.

    For each regressed (key, metric) check, the candidate contributors are
    that key's per-stage span totals (baseline median vs. fresh median);
    the fresh run's spans supply the critical path.  When the regressed
    metric is itself a span total it ranks as its own top contributor —
    the honest answer the e2e slow-stage test expects.
    """
    recs = list(records)
    fresh = collect_samples(recs)
    spans_by_key = latest_spans_by_key(recs)
    entries = baseline.get("entries") or {}
    out: list[dict[str, Any]] = []
    for check in verdict.regressions():
        base_metrics = (entries.get(check.key) or {}).get("metrics", {})
        fresh_metrics = (fresh.get(check.key) or {}).get("metrics", {})
        out.append(make_attrib_record(
            key=check.key,
            status="regression",
            target={
                "metric": check.metric,
                "class": check.klass,
                "base": check.base_median,
                "fresh": check.fresh_median,
            },
            candidates=_span_candidates(base_metrics, fresh_metrics),
            spans=spans_by_key.get(check.key),
            top_n=top_n,
            what_if_factor=what_if_factor,
        ))
    return out


def _headline_metric(experiment: str, names: Iterable[str]) -> str | None:
    """The one metric a run key's attribution target compares."""
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


def attribute_run(
    baseline: Mapping[str, Any] | None,
    records: Iterable[Mapping[str, Any]],
    *,
    key: str | None = None,
    top_n: int = 5,
    what_if_factor: float = 2.0,
) -> dict[str, Any]:
    """Healthy-run attribution: what bounds the run *now* (status ``ok``).

    Targets the key's headline metric (the dashboard's choice) against the
    baseline when one is given; without a baseline the record still
    carries the critical path and what-if table, just no deltas.  ``key``
    defaults to the newest record's run key.
    """
    recs = list(records)
    if not recs:
        raise ParameterError("attribute_run needs at least one run record")
    if key is None:
        key, _meta = run_key(recs[-1])
    fresh = collect_samples(recs)
    fresh_entry = fresh.get(key)
    if fresh_entry is None:
        raise ParameterError(f"no records under run key {key!r}")
    fresh_metrics = fresh_entry["metrics"]
    spans = latest_spans_by_key(recs).get(key) or []

    base_metrics: Mapping[str, Any] = {}
    if baseline is not None:
        base_metrics = (
            (baseline.get("entries") or {}).get(key) or {}
        ).get("metrics", {})

    target: dict[str, Any] | None = None
    candidates: list[dict[str, Any]] = []
    if base_metrics:
        experiment = str(fresh_entry["meta"].get("experiment", "?"))
        shared = set(base_metrics) & set(fresh_metrics)
        headline = _headline_metric(experiment, shared)
        if headline is not None:
            stat = base_metrics[headline]
            slot = fresh_metrics[headline]
            target = {
                "metric": headline,
                "class": slot.get("class"),
                "base": float(stat["median"]),
                "fresh": _median_of([float(v) for v in slot["values"]]),
            }
        candidates = _span_candidates(base_metrics, fresh_metrics)
    return make_attrib_record(
        key=key,
        status="ok",
        target=target,
        candidates=candidates,
        spans=spans,
        top_n=top_n,
        what_if_factor=what_if_factor,
    )


def diff_attrib_record(
    record_a: Mapping[str, Any],
    record_b: Mapping[str, Any],
    *,
    top_n: int = 5,
    what_if_factor: float = 2.0,
) -> dict[str, Any]:
    """Attribution of the difference between two runs (status ``diff``).

    A is the base, B the fresh side; contributors are per-span-name self
    times (``span.<name>.self_s``), the target their sum (total traced
    self time), and the critical path is B's.
    """
    key_a, _ = run_key(record_a)
    key_b, _ = run_key(record_b)
    key = key_b if key_a == key_b else f"{key_a} -> {key_b}"
    spans_a = [sp for sp in record_a.get("spans") or []
               if isinstance(sp, Mapping)]
    spans_b = [sp for sp in record_b.get("spans") or []
               if isinstance(sp, Mapping)]
    rows = diff_self_times(spans_a, spans_b)
    candidates = [
        {
            "metric": f"span.{row['name']}.self_s",
            "base": float(row["base_s"]),
            "fresh": float(row["fresh_s"]),
        }
        for row in rows
    ]
    return make_attrib_record(
        key=key,
        status="diff",
        target={
            "metric": "span.total_self_s",
            "class": "wall",
            "base": sum(float(r["base_s"]) for r in rows),
            "fresh": sum(float(r["fresh_s"]) for r in rows),
        },
        candidates=candidates,
        spans=spans_b,
        top_n=top_n,
        what_if_factor=what_if_factor,
    )


# --------------------------------------------------------------------------
# validation + rendering
# --------------------------------------------------------------------------

def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number_or_null(value: Any) -> bool:
    return value is None or _is_number(value)


def validate_attrib_record(doc: Any) -> list[str]:
    """Problems in a ``repro.attrib/1`` record (empty list = valid)."""
    if not isinstance(doc, dict):
        return [f"attrib record must be a JSON object, got {type(doc).__name__}"]
    problems: list[str] = []
    if doc.get("schema") != ATTRIB_SCHEMA:
        problems.append(
            f"schema must be {ATTRIB_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    key = doc.get("key")
    if not isinstance(key, str) or not key:
        problems.append("key must be a non-empty string")
    if doc.get("status") not in ATTRIB_STATUSES:
        problems.append(
            f"status must be one of {ATTRIB_STATUSES}, "
            f"got {doc.get('status')!r}"
        )

    target = doc.get("target")
    if target is not None:
        if not isinstance(target, dict):
            problems.append("target must be an object or null")
        else:
            if not isinstance(target.get("metric"), str):
                problems.append("target.metric must be a string")
            for field in ("base", "fresh", "delta"):
                if not _number_or_null(target.get(field)):
                    problems.append(
                        f"target.{field} must be a number or null"
                    )

    contributors = doc.get("contributors")
    if not isinstance(contributors, list):
        problems.append("contributors must be an array")
        contributors = []
    for i, contrib in enumerate(contributors):
        where = f"contributors[{i}]"
        if not isinstance(contrib, dict):
            problems.append(f"{where} must be an object")
            continue
        if not isinstance(contrib.get("metric"), str):
            problems.append(f"{where}.metric must be a string")
        if not _is_number(contrib.get("delta")):
            problems.append(f"{where}.delta must be a number")
        for field in ("base", "fresh", "share_of_delta", "path_share"):
            if not _number_or_null(contrib.get(field)):
                problems.append(f"{where}.{field} must be a number or null")
        share = contrib.get("path_share")
        if _is_number(share) and not 0.0 <= float(share) <= 1.0 + _SHARE_SUM_TOL:
            problems.append(f"{where}.path_share must be in [0, 1]")
        what_if = contrib.get("what_if")
        if what_if is not None:
            if not isinstance(what_if, dict):
                problems.append(f"{where}.what_if must be an object or null")
            else:
                factor = what_if.get("speedup_factor_x")
                if not _is_number(factor) or float(factor) <= 0:
                    problems.append(
                        f"{where}.what_if.speedup_factor_x must be > 0"
                    )
                if not _is_number(what_if.get("projected_run_speedup_x")):
                    problems.append(
                        f"{where}.what_if.projected_run_speedup_x "
                        f"must be a number"
                    )

    residual = doc.get("residual")
    if residual is not None:
        if not isinstance(residual, dict):
            problems.append("residual must be an object or null")
        else:
            if not _is_number(residual.get("delta")):
                problems.append("residual.delta must be a number")
            if not _number_or_null(residual.get("share")):
                problems.append("residual.share must be a number or null")

    cp = doc.get("critical_path")
    if cp is not None:
        if not isinstance(cp, dict):
            problems.append("critical_path must be an object or null")
        else:
            makespan = cp.get("makespan_s")
            if not _is_number(makespan) or float(makespan) < 0:
                problems.append("critical_path.makespan_s must be >= 0")
            shares = cp.get("shares")
            if not isinstance(shares, dict):
                problems.append("critical_path.shares must be an object")
            else:
                bad = [s for s, v in shares.items() if not _is_number(v)]
                if bad:
                    problems.append(
                        f"critical_path.shares values must be numbers "
                        f"({bad[0]!r} is not)"
                    )
                elif shares and abs(
                    sum(float(v) for v in shares.values()) - 1.0
                ) > 1e-3:
                    problems.append(
                        "critical_path.shares must sum to 1.0 "
                        f"(got {sum(float(v) for v in shares.values()):.6f})"
                    )
    return problems


def render_attrib_record(doc: Mapping[str, Any]) -> str:
    """Human rendering of one attribution record."""
    from ..utils.tables import format_seconds, format_table

    def fmt(metric: str, value: Any) -> str:
        if not _is_number(value):
            return "-"
        if metric.endswith("_s"):
            return format_seconds(float(value))
        return f"{float(value):.4g}"

    def pct(value: Any) -> str:
        return f"{100.0 * float(value):+.1f}%" if _is_number(value) else "-"

    lines: list[str] = []
    target = doc.get("target")
    head = f"why: {doc.get('key')} [{doc.get('status')}]"
    if isinstance(target, Mapping):
        metric = str(target.get("metric"))
        head += (
            f" — target {metric}: "
            f"{fmt(metric, target.get('base'))} -> "
            f"{fmt(metric, target.get('fresh'))}"
        )
        if _is_number(target.get("delta")):
            head += f" (delta {fmt(metric, target.get('delta'))})"
    lines.append(head)

    contributors = [c for c in doc.get("contributors") or []
                    if isinstance(c, Mapping)]
    if contributors:
        rows = []
        for c in contributors:
            metric = str(c.get("metric"))
            what_if = c.get("what_if")
            if isinstance(what_if, Mapping):
                wif = (f"{float(what_if['speedup_factor_x']):.2f}x faster -> "
                       f"run {float(what_if['projected_run_speedup_x']):.2f}x")
            else:
                wif = "-"
            rows.append([
                metric,
                fmt(metric, c.get("base")),
                fmt(metric, c.get("fresh")),
                fmt(metric, c.get("delta")),
                pct(c.get("share_of_delta")),
                (f"{100.0 * float(c['path_share']):.1f}%"
                 if _is_number(c.get("path_share")) else "-"),
                wif,
            ])
        lines.append(format_table(
            ["contributor", "base", "fresh", "delta", "of delta",
             "path share", "what-if"],
            rows,
            title="top contributors",
        ))
    else:
        lines.append("(no ranked contributors — no comparable span metrics)")

    residual = doc.get("residual")
    if isinstance(residual, Mapping):
        tmetric = (str(target.get("metric"))
                   if isinstance(target, Mapping) else "")
        lines.append(
            f"unattributed residual: {fmt(tmetric, residual.get('delta'))}"
            f" ({pct(residual.get('share'))} of the target delta)"
        )

    cp = doc.get("critical_path")
    if isinstance(cp, Mapping) and isinstance(cp.get("shares"), Mapping):
        shares = {str(k): float(v) for k, v in cp["shares"].items()
                  if _is_number(v)}
        if shares:
            top = sorted(shares.items(), key=lambda kv: -kv[1])[:3]
            summary = ", ".join(f"{name} {100.0 * share:.1f}%"
                                for name, share in top)
            lines.append(
                f"critical path: makespan "
                f"{format_seconds(float(cp.get('makespan_s', 0.0)))}; "
                f"top stages: {summary}"
            )
    return "\n".join(lines)
