#!/usr/bin/env python
"""Performance-regression gate over benchmark run records.

Usage::

    python scripts/bench_gate.py [options]

Reads ``repro.run/1`` records from the runs file (default
``BENCH_RUNS.jsonl``, the file the benchmark session appends to), compares
them against the committed baseline (default ``BENCH_BASELINE.json``).

Modes:

* **no baseline on disk, or --record** — recording mode: snapshot the runs
  into a fresh baseline, print what was recorded, exit 0.  This is why the
  CI job is green before a baseline exists.
* **gate mode** — noise-aware comparison (median vs. baseline median with a
  per-class relative threshold + IQR band + absolute floor; see
  ``docs/observability.md``).  Exits 1 iff a regression is confirmed, with
  the offending (key, metric) pairs named in the verdict table.  On
  failure the gate also runs regression **attribution**: each confirmed
  regression gets a ``repro.attrib/1`` record ranking the per-stage span
  deltas that explain it (with critical-path shares, what-if projections,
  and the unattributed residual), rendered to stdout and — with
  ``--attrib PATH`` — written as validated JSONL.
* **prune mode** (``--prune``) — compact the append-only runs JSONL
  instead of gating: drop verbatim-duplicate records, and with
  ``--prune-keep N`` also superseded records beyond the newest N per run
  key.  Exits 0 after printing what was dropped.

Options::

    --runs PATH          run records to judge      [BENCH_RUNS.jsonl]
    --baseline PATH      baseline document         [BENCH_BASELINE.json]
    --record             force recording mode (re-snapshot the baseline)
    --prune              compact the runs file, then exit
    --prune-keep N       with --prune: keep only the newest N per run key
    --attrib PATH        on regression, write repro.attrib/1 JSONL here
    --classes C [C ...]  metric classes to gate on [wall modeled accuracy]
                         (CI uses "modeled accuracy": machine-independent.
                         The batch-engine amortized timings from
                         ``bench_batch_engine.py`` — ``*_wall_s`` and the
                         dimensionless ``batch_speedup_x`` — class as
                         ``wall``/skipped, so they never fail the
                         machine-independent gate)
    --wall-threshold F / --modeled-threshold F / --accuracy-threshold F /
    --memory-threshold F
                         per-class relative thresholds
    --json               print the machine-readable verdict document

Exit codes: 0 ok / recorded, 1 confirmed regression, 2 usage/IO errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.obs import (  # noqa: E402
    GateConfig,
    attribute_verdict,
    compare_to_baseline,
    make_baseline,
    prune_runs,
    render_attrib_record,
    render_verdict,
    validate_attrib_record,
    validate_baseline,
    validate_run_record,
)
from repro.errors import ParameterError  # noqa: E402
from repro.obs.regress import METRIC_CLASSES  # noqa: E402


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python scripts/bench_gate.py",
        description="Gate fresh benchmark run records against a baseline.",
    )
    parser.add_argument("--runs", default="BENCH_RUNS.jsonl")
    parser.add_argument("--baseline", default="BENCH_BASELINE.json")
    parser.add_argument("--record", action="store_true",
                        help="snapshot a fresh baseline instead of gating")
    parser.add_argument("--prune", action="store_true",
                        help="compact the runs file, then exit")
    parser.add_argument("--prune-keep", type=int, default=None,
                        metavar="N",
                        help="with --prune: newest N records per run key")
    parser.add_argument("--attrib", default=None, metavar="PATH",
                        help="on regression, write repro.attrib/1 JSONL here")
    parser.add_argument("--classes", nargs="+", choices=METRIC_CLASSES,
                        default=list(METRIC_CLASSES), metavar="CLASS")
    parser.add_argument("--wall-threshold", type=float, default=None)
    parser.add_argument("--modeled-threshold", type=float, default=None)
    parser.add_argument("--accuracy-threshold", type=float, default=None)
    parser.add_argument("--memory-threshold", type=float, default=None)
    parser.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _load_records(path: str) -> list[dict] | None:
    """Parse and validate a runs JSONL file; None (after stderr) on error."""
    records: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                print(f"bench_gate: {path}:{lineno}: not JSON ({exc})",
                      file=sys.stderr)
                return None
            problems = validate_run_record(record)
            if problems:
                print(f"bench_gate: {path}:{lineno}: {problems[0]}",
                      file=sys.stderr)
                return None
            records.append(record)
    return records


def _gate_config(args) -> GateConfig:
    thresholds = dict(GateConfig().thresholds)
    for klass in METRIC_CLASSES:
        override = getattr(args, f"{klass}_threshold")
        if override is not None:
            thresholds[klass] = override
    return GateConfig(thresholds=thresholds, classes=tuple(args.classes))


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.prune_keep is not None and not args.prune:
        print("bench_gate: --prune-keep requires --prune", file=sys.stderr)
        return 2

    if not os.path.exists(args.runs):
        print(f"bench_gate: no runs file at {args.runs!r} — run the "
              f"benchmark session first (pytest benchmarks/)",
              file=sys.stderr)
        return 2

    if args.prune:
        try:
            kept, dropped = prune_runs(
                args.runs, keep_per_key=args.prune_keep
            )
            print(f"bench_gate: pruned {args.runs}: kept {kept}, "
                  f"dropped {dropped}")
        except (OSError, ValueError, ParameterError) as exc:
            print(f"bench_gate: prune failed: {exc}", file=sys.stderr)
            return 2
        return 0

    records = _load_records(args.runs)
    if records is None:
        return 2
    if not records:
        print(f"bench_gate: {args.runs!r} holds no records", file=sys.stderr)
        return 2

    recording = args.record or not os.path.exists(args.baseline)
    if recording:
        baseline = make_baseline(records, source=args.runs)
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
        n_metrics = sum(
            len(e["metrics"]) for e in baseline["entries"].values()
        )
        reason = "--record" if args.record else "no baseline — recording"
        print(f"bench_gate: {reason}: wrote {args.baseline} "
              f"({len(baseline['entries'])} key(s), {n_metrics} metric(s) "
              f"from {len(records)} record(s))")
        if args.as_json:
            print(json.dumps({"schema": "repro.gate/1", "status": "recorded",
                              "baseline": args.baseline}, indent=2))
        return 0

    with open(args.baseline, encoding="utf-8") as fh:
        try:
            baseline = json.load(fh)
        except json.JSONDecodeError as exc:
            print(f"bench_gate: {args.baseline}: not JSON ({exc})",
                  file=sys.stderr)
            return 2
    problems = validate_baseline(baseline)
    if problems:
        for problem in problems[:5]:
            print(f"bench_gate: {args.baseline}: {problem}", file=sys.stderr)
        return 2

    verdict = compare_to_baseline(baseline, records, _gate_config(args))
    if args.as_json:
        print(json.dumps(verdict.to_json(), indent=2))
    else:
        print(render_verdict(verdict))
    if verdict.status == "regression":
        attributions = attribute_verdict(baseline, records, verdict)
        for record in attributions:
            problems = validate_attrib_record(record)
            if problems:  # a bug in the attributor, not in the run data
                print(f"bench_gate: internal: invalid attrib record: "
                      f"{problems[0]}", file=sys.stderr)
                return 2
        if args.attrib:
            with open(args.attrib, "w", encoding="utf-8") as fh:
                for record in attributions:
                    fh.write(json.dumps(record, separators=(",", ":")))
                    fh.write("\n")
            print(f"bench_gate: wrote {len(attributions)} attribution "
                  f"record(s) to {args.attrib}")
        if not args.as_json:
            for record in attributions:
                print()
                print(render_attrib_record(record))
        for check, record in zip(verdict.regressions(), attributions):
            top = record["contributors"][:1]
            blame = (f"; top contributor {top[0]['metric']} "
                     f"(delta {top[0]['delta']:+.6g})" if top else "")
            print(f"bench_gate: REGRESSION {check.key} :: {check.metric} "
                  f"({check.base_median:.6g} -> {check.fresh_median:.6g}, "
                  f"{check.ratio:.2f}x){blame}", file=sys.stderr)
        return 1
    print("bench_gate: ok — no confirmed regression")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
