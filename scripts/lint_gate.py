#!/usr/bin/env python
"""Static-analysis gate over reprolint findings.

Usage::

    python scripts/lint_gate.py [options]

Runs the repo linter (``python -m repro lint`` in-process: the AST
invariant rules plus the kernel race-detector battery) and compares the
finding *fingerprints* against the committed baseline (default
``LINT_BASELINE.json``).  Fingerprints are line-number-free
(``rule::path::message``) so pure code motion does not churn the gate.

Modes:

* **no baseline on disk, or --record** — recording mode: snapshot the
  current findings into a fresh baseline, print what was recorded, exit 0.
  This is why the CI job is green before a baseline exists, and how a
  pre-existing-findings debt is adopted deliberately rather than silently.
* **gate mode** — exit 1 iff a finding appears whose fingerprint is not in
  the baseline (each printed with its ``path:line`` anchor).  Baselined
  fingerprints that no longer fire are reported as fixed (informational);
  re-record to shrink the baseline.

Options::

    --baseline PATH   baseline document            [LINT_BASELINE.json]
    --root PATH       repository root to lint      [auto-detected]
    --record          force recording mode (re-snapshot the baseline)
    --no-kernels      skip the kernel race-detector battery
    --json            print the machine-readable verdict document

Exit codes: 0 ok / recorded, 1 new findings, 2 usage/IO errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.analysis.staticcheck import (  # noqa: E402
    LINT_BASELINE_SCHEMA,
    collect_findings,
    validate_lint_baseline,
)
from repro.errors import ParameterError  # noqa: E402


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python scripts/lint_gate.py",
        description="Gate fresh reprolint findings against a baseline.",
    )
    parser.add_argument("--baseline", default="LINT_BASELINE.json")
    parser.add_argument("--root", default=None)
    parser.add_argument("--record", action="store_true",
                        help="snapshot a fresh baseline instead of gating")
    parser.add_argument("--no-kernels", action="store_true",
                        help="skip the kernel race-detector battery")
    parser.add_argument("--json", action="store_true", dest="as_json")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        findings = collect_findings(args.root, kernels=not args.no_kernels)
    except (ParameterError, OSError) as exc:
        print(f"lint_gate: cannot lint: {exc}", file=sys.stderr)
        return 2
    fresh = {f.fingerprint(): f for f in findings}

    recording = args.record or not os.path.exists(args.baseline)
    if recording:
        baseline = {
            "schema": LINT_BASELINE_SCHEMA,
            "fingerprints": sorted(fresh),
        }
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
        reason = "--record" if args.record else "no baseline — recording"
        print(f"lint_gate: {reason}: wrote {args.baseline} "
              f"({len(fresh)} fingerprint(s))")
        if args.as_json:
            print(json.dumps({"schema": "repro.lintgate/1",
                              "status": "recorded",
                              "baseline": args.baseline,
                              "fingerprints": len(fresh)}, indent=2))
        return 0

    with open(args.baseline, encoding="utf-8") as fh:
        try:
            baseline = json.load(fh)
        except json.JSONDecodeError as exc:
            print(f"lint_gate: {args.baseline}: not JSON ({exc})",
                  file=sys.stderr)
            return 2
    problems = validate_lint_baseline(baseline)
    if problems:
        for problem in problems[:5]:
            print(f"lint_gate: {args.baseline}: {problem}", file=sys.stderr)
        return 2

    known = set(baseline["fingerprints"])
    new = sorted(fp for fp in fresh if fp not in known)
    fixed = sorted(fp for fp in known if fp not in fresh)

    verdict = {
        "schema": "repro.lintgate/1",
        "status": "new-findings" if new else "ok",
        "baseline": args.baseline,
        "new": [fresh[fp].to_json() for fp in new],
        "fixed": fixed,
    }
    if args.as_json:
        print(json.dumps(verdict, indent=2))
    else:
        for fp in fixed:
            print(f"lint_gate: fixed (re-record to drop from baseline): {fp}")
    if new:
        for fp in new:
            print(f"lint_gate: NEW {fresh[fp].render()}", file=sys.stderr)
        print(f"lint_gate: {len(new)} new finding(s) not in {args.baseline}",
              file=sys.stderr)
        return 1
    if not args.as_json:
        print(f"lint_gate: ok — {len(fresh)} finding(s), all baselined "
              f"({len(known)} in baseline, {len(fixed)} fixed)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
