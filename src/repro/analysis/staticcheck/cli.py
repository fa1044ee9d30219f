"""``python -m repro lint`` — run reprolint and report findings.

Usage::

    python -m repro lint [paths...] [--json] [--no-kernels] [--root DIR]

With no paths, lints every source file under ``src/repro`` and runs the
kernel battery (Algorithm-2 binner trace + symbolic proof, naive-histogram
negative control).  Explicit paths lint just those files with the AST
rules (the battery is repo-level and skipped).

``--json`` emits one ``repro.lint/1`` record per finding (JSONL on
stdout) for machine consumption — ``scripts/check_bench_json.py``
validates the same schema.

Exit codes: 0 no findings, 1 any finding reported (warnings included:
this is the one lint gate, and the committed tree carries none), 2
usage/IO errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ...errors import ParameterError
from .engine import collect_findings, repo_root
from .findings import Finding
from .rules import lint_source

__all__ = ["lint_main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Static analysis: kernel race checks + repo invariants.",
    )
    parser.add_argument("paths", nargs="*",
                        help="specific files to lint (default: src/repro "
                             "plus the kernel battery)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: auto-detect)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit repro.lint/1 JSONL records")
    parser.add_argument("--no-kernels", action="store_true",
                        help="skip the kernel race battery (AST rules only)")
    return parser


def _lint_paths(paths: list[str]) -> list[Finding]:
    findings: list[Finding] = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        rel = path.replace(os.sep, "/")
        findings.extend(lint_source(source, path=rel))
    return findings


def lint_main(argv: list[str]) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.paths:
            for path in args.paths:
                if not os.path.exists(path):
                    print(f"lint: no such file: {path}", file=sys.stderr)
                    return 2
            findings = _lint_paths(args.paths)
        else:
            root = args.root or repo_root()
            if not os.path.isdir(os.path.join(root, "src", "repro")):
                print(f"lint: no src/repro under root {root!r}",
                      file=sys.stderr)
                return 2
            findings = collect_findings(root, kernels=not args.no_kernels)
    except (OSError, SyntaxError, ParameterError) as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    errors = [f for f in findings if f.severity == "error"]
    warnings = [f for f in findings if f.severity == "warning"]
    if args.as_json:
        for finding in findings:
            print(json.dumps(finding.to_json(), sort_keys=True))
    else:
        for finding in findings:
            print(finding.render())
        scope = "paths" if args.paths else "src/repro" + (
            "" if args.no_kernels else " + kernel battery"
        )
        print(f"reprolint: {scope}: {len(errors)} error(s), "
              f"{len(warnings)} warning(s)")
    return 1 if findings else 0
