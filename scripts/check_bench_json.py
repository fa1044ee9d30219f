#!/usr/bin/env python
"""Validate benchmark JSON artifacts and JSONL run records.

Usage::

    python scripts/check_bench_json.py [paths...]

With no paths, scans the repository root for ``BENCH_*.json`` files and
``*.jsonl`` run-record files.  Validation rules:

* every file must parse as JSON (``.jsonl``: one JSON document per line);
* ``.jsonl`` lines are dispatched on their ``schema`` field: lines
  declaring ``"repro.lint/1"`` are validated as linter findings
  (``repro.analysis.staticcheck.validate_lint_record``, the output of
  ``python -m repro lint --json``); lines declaring ``"repro.attrib/1"``
  are validated as regression-attribution records
  (``repro.obs.validate_attrib_record``, the output of
  ``python -m repro why --json`` / ``bench_gate.py --attrib``); lines
  declaring ``"repro.wisdom/1"`` are validated as auto-tuner wisdom
  entries (``repro.tune.validate_wisdom_record``, the output of
  ``python -m repro tune --json``), with per-class version monotonicity
  enforced across the whole file; all
  other lines must be valid ``repro.run/1`` records (see
  ``repro.obs.validate_run_record`` — one schema, shared with the
  library so CI and the writer cannot drift);
  records named ``bench-executor`` additionally must carry the stack
  geometry and positive ``wall_s_workers_<N>`` walls (the executor
  scaling curve), and a ``params.mode`` of ``thread``/``process`` when
  present (records predate the process-pool executor);
* ``WISDOM.json`` (the committed auto-tuner store) is JSONL despite its
  extension and is validated line-by-line like any other wisdom stream;
* ``BENCH_*.json`` declaring ``"schema": "repro.baseline/1"`` (the
  regression-gate artifact ``BENCH_BASELINE.json``) is validated with the
  shared ``repro.obs`` validator, which names the offending entry in
  every message;
* other ``BENCH_*.json`` in pytest-benchmark format (a top-level
  ``benchmarks`` array) must give every entry a ``name`` and ``stats``.

Exit codes: 0 all valid (or nothing to check), 1 validation failures,
2 usage/IO errors.
"""

from __future__ import annotations

import glob
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.analysis.staticcheck import (  # noqa: E402
    LINT_SCHEMA,
    validate_lint_record,
)
from repro.obs import (  # noqa: E402
    ATTRIB_SCHEMA,
    BASELINE_SCHEMA,
    validate_attrib_record,
    validate_baseline,
    validate_run_record,
)
from repro.tune import (  # noqa: E402
    WISDOM_SCHEMA,
    validate_wisdom_record,
)


def check_executor_record(record: dict) -> list[str]:
    """Shape checks specific to ``bench-executor`` scaling records.

    On top of the generic ``repro.run/1`` schema these records must carry
    the stack geometry in ``params`` and at least one positive
    ``wall_s_workers_<N>`` wall per worker leg in ``results``.
    """
    problems: list[str] = []
    params = record.get("params") or {}
    for key in ("n", "k", "S"):
        if not isinstance(params.get(key), int):
            problems.append(f"bench-executor params.{key} must be an int")
    if not isinstance(params.get("fft_backend"), str):
        problems.append("bench-executor params.fft_backend must be a string")
    # ``mode`` arrived with the process-pool executor; records written
    # before it are still valid, but when present it must name a real mode.
    if "mode" in params and params["mode"] not in ("thread", "process"):
        problems.append(
            "bench-executor params.mode must be 'thread' or 'process', "
            f"got {params['mode']!r}"
        )
    results = record.get("results") or {}
    walls = {
        key: val for key, val in results.items()
        if key.startswith("wall_s_workers_")
        and key[len("wall_s_workers_"):].isdigit()
    }
    if not walls:
        problems.append(
            "bench-executor results must include at least one "
            "wall_s_workers_<N> timing"
        )
    for key, val in sorted(walls.items()):
        if not (isinstance(val, (int, float)) and not isinstance(val, bool)
                and val > 0):
            problems.append(f"bench-executor results.{key} must be > 0")
    for key in ("speedup_4v1_x",):
        if key in results:
            val = results[key]
            if not (isinstance(val, (int, float))
                    and not isinstance(val, bool) and val > 0):
                problems.append(f"bench-executor results.{key} must be > 0")
    return problems


def check_jsonl(path: str) -> list[str]:
    """Problems found in a JSONL run-record file."""
    problems: list[str] = []
    #: class key -> last seen version, for cross-line monotonicity.
    wisdom_versions: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"{path}:{lineno}: not JSON ({exc})")
                continue
            if isinstance(record, dict) \
                    and record.get("schema") == WISDOM_SCHEMA:
                issues = validate_wisdom_record(record)
                for issue in issues:
                    problems.append(f"{path}:{lineno}: {issue}")
                if not issues:
                    cls, version = record["class"], record["version"]
                    last = wisdom_versions.get(cls)
                    if last is not None and version <= last:
                        problems.append(
                            f"{path}:{lineno}: wisdom version {version} for "
                            f"class {cls!r} is not monotonically increasing "
                            f"(last seen {last})"
                        )
                    wisdom_versions[cls] = max(version,
                                               wisdom_versions.get(cls, 0))
                continue
            if isinstance(record, dict) and record.get("schema") == LINT_SCHEMA:
                for issue in validate_lint_record(record):
                    problems.append(f"{path}:{lineno}: {issue}")
                continue
            if isinstance(record, dict) \
                    and record.get("schema") == ATTRIB_SCHEMA:
                for issue in validate_attrib_record(record):
                    problems.append(f"{path}:{lineno}: {issue}")
                continue
            for issue in validate_run_record(record):
                problems.append(f"{path}:{lineno}: {issue}")
            if isinstance(record, dict) and record.get("name") == "bench-executor":
                for issue in check_executor_record(record):
                    problems.append(f"{path}:{lineno}: {issue}")
    return problems


def check_bench_json(path: str) -> list[str]:
    """Problems found in a BENCH_*.json artifact."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        return [f"{path}: not JSON ({exc})"]
    problems: list[str] = []
    schema = doc.get("schema") if isinstance(doc, dict) else None
    basename = os.path.basename(path)
    if schema == BASELINE_SCHEMA or basename == "BENCH_BASELINE.json":
        return [f"{path}: {p}" for p in validate_baseline(doc)]
    if isinstance(doc, dict) and "benchmarks" in doc:
        entries = doc["benchmarks"]
        if not isinstance(entries, list):
            return [f"{path}: 'benchmarks' must be an array"]
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                problems.append(f"{path}: benchmarks[{i}] must be an object")
                continue
            for key in ("name", "stats"):
                if key not in entry:
                    problems.append(f"{path}: benchmarks[{i}] missing {key!r}")
    return problems


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = sys.argv[1:] if argv is None else argv
    if args and args[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    paths = args or sorted(
        glob.glob(os.path.join(_ROOT, "BENCH_*.json"))
        + glob.glob(os.path.join(_ROOT, "WISDOM.json"))
        + glob.glob(os.path.join(_ROOT, "*.jsonl"))
    )
    if not paths:
        print("check_bench_json: no artifacts found (nothing to validate)")
        return 0
    problems: list[str] = []
    for path in paths:
        if not os.path.exists(path):
            print(f"check_bench_json: no such file: {path}", file=sys.stderr)
            return 2
        if path.endswith(".jsonl") \
                or os.path.basename(path) == "WISDOM.json":
            # The wisdom store is JSONL despite the .json extension
            # (append-only atomic writes want line granularity).
            problems += check_jsonl(path)
        else:
            problems += check_bench_json(path)
    for problem in problems:
        print(f"check_bench_json: {problem}", file=sys.stderr)
    status = "FAILED" if problems else "ok"
    print(f"check_bench_json: {len(paths)} file(s), "
          f"{len(problems)} problem(s) — {status}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
