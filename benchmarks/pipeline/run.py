#!/usr/bin/env python3
"""Wall-clock benchmark of the numpy sparse-FFT pipeline.

Usage (from the repository root)::

    python benchmarks/pipeline/run.py --workload batch-20 --seed 0
    python benchmarks/pipeline/run.py --seed 0              # all workloads
    python benchmarks/pipeline/run.py --workload batch-20 --trace 1

One workload runs in one process as a single-client closed loop: the next
call starts when the previous one returned.  The untraced run (``--trace
0``) prints every end-to-end metric named in ``BENCHMARK.json``; the traced
run (``--trace 1``) prints every per-layer metric and writes its spans as a
``repro.run/1`` record.  Without ``--workload`` every workload runs, one
process each.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The same
object is saved under ``--out`` for ``compare.py``.

Exit codes: 0 outputs correct, 1 an output failed a check, 2 the program
sources or a clean environment are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
DEFAULT_OUT = HERE / "results"


def load_spec() -> dict:
    """The benchmark definition: workloads, metrics, units and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(spec: dict, trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics one run must print."""
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(result, units: dict[str, str]) -> dict:
    """The final JSON object of a run; non-finite values mark it incorrect."""
    missing = sorted(set(units) - set(result.metrics))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    finite = all(math.isfinite(result.metrics[name]) for name in units)
    return {
        "correct": bool(result.correct and finite),
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": float(result.metrics[name])
                   if math.isfinite(result.metrics[name]) else None,
                   "unit": unit}
            for name, unit in units.items()
        },
    }


def _check_environment() -> str | None:
    """Why the benchmark cannot run here, or ``None``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"program sources not found at {SRC}"
    pinned = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if pinned:
        # Wisdom, backend, executor-mode and parameter pins would change the
        # code path under test; every workload runs on defaults.
        return f"refusing to run with {', '.join(pinned)} set"
    return None


def _parse(argv, spec) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/pipeline/run.py",
        description="Wall-clock benchmark of the numpy sFFT pipeline.",
    )
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (default 0)")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measured seconds per run (default and the "
                             "value to compare at: BENCHMARK.json "
                             "run_seconds; compare.py refuses runs of "
                             "different lengths)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for run outputs (default %(default)s)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def run_one(args, spec) -> int:
    sys.path.insert(0, str(SRC))
    import repro
    from repro.obs import write_jsonl

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from harness import ADVISORY_UNITS, run_workload

    trace = bool(args.trace)
    result = run_workload(args.workload, seed=args.seed,
                          seconds=args.seconds, trace=trace)
    line = result_line(result, metric_units(spec, trace))
    advisory = {name: {"value": result.metrics[name], "unit": unit}
                for name, unit in ADVISORY_UNITS.items()
                if name in result.metrics}

    print(f"workload {args.workload} seed {args.seed} "
          f"{'traced' if trace else 'untraced'} {args.seconds:g} s")
    for note in result.notes:
        print(f"  {note}")
    for label, metrics in (("", line["metrics"]), ("(advisory)", advisory)):
        for name, m in metrics.items():
            print(f"  {name:<42} {m['value']!s:>24} {m['unit']} {label}")

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if result.record is not None:
        trace_path = args.out / f"{stem}.jsonl"
        trace_path.unlink(missing_ok=True)
        write_jsonl(str(trace_path), result.record)
        print(f"  spans: {len(result.record['spans'])} written to "
              f"{trace_path}")
    with open(args.out / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "seconds": args.seconds,
                   "result": line, "advisory": advisory}, fh, indent=1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(args, spec) -> int:
    """Every workload in its own process; one combined final line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", w["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", str(args.out)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        print(proc.stdout, end="")
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        try:
            line = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for name, m in line["metrics"].items():
            combined["metrics"][f"{w['name']}.{name}"] = m
    print(json.dumps(combined))
    return status if combined["correct"] else max(status, 1)


def main(argv=None) -> int:
    problem = _check_environment()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    spec = load_spec()
    args = _parse(argv, spec)
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
