#!/usr/bin/env python3
"""Compare two sets of pipeline-benchmark run outputs.

Usage (from the repository root)::

    python benchmarks/pipeline/compare.py A/ B/

``A/`` and ``B/`` each hold the ``*.json`` run outputs ``run.py --out``
saved (usually several seeds per workload; A is the parent, B the change).
All runs must have measured for the same ``--seconds``.  For every
(workload, metric) the report gives each side's median and quartiles and,
for end-to-end metrics, a verdict on B against A using the metric's bound
from ``BENCHMARK.json``.

The timings and the memory peak vary from run to run, so their sides are
compared as samples:

* ``unresolved`` — a side has fewer than two runs, or either side's
  quartile spread exceeds the bound as a share of its median, unless every
  run of B is better (or worse) than every run of A;
* ``worse`` / ``better`` — B's median differs from A's by more than the
  bound, in the metric's bad or good direction;
* ``same`` — otherwise.

The accuracy metrics (:data:`PAIRED`) are exact functions of the code and
the seed, so B is compared with A seed by seed over the seeds both sides
ran: ``worse`` when any seed got worse by more than the bound, ``better``
when every seed got better by more than it, ``unresolved`` when the sides
share no seed, ``same`` otherwise.

Per-layer and advisory metrics (``signals_per_s``, ``latency_p50_ms``) have
no bound and get no verdict.

Exit codes: 0 no end-to-end metric worse, 1 some metric worse, 2 usage
error (including runs of different lengths).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import load_spec

#: End-to-end metrics that are exact functions of the code and the seed.
PAIRED = ("support_recall", "l1_error_per_coeff")

Runs = dict[tuple[str, str], dict[int, float]]


def load_runs(directory: Path) -> tuple[Runs, set[float]]:
    """``(workload, metric) -> {seed: value}`` over every run output in a
    directory, and the set of ``--seconds`` the runs measured for."""
    values: Runs = {}
    seconds: set[float] = set()
    for path in sorted(directory.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        seconds.add(float(doc["seconds"]))
        metrics = {**doc["result"]["metrics"], **doc.get("advisory", {})}
        for name, metric in metrics.items():
            if metric["value"] is not None:
                values.setdefault((doc["workload"], name), {})[
                    doc["seed"]] = float(metric["value"])
    return values, seconds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def verdict(a: list[float], b: list[float], bound: float,
            higher_is_better: bool) -> str:
    """``same``, ``better``, ``worse`` or ``unresolved`` for B against A."""
    sign = 1.0 if higher_is_better else -1.0
    if len(a) < 2 or len(b) < 2 or max(spread(a), spread(b)) > bound:
        # Oriented so that larger is better on both sides.
        good_a, good_b = [sign * v for v in a], [sign * v for v in b]
        if min(good_b) > max(good_a):
            return "better"
        if max(good_b) < min(good_a):
            return "worse"
        return "unresolved"
    med_a, med_b = quartiles(a)[1], quartiles(b)[1]
    change = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if change > bound:
        return "better"
    if change < -bound:
        return "worse"
    return "same"


def paired_verdict(a: dict[int, float], b: dict[int, float], bound: float,
                   higher_is_better: bool) -> str:
    """Seed-by-seed verdict on B against A for a :data:`PAIRED` metric."""
    seeds = sorted(a.keys() & b.keys())
    if not seeds:
        return "unresolved"
    sign = 1.0 if higher_is_better else -1.0
    changes = [sign * (b[s] - a[s]) / (abs(a[s]) or 1.0) for s in seeds]
    if min(changes) < -bound:
        return "worse"
    if min(changes) > bound:
        return "better"
    return "same"


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/pipeline/compare.py",
        description="Per (workload, metric) medians, quartiles and verdicts "
                    "of run set B against run set A.",
    )
    parser.add_argument("a", type=Path, help="parent run outputs")
    parser.add_argument("b", type=Path, help="change run outputs")
    args = parser.parse_args(argv)
    for d in (args.a, args.b):
        if not d.is_dir():
            print(f"error: {d} is not a directory", file=sys.stderr)
            return 2
    spec = load_spec()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    (runs_a, seconds_a), (runs_b, seconds_b) = (load_runs(args.a),
                                                load_runs(args.b))
    if not runs_a or not runs_b:
        print("error: no run outputs to compare", file=sys.stderr)
        return 2
    if len(seconds_a | seconds_b) > 1:
        print(f"error: runs measured for different lengths "
              f"({', '.join(f'{s:g} s' for s in sorted(seconds_a | seconds_b))})"
              f" are not comparable", file=sys.stderr)
        return 2

    worse = 0
    order = {w["name"]: i for i, w in enumerate(spec["workloads"])}
    names = list(e2e) + list(per_layer)
    keys = sorted(set(runs_a) & set(runs_b),
                  key=lambda k: (order.get(k[0], 99), names.index(k[1])
                                 if k[1] in names else 999, k[1]))
    print(f"{'workload':<12} {'metric':<40} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'change':>8}  verdict")
    for wl, name in keys:
        by_seed_a, by_seed_b = runs_a[(wl, name)], runs_b[(wl, name)]
        a, b = list(by_seed_a.values()), list(by_seed_b.values())
        med_a, med_b = quartiles(a)[1], quartiles(b)[1]
        change = f"{(med_b - med_a) / abs(med_a):+.1%}" if med_a else "-"
        if name in e2e:
            m = e2e[name]
            higher = m["better"] == "higher"
            if name in PAIRED:
                result = paired_verdict(by_seed_a, by_seed_b, m["bound"],
                                        higher)
            else:
                result = verdict(a, b, m["bound"], higher)
            worse += result == "worse"
        else:
            result = "-"
        print(f"{wl:<12} {name:<40} {_fmt(a):<34} {_fmt(b):<34} "
              f"{change:>8}  {result}")
    only = sorted(set(runs_a) ^ set(runs_b))
    if only:
        print(f"(not in both sets: {len(only)} workload/metric pairs)")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
