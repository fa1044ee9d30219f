"""``python -m repro tune`` — measure candidates, persist wisdom.

Usage::

    python -m repro tune [--class NLOG2:K[:NOISE[:BATCH]]]...
                         [--trials T] [--budget M] [--store PATH]
                         [--dry-run] [--json] [--seed S]

With no ``--class``, tunes the committed benchmark classes.  Each class
gets a ranking table (median, IQR, speedup vs the default configuration,
exactness verdict); winners are appended to the ``repro.wisdom/1`` store
unless ``--dry-run``.  ``--json`` additionally prints each class's winner
record as JSONL on stdout (schema-valid, pipeable into
``scripts/check_bench_json.py``).

Exit codes: 0 success, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..errors import ReproError
from .candidates import NOISE_CLASSES, WorkloadClass
from .tuner import TuneConfig, TuneOutcome, tune_class
from .wisdom import WisdomStore

__all__ = ["tune_main", "BENCHMARK_CLASSES"]

#: The classes the committed ``WISDOM.json`` covers (the benchmark suite's
#: shapes: fig5-scale single transforms plus the batch-engine stack).
BENCHMARK_CLASSES = (
    WorkloadClass(1 << 14, 8),
    WorkloadClass(1 << 16, 16),
    WorkloadClass(1 << 18, 64),
    WorkloadClass(1 << 14, 8, "exact", 8),
)


def _class_arg(text: str) -> WorkloadClass:
    parts = text.split(":")
    if not 2 <= len(parts) <= 4:
        raise argparse.ArgumentTypeError(
            f"--class wants NLOG2:K[:NOISE[:BATCH]], got {text!r}"
        )
    try:
        n_log2, k = int(parts[0]), int(parts[1])
        noise = parts[2] if len(parts) > 2 and parts[2] else "exact"
        batch = int(parts[3]) if len(parts) > 3 else 1
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--class wants integer NLOG2:K[:NOISE[:BATCH]], got {text!r}"
        ) from None
    if not 4 <= n_log2 <= 26:
        raise argparse.ArgumentTypeError(
            f"n_log2 must be in [4, 26], got {n_log2}"
        )
    if k < 1 or k >= (1 << n_log2):
        raise argparse.ArgumentTypeError(
            f"k must be in [1, n), got {k} for n=2^{n_log2}"
        )
    if noise not in NOISE_CLASSES:
        raise argparse.ArgumentTypeError(
            f"noise must be one of {NOISE_CLASSES}, got {noise!r}"
        )
    if batch < 1:
        raise argparse.ArgumentTypeError(f"batch must be >= 1, got {batch}")
    return WorkloadClass(1 << n_log2, k, noise, batch)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro tune",
        description="Measured auto-tuner: search candidate (B, L, Comb, "
                    "backend, workers) configurations per workload class "
                    "and persist statistically real winners as wisdom.",
    )
    parser.add_argument("--class", dest="classes", action="append",
                        type=_class_arg, metavar="NLOG2:K[:NOISE[:BATCH]]",
                        help="workload class to tune (repeatable; default: "
                             "the committed benchmark classes)")
    parser.add_argument("--trials", default=5, type=int, metavar="T",
                        help="timed trials per candidate (default 5)")
    parser.add_argument("--budget", default=None, type=int, metavar="M",
                        help="cap the candidate sweep at M configurations "
                             "(default: the full axis sweep)")
    parser.add_argument("--store", default="WISDOM.json", metavar="PATH",
                        help="repro.wisdom/1 JSONL store to append winners "
                             "to (default WISDOM.json)")
    parser.add_argument("--dry-run", action="store_true",
                        help="rank and report only; never write the store")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print each class's winner record as JSONL "
                             "on stdout")
    parser.add_argument("--seed", default=2016, type=int,
                        help="probe-signal seed (default 2016)")
    return parser


def _render_ranking(outcome: TuneOutcome) -> str:
    """The human ranking table for one tuned class."""
    wc = outcome.workload
    lines = [
        f"tuning {wc.key} "
        f"({len(outcome.ranking)} candidates, winner must clear the "
        f"IQR margin)",
        f"  {'rank':>4}  {'candidate':<18} {'B':>6} {'loops':>5} "
        f"{'median':>10} {'iqr':>9} {'vs default':>10}  exact",
    ]
    for rank, stats in enumerate(outcome.ranking, start=1):
        resolved = stats.candidate.resolved(wc.n, wc.k)
        marker = " *" if stats is outcome.winner else "  "
        lines.append(
            f"{marker}{rank:>4}  {stats.label:<18} {resolved['B']:>6} "
            f"{resolved['loops']:>5} {stats.median_s * 1e3:>7.3f} ms "
            f"{stats.iqr_s * 1e3:>6.3f} ms "
            f"{stats.speedup_vs(outcome.default.median_s):>9.2f}x  "
            f"{'yes' if stats.exact else 'NO'}"
        )
    if outcome.improved:
        lines.append(
            f"  winner: {outcome.winner.label} "
            f"({outcome.speedup_x:.2f}x, statistically real)"
        )
    else:
        lines.append(
            "  winner: default (no candidate cleared the noise margin)"
        )
    return "\n".join(lines)


def tune_main(argv: list[str]) -> int:
    """Entry point for ``python -m repro tune``."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return 2
    if args.budget is not None and args.budget < 1:
        print("error: --budget must be >= 1", file=sys.stderr)
        return 2

    classes = args.classes or list(BENCHMARK_CLASSES)
    # A wider sample span than the TuneConfig default: persisted wisdom
    # should ride on the most jitter-resistant measurements we can afford.
    config = TuneConfig(trials=args.trials, target_span_s=0.02)
    store = WisdomStore(args.store)
    for wc in classes:
        try:
            outcome = tune_class(
                wc, config=config, budget=args.budget, seed=args.seed
            )
        except ReproError as exc:
            print(f"error: tuning {wc.key} failed: {exc}", file=sys.stderr)
            return 2
        print(_render_ranking(outcome), file=sys.stderr)
        record = dict(outcome.record)
        if args.dry_run:
            record["version"] = store.next_version(record["class"])
            print(f"  dry-run: not writing {args.store}", file=sys.stderr)
        else:
            record = store.append(record)
            print(
                f"  appended {record['class']} v{record['version']} "
                f"to {args.store}",
                file=sys.stderr,
            )
        if args.as_json:
            print(json.dumps(record, separators=(",", ":")))
    return 0
