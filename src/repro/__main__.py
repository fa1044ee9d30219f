"""Package-level CLI: ``python -m repro [n_log2] [k]`` / ``python -m repro why``.

The default (demo) form runs one end-to-end sparse transform (default
n = 2^18, k = 64), checks it against the dense FFT, and shows the simulated
cusFFT kernel timeline — a 10-second tour of what the library does.

Observability flags:

* ``--trace out.json`` — export the combined Chrome trace (CPU pipeline
  steps on one track, each simulated CUDA stream on its own) for
  ``chrome://tracing`` / https://ui.perfetto.dev;
* ``--json`` — emit a machine-readable ``repro.run/1`` record instead of
  the human text (one JSON document on stdout), including a ``gate`` block
  judging this run against ``BENCH_BASELINE.json`` when one exists
  (``"baseline": null`` otherwise);
* ``--batch S`` — additionally push a stack of ``S`` fresh sparse signals
  through the batched execution engine (:func:`repro.core.sfft_batch`)
  under one shared plan and report the amortized per-transform time next
  to the single-call time;
* ``--workers N`` — run the batch leg through the sharded pipelined
  executor (:class:`repro.core.ShardedExecutor`) with ``N`` workers
  (default 1: the serial fused engine);
* ``--executor-mode thread|process`` — pick the executor's execution
  mode for the batch leg: ``thread`` (default) or ``process``, the
  shared-memory process pool that scales Python-level stage work past
  the GIL (see ``docs/parallelism.md``);
* ``--fft-backend NAME`` — select the process-wide FFT backend
  (``numpy``/``scipy``/``pyfftw``; see :mod:`repro.core.fft_backend`).
  The *resolved* backend (after optional-dependency fallback) is echoed
  in text output and in the ``repro.run/1`` record's params.

``python -m repro why`` is the one reader of run records and baselines:
*why* is the run slow?  It computes the critical path of the newest run
record (per-stage path share + Amdahl what-if projections), attributes any
confirmed regression against the baseline to the span deltas that explain
it (``repro.attrib/1`` records; ``--json`` emits them as JSONL), and diffs
two arbitrary records with ``--diff A B``.  ``--flame PATH`` writes
collapsed-stack flamegraphs: differential ones when there are two runs to
compare, the newest record's plain stacks when its key has only one.

Exit codes: 0 success, 1 incomplete recovery (demo), 2 malformed
arguments / unreadable artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import make_sparse_signal, sfft
from .cusim import render_summary, render_timeline
from .gpu import OPTIMIZED, CusFFT
from .obs import (
    MetricsRegistry,
    Tracer,
    attribute_run,
    attribute_verdict,
    collapsed_stacks,
    compare_to_baseline,
    critical_path,
    diff_attrib_record,
    diff_collapsed_stacks,
    make_run_record,
    render_attrib_record,
    render_critical_path,
    render_obs_summary,
    validate_attrib_record,
    validate_baseline,
    validate_run_record,
)

#: n = 2^n_log2 must stay addressable and fit comfortably in host memory.
_MIN_LOG2, _MAX_LOG2 = 4, 26


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="End-to-end sparse FFT demo on the simulated GPU.",
    )
    parser.add_argument("n_log2", nargs="?", default=18, type=_log2_arg,
                        help=f"signal size exponent ({_MIN_LOG2}-{_MAX_LOG2},"
                             " default 18)")
    parser.add_argument("k", nargs="?", default=64, type=_sparsity_arg,
                        help="sparsity (>= 1, default 64)")
    parser.add_argument("--trace", metavar="PATH",
                        help="write a Chrome trace_event JSON file")
    parser.add_argument("--json", action="store_true",
                        help="print a repro.run/1 record instead of text")
    parser.add_argument("--batch", metavar="S", default=1, type=_batch_arg,
                        help="also run a stack of S signals through the "
                             "batched engine under one plan (default: off)")
    parser.add_argument("--workers", metavar="N", default=1,
                        type=_workers_arg,
                        help="drive the batch leg through the sharded "
                             "executor with N workers (default: 1, "
                             "the serial fused engine)")
    parser.add_argument("--executor-mode", metavar="MODE", default=None,
                        choices=("thread", "process"),
                        help="sharded-executor mode for the batch leg: "
                             "'thread' (GIL-bound pool) or 'process' "
                             "(shared-memory process pool; default: "
                             "$REPRO_EXECUTOR_MODE or thread)")
    from .core.fft_backend import registered_backends

    parser.add_argument("--fft-backend", metavar="NAME", default=None,
                        choices=registered_backends(),
                        help="FFT backend for every dense FFT "
                             f"({', '.join(registered_backends())}; "
                             "default: $REPRO_FFT_BACKEND or numpy)")
    return parser


def _log2_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"n_log2 must be an integer, got {text!r}"
        ) from None
    if not _MIN_LOG2 <= value <= _MAX_LOG2:
        raise argparse.ArgumentTypeError(
            f"n_log2 must be in [{_MIN_LOG2}, {_MAX_LOG2}], got {value}"
        )
    return value


def _batch_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"batch size must be an integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"batch size must be >= 1, got {value}"
        )
    return value


def _workers_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be an integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"workers must be >= 1, got {value}"
        )
    return value


def _sparsity_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"k must be an integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"k must be >= 1, got {value}")
    return value


def _load_json(path: str, what: str):
    """Load a JSON artifact; returns (doc, error message or None)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh), None
    except json.JSONDecodeError as exc:
        return None, f"error: {what} {path!r} is not JSON ({exc})"
    except OSError as exc:
        return None, f"error: cannot read {what} {path!r}: {exc}"


def _gate_block(record: dict, baseline_path: str | None = None) -> dict:
    """The ``gate`` block of a ``--json`` demo record.

    ``{"baseline": null}`` when no baseline document exists; otherwise the
    verdict of judging this one record against it.
    """
    path = baseline_path or os.environ.get(
        "REPRO_BENCH_BASELINE", "BENCH_BASELINE.json"
    )
    if not os.path.exists(path):
        return {"baseline": None}
    doc, err = _load_json(path, "baseline")
    if doc is None or validate_baseline(doc):
        return {"baseline": path, "error": err or "invalid baseline document"}
    verdict = compare_to_baseline(doc, [record])
    return {"baseline": path, **verdict.to_json()}


# --------------------------------------------------------------------------
# why-analysis: `python -m repro why`
# --------------------------------------------------------------------------

def _build_why_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro why",
        description="Why is it slow? Critical path, differential profiles, "
                    "and regression attribution over run records.",
    )
    parser.add_argument("--runs", default="BENCH_RUNS.jsonl",
                        help="run-record JSONL to analyze")
    parser.add_argument("--baseline", default=None,
                        help="baseline document (default: "
                             "$REPRO_BENCH_BASELINE or BENCH_BASELINE.json)")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None,
                        help="compare two record files instead of gating "
                             "(each: repro.run/1 JSONL or single record; "
                             "the newest record of each file is used)")
    parser.add_argument("--top", default=5, type=int, metavar="N",
                        help="contributors to rank per record (default 5)")
    parser.add_argument("--what-if", default=2.0, type=float,
                        dest="what_if", metavar="F",
                        help="hypothetical per-stage speedup factor for "
                             "projections (default 2.0)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit repro.attrib/1 records as JSONL")
    parser.add_argument("--flame", metavar="PATH",
                        help="write a differential collapsed-stack file "
                             "(stack base_usec fresh_usec per line), or the "
                             "newest record's stacks when its key has one "
                             "run")
    return parser


def _read_record_file(path: str) -> tuple[list[dict] | None, str | None]:
    """Records from a JSONL file or a single-record JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return None, f"error: cannot read {path!r}: {exc}"
    try:
        doc = json.loads(text)
        records = [doc] if isinstance(doc, dict) else doc
    except json.JSONDecodeError:
        records = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                return None, f"error: {path}:{lineno}: not JSON ({exc})"
    if not isinstance(records, list) or not records:
        return None, f"error: {path!r} holds no run records"
    for i, record in enumerate(records):
        problems = validate_run_record(record)
        if problems:
            return None, f"error: {path!r} record {i}: {problems[0]}"
    return records, None


def why_main(argv: list[str]) -> int:
    """``python -m repro why`` — attribution over recorded runs."""
    parser = _build_why_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.top < 1 or args.what_if <= 0:
        print("error: --top must be >= 1 and --what-if > 0",
              file=sys.stderr)
        return 2

    flame_sides: tuple[list, list] | None = None
    if args.diff is not None:
        sides = []
        for path in args.diff:
            records, err = _read_record_file(path)
            if records is None:
                print(err, file=sys.stderr)
                return 2
            sides.append(records[-1])
        rec_a, rec_b = sides
        attribs = [diff_attrib_record(
            rec_a, rec_b, top_n=args.top, what_if_factor=args.what_if,
        )]
        fresh_spans = rec_b.get("spans") or []
        flame_sides = (rec_a.get("spans") or [], fresh_spans)
    else:
        if not os.path.exists(args.runs):
            print(f"error: no runs file at {args.runs!r} — run the "
                  f"benchmarks (or `python -m repro --json`) first",
                  file=sys.stderr)
            return 2
        records, err = _read_record_file(args.runs)
        if records is None:
            print(err, file=sys.stderr)
            return 2

        baseline = None
        baseline_path = args.baseline or os.environ.get(
            "REPRO_BENCH_BASELINE", "BENCH_BASELINE.json"
        )
        if os.path.exists(baseline_path):
            baseline, err = _load_json(baseline_path, "baseline")
            if baseline is None:
                print(err, file=sys.stderr)
                return 2
            problems = validate_baseline(baseline)
            if problems:
                print(f"error: invalid baseline {baseline_path!r}: "
                      f"{problems[0]}", file=sys.stderr)
                return 2
        elif args.baseline is not None:
            print(f"error: no baseline at {baseline_path!r}",
                  file=sys.stderr)
            return 2

        verdict = (compare_to_baseline(baseline, records)
                   if baseline is not None else None)
        if verdict is not None and verdict.status == "regression":
            attribs = attribute_verdict(
                baseline, records, verdict,
                top_n=args.top, what_if_factor=args.what_if,
            )
        else:
            attribs = [attribute_run(
                baseline, records,
                top_n=args.top, what_if_factor=args.what_if,
            )]
        from .obs.regress import run_key

        latest_key = attribs[-1]["key"]
        same_key = [r for r in records if run_key(r)[0] == latest_key]
        fresh_spans = (same_key[-1].get("spans") or []) if same_key else []
        if len(same_key) >= 2:
            flame_sides = (same_key[0].get("spans") or [], fresh_spans)

    for record in attribs:
        problems = validate_attrib_record(record)
        if problems:  # a bug in the attributor, not in the input data
            print(f"error: internal: invalid attrib record: {problems[0]}",
                  file=sys.stderr)
            return 2

    if args.flame:
        if flame_sides is not None:
            lines = diff_collapsed_stacks(*flame_sides)
        else:
            lines = collapsed_stacks(fresh_spans)
            if not lines:
                print("error: no spans to export for --flame",
                      file=sys.stderr)
                return 2
        try:
            with open(args.flame, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.flame!r}: {exc}",
                  file=sys.stderr)
            return 2

    if args.as_json:
        for record in attribs:
            print(json.dumps(record, separators=(",", ":")))
        return 0

    blocks = [render_attrib_record(record) for record in attribs]
    if fresh_spans:
        blocks.append(render_critical_path(
            critical_path(fresh_spans), what_if_factor=args.what_if,
        ))
    print("\n\n".join(blocks))
    if args.flame and flame_sides is None:
        print(f"\ncollapsed stacks written to {args.flame} "
              f"(feed to flamegraph.pl or speedscope)")
    elif args.flame:
        print(f"\ndifferential collapsed stacks written to {args.flame} "
              f"(feed to flamegraph.pl --negate or difffolded workflows)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["why"]:
        return why_main(argv[1:])
    if argv[:1] == ["lint"]:
        from .analysis.staticcheck.cli import lint_main

        return lint_main(argv[1:])
    if argv[:1] == ["tune"]:
        from .tune.cli import tune_main

        return tune_main(argv[1:])
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the clear message; surface its code
        # (2 for usage errors) instead of letting SystemExit unwind.
        return int(exc.code or 0)
    logn, k = args.n_log2, args.k
    n = 1 << logn
    if k >= n:
        print(f"error: k={k} must be smaller than n=2^{logn}={n}",
              file=sys.stderr)
        return 2

    from .core.fft_backend import default_backend_name, set_default_backend

    # Resolve the FFT backend once for the whole process: the resolved name
    # (after optional-dependency fallback) is what gets echoed everywhere.
    if args.fft_backend is not None:
        fft_backend = set_default_backend(args.fft_backend)
    else:
        fft_backend = default_backend_name()

    tracer = Tracer()
    metrics = MetricsRegistry()

    # Echo where the transform's configuration came from (explicit kwargs,
    # the wisdom store, environment overrides, or paper defaults) so a
    # `--json` record proves wisdom consumption end to end.
    from .core.params import resolve_sfft_config

    demo_resolved = resolve_sfft_config(n, k)

    sig = make_sparse_signal(n, k, seed=2016)
    t0 = time.perf_counter()
    result = sfft(sig.time, k, seed=1, tracer=tracer, metrics=metrics)
    t_sparse = time.perf_counter() - t0
    t0 = time.perf_counter()
    # The demo times sFFT *against* numpy's FFT head-to-head on purpose.
    dense = np.fft.fft(sig.time)  # reprolint: ignore[fft-registry-bypass]
    t_dense = time.perf_counter() - t0

    ok = set(result.locations.tolist()) == set(sig.locations.tolist())
    err = np.abs(result.to_dense() - sig.dense_spectrum()).sum() / (k * n)

    # Optional batched-engine leg: S fresh signals, one shared plan, one
    # sfft_batch call — amortized per-transform time vs the single call.
    batch_stats = None
    if args.batch > 1:
        from .core import ShardedExecutor, make_plan, sfft_batch

        S = args.batch
        plan = make_plan(n, k, seed=1)
        batch_sigs = [
            make_sparse_signal(n, k, seed=2016 + 101 * (t + 1))
            for t in range(S)
        ]
        stack = np.stack([s.time for s in batch_sigs])
        executor = None
        if args.workers > 1 or args.executor_mode is not None:
            executor = ShardedExecutor(
                workers=args.workers, mode=args.executor_mode
            )
        t0 = time.perf_counter()
        batch_results = sfft_batch(
            stack, plan=plan, executor=executor,
        )
        t_batch = time.perf_counter() - t0
        batch_ok = all(
            set(r.locations.tolist()) == set(s.locations.tolist())
            for r, s in zip(batch_results, batch_sigs)
        )
        batch_stats = {
            "size": S,
            "workers": args.workers,
            "mode": executor.mode if executor is not None else "serial",
            "wall_s": t_batch,
            "amortized_s": t_batch / S,
            "exact": batch_ok,
        }

    run = CusFFT.create(n, k, config=OPTIMIZED).execute(
        sig.time, seed=1, tracer=tracer, metrics=metrics
    )

    if args.trace:
        try:
            tracer.export_chrome_trace(args.trace)
        except OSError as exc:
            print(f"error: cannot write trace to {args.trace!r}: {exc}",
                  file=sys.stderr)
            return 2

    if args.json:
        record = make_run_record(
            "repro-demo",
            params={"n": n, "k": k, "n_log2": logn,
                    "fft_backend": fft_backend, "workers": args.workers,
                    "config_source": demo_resolved.source,
                    **({"wisdom_class": demo_resolved.class_key}
                       if demo_resolved.class_key is not None else {}),
                    **({"executor_mode": batch_stats["mode"]}
                       if batch_stats is not None else {})},
            tracer=tracer,
            registry=metrics,
            results={
                "recovery_exact": ok,
                "l1_error_per_coeff": float(err),
                "sfft_wall_s": t_sparse,
                "dense_fft_wall_s": t_dense,
                "modeled_gpu_s": run.modeled_time_s,
                **(
                    {
                        "batch_size_x": batch_stats["size"],
                        "batch_exact": batch_stats["exact"],
                        "batch_wall_s": batch_stats["wall_s"],
                        "batch_amortized_wall_s": batch_stats["amortized_s"],
                    }
                    if batch_stats is not None
                    else {}
                ),
            },
        )
        # One document per run: downstream tooling gets the gate verdict
        # (or the explicit absence of a baseline) alongside the record.
        record["gate"] = _gate_block(record)
        print(json.dumps(record, indent=2))
        return 0 if ok else 1

    print(f"repro: sparse FFT of an exactly {k}-sparse signal, n = 2^{logn}")
    print(f"  fft backend: {fft_backend}")
    print(f"  config source: {demo_resolved.source}"
          + (f" ({demo_resolved.class_key})"
             if demo_resolved.class_key is not None else ""))
    print(f"  recovery: {'exact' if ok else 'INCOMPLETE'}  "
          f"(L1/coeff = {err:.2e})")
    print(f"  wall-clock: sfft {t_sparse * 1e3:.1f} ms vs numpy.fft "
          f"{t_dense * 1e3:.1f} ms")
    if batch_stats is not None:
        print(f"  batched engine: {batch_stats['size']} signals in "
              f"{batch_stats['wall_s'] * 1e3:.1f} ms "
              f"({batch_stats['amortized_s'] * 1e3:.2f} ms/transform, "
              f"{batch_stats['workers']} worker(s), "
              f"{batch_stats['mode']} mode, "
              f"recovery {'exact' if batch_stats['exact'] else 'INCOMPLETE'})")
    print(f"\nsimulated cusFFT (Tesla K20x model): "
          f"{run.modeled_time_s * 1e3:.3f} ms")
    print(render_summary(run.report))
    print()
    print(render_timeline(run.report, max_rows=10))
    print()
    print(render_obs_summary(tracer, metrics, title="run summary"))
    if args.trace:
        print(f"\ntrace written to {args.trace} "
              f"(open in chrome://tracing or https://ui.perfetto.dev)")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
