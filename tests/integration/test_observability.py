"""Integration: one observability layer across CPU, simulated GPU, harness.

Pins the PR's acceptance criteria: a traced CPU ``sfft`` and a
``CusFFT.execute`` run populate the same ``sfft.*`` metric names, and the
exported Chrome trace is valid JSON with one ``tid`` per simulated stream
and non-negative, in-order timestamps.
"""

import json

import numpy as np
import pytest

from repro import make_sparse_signal, sfft
from repro.core import STEP_NAMES, ShardedExecutor, make_plan, run_stack_pipeline
from repro.core.batch import as_signal_stack
from repro.experiments import run_experiment
from repro.gpu import CusFFT
from repro.obs import MetricsRegistry, Tracer, validate_run_record

N, K = 1 << 12, 8


@pytest.fixture(scope="module")
def signal():
    return make_sparse_signal(N, K, seed=42)


def test_cpu_and_gpu_emit_same_sfft_metric_names(signal):
    cpu_reg, gpu_reg = MetricsRegistry(), MetricsRegistry()
    sfft(signal.time, K, seed=1, tracer=Tracer(), metrics=cpu_reg)
    CusFFT.create(N, K).execute(signal.time, seed=1, metrics=gpu_reg)
    cpu_names = {n for n in cpu_reg.names() if n.startswith("sfft.")}
    gpu_names = {n for n in gpu_reg.names() if n.startswith("sfft.")}
    assert cpu_names == gpu_names
    assert "sfft.buckets.occupancy" in cpu_names
    assert "sfft.recovery.votes" in cpu_names
    # the GPU run additionally reports device-model gauges
    assert "cusim.kernel.coalescing_efficiency" in gpu_reg.names()
    assert "cusim.timeline.makespan_s" in gpu_reg.names()


def test_step_times_is_view_over_trace(signal):
    res = sfft(signal.time, K, seed=1, tracer=Tracer())
    assert res.trace is not None
    sums = {}
    for sp in res.trace.spans:
        if sp.category == "sfft":
            sums[sp.name] = sums.get(sp.name, 0.0) + sp.duration_s
    assert res.step_times == pytest.approx(sums)


def test_comb_step_is_timed(signal):
    res = sfft(signal.time, K, seed=1, tracer=Tracer(), comb_width=64)
    assert "comb" in res.step_times
    assert res.step_times["comb"] > 0


def test_one_span_vocabulary_across_entry_points():
    """Single, fused and sharded calls clock the same steps, through the
    one stage hook, and return the same bits."""
    S = 4
    plan = make_plan(N, K, seed=3)
    X = np.stack([make_sparse_signal(N, K, seed=60 + s).time
                  for s in range(S)])

    single_tracer = Tracer()
    singles = [sfft(x, plan=plan, tracer=single_tracer,
                    metrics=MetricsRegistry()) for x in X]

    stage_tracer = Tracer()

    def stage(name, **attrs):
        return stage_tracer.span(name, category="stage", **attrs)

    fused = run_stack_pipeline(as_signal_stack(X, plan), plan, stage=stage)

    shard_tracer = Tracer()
    sharded = ShardedExecutor(workers=2, mode="thread").run(
        X, plan, tracer=shard_tracer, metrics=MetricsRegistry()
    )

    shard_steps = set()
    for sp in shard_tracer.spans:
        shard, dot, step = sp.name.partition(".")
        if shard.startswith("shard") and dot:
            shard_steps.add(step)
    assert {sp.name for sp in single_tracer.spans} == set(STEP_NAMES)
    assert {sp.name for sp in stage_tracer.spans} == set(STEP_NAMES)
    assert shard_steps == set(STEP_NAMES)

    for one, two, three in zip(singles, fused, sharded, strict=True):
        for field in ("locations", "values", "votes"):
            want = getattr(one, field).tobytes()
            assert getattr(two, field).tobytes() == want
            assert getattr(three, field).tobytes() == want


def test_chrome_trace_one_tid_per_stream(signal):
    tracer = Tracer()
    run = CusFFT.create(N, K).execute(signal.time, seed=1, tracer=tracer)
    doc = json.loads(tracer.export_chrome_trace())
    events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert len(events) == len(run.report.records)
    # every simulated stream maps to exactly one tid, consistently
    tid_by_track = {}
    thread_names = {
        e["tid"]: e["args"]["name"]
        for e in doc["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "thread_name"
    }
    for e in events:
        track = thread_names[e["tid"]]
        tid_by_track.setdefault(track, set()).add(e["tid"])
    assert all(len(tids) == 1 for tids in tid_by_track.values())
    assert len(tid_by_track) == len(run.report.stream_ids())
    # timestamps valid: non-negative, duration-consistent
    for e in events:
        assert e["ts"] >= 0 and e["dur"] >= 0
    # per-tid event starts are monotonically non-decreasing (streams are
    # in-order queues)
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e["ts"])
    for ts_list in by_tid.values():
        assert ts_list == sorted(ts_list)


def test_shared_tracer_holds_both_pipelines(signal):
    tracer = Tracer()
    sfft(signal.time, K, seed=1, tracer=tracer)
    CusFFT.create(N, K).execute(signal.time, seed=1, tracer=tracer)
    tracks = tracer.tracks()
    assert tracks[0] == "cpu"
    assert any(t.startswith("stream") for t in tracks)


def test_experiment_run_attaches_trace_and_writes_jsonl(tmp_path):
    path = tmp_path / "runs.jsonl"
    result = run_experiment("table1", jsonl_path=path)
    assert result.trace is not None
    assert [sp.name for sp in result.trace.spans][-1] == "table1"
    record = json.loads(path.read_text().strip())
    assert validate_run_record(record) == []
    assert record["name"] == "table1"
    assert record["rows"]


def test_demo_cli_trace_and_json(tmp_path, capsys):
    from repro.__main__ import main

    trace_path = tmp_path / "demo_trace.json"
    assert main(["12", "4", "--trace", str(trace_path), "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert validate_run_record(record) == []
    assert record["results"]["recovery_exact"] is True
    doc = json.loads(trace_path.read_text())
    assert any(e.get("ph") == "X" for e in doc["traceEvents"])
