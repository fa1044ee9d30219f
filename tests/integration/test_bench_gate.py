"""End-to-end regression-gate scenario: an injected slowdown in a real
pipeline step must fail ``scripts/bench_gate.py`` with that step named,
while an unperturbed rerun passes.

This is the loop every future perf PR rides: benchmark session appends
``repro.run/1`` records, the gate snapshots/compares them, CI turns red
iff a step actually got slower.
"""

import importlib
import importlib.util
import json
import time
from pathlib import Path

import pytest

# ``repro.core``'s ``from .sfft import sfft`` shadows the submodule name
# with the function, so fetch the module object explicitly.
sfft_mod = importlib.import_module("repro.core.sfft")
from repro.core import PlanWorkspace
from repro.obs import MetricsRegistry, Tracer, make_run_record, write_jsonl
from repro.signals import make_sparse_signal

N, K = 1 << 12, 4


def _load_script(name):
    path = Path(__file__).resolve().parents[2] / "scripts" / name
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"),
                                                 path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _write_runs(path, plan, signal, runs=3):
    """Run the instrumented pipeline ``runs`` times; append run records."""
    for _ in range(runs):
        tracer = Tracer()
        metrics = MetricsRegistry()
        sfft_mod.sfft(signal.time, plan=plan, tracer=tracer, metrics=metrics)
        write_jsonl(path, make_run_record(
            "gate-e2e", params={"n": N, "k": K},
            tracer=tracer, registry=metrics,
        ))


@pytest.fixture(scope="module")
def plan_and_signal():
    from tests.conftest import cached_plan

    return cached_plan(N, K), make_sparse_signal(N, K, seed=5)


class TestBenchGateEndToEnd:
    def test_injected_perm_filter_regression_fails_gate(
        self, tmp_path, monkeypatch, capsys, plan_and_signal
    ):
        plan, signal = plan_and_signal
        gate = _load_script("bench_gate.py")
        runs = tmp_path / "BENCH_RUNS.jsonl"
        baseline = tmp_path / "BENCH_BASELINE.json"
        args = ["--runs", str(runs), "--baseline", str(baseline)]

        # 1. No baseline yet: recording mode is green and writes one.
        _write_runs(runs, plan, signal)
        assert gate.main(args) == 0
        out = capsys.readouterr().out
        assert "recording" in out
        assert baseline.exists()

        # 2. Unperturbed rerun: gate passes.
        runs.unlink()
        _write_runs(runs, plan, signal)
        assert gate.main(args) == 0
        assert "no confirmed regression" in capsys.readouterr().out

        # 3. Slow the perm+filter gather (the paper's dominant step; the
        #    exactly sparse input is located by phase, whose rounds gather
        #    each loop through PlanWorkspace.window): the gate must fail
        #    and name the step.
        real_gather = PlanWorkspace.window

        def slow_gather(*a, **kw):
            time.sleep(0.01)
            return real_gather(*a, **kw)

        monkeypatch.setattr(PlanWorkspace, "window", slow_gather)
        runs.unlink()
        _write_runs(runs, plan, signal)
        assert gate.main(args) == 1
        captured = capsys.readouterr()
        assert "span.perm_filter.total_s" in captured.err
        assert "REGRESSION" in captured.out

        # Every artifact passes the shared validator.
        check = _load_script("check_bench_json.py")
        assert check.main([str(baseline), str(runs)]) == 0

    def test_record_flag_resnapshots(self, tmp_path, capsys, plan_and_signal):
        plan, signal = plan_and_signal
        gate = _load_script("bench_gate.py")
        runs = tmp_path / "runs.jsonl"
        baseline = tmp_path / "base.json"
        _write_runs(runs, plan, signal, runs=1)
        args = ["--runs", str(runs), "--baseline", str(baseline)]
        assert gate.main(args) == 0
        first = baseline.read_text()
        assert gate.main([*args, "--record"]) == 0
        assert "--record" in capsys.readouterr().out
        assert json.loads(first)["schema"] == "repro.baseline/1"

    def test_missing_runs_is_usage_error(self, tmp_path, capsys):
        gate = _load_script("bench_gate.py")
        assert gate.main(["--runs", str(tmp_path / "nope.jsonl")]) == 2
        assert "no runs file" in capsys.readouterr().err

    def test_classes_filter_skips_wall(self, tmp_path, monkeypatch, capsys,
                                       plan_and_signal):
        """CI mode: --classes modeled accuracy ignores machine-local wall
        noise, even a large one."""
        plan, signal = plan_and_signal
        gate = _load_script("bench_gate.py")
        runs = tmp_path / "runs.jsonl"
        baseline = tmp_path / "base.json"
        args = ["--runs", str(runs), "--baseline", str(baseline)]
        _write_runs(runs, plan, signal)
        assert gate.main(args) == 0

        real_binner = PlanWorkspace.bin_fused

        def slow_binner(*a, **kw):
            time.sleep(0.01)
            return real_binner(*a, **kw)

        monkeypatch.setattr(PlanWorkspace, "bin_fused", slow_binner)
        runs.unlink()
        _write_runs(runs, plan, signal)
        assert gate.main([*args, "--classes", "modeled", "accuracy"]) == 0
        capsys.readouterr()


class TestDemoGateBlock:
    def test_json_record_reports_missing_baseline(self, tmp_path, capsys,
                                                  monkeypatch):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        assert main(["8", "2", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["gate"] == {"baseline": None}

    def test_json_record_carries_verdict(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main
        from repro.obs import make_baseline

        monkeypatch.chdir(tmp_path)
        assert main(["8", "2", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        del record["gate"]
        (tmp_path / "BENCH_BASELINE.json").write_text(
            json.dumps(make_baseline([record]))
        )
        assert main(["8", "2", "--json"]) == 0
        record2 = json.loads(capsys.readouterr().out)
        assert record2["gate"]["baseline"] == "BENCH_BASELINE.json"
        assert record2["gate"]["status"] in ("ok", "regression")
        assert record2["gate"]["checks"]
