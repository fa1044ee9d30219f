"""End-to-end "repro why" scenarios: regression attribution and pruning.

The acceptance loop of the why-analysis layer: artificially slow one real
pipeline stage, watch the gate fail, and check the emitted
``repro.attrib/1`` record names that stage's span as the top contributor
with a what-if projection — plus the critical-path invariant (shares sum
to 1.0) on a real multi-worker executor run, the ``python -m repro why``
CLI modes, and the ``--prune`` compaction mode.
"""

import importlib
import importlib.util
import json
import time
from pathlib import Path

import numpy as np
import pytest

sfft_mod = importlib.import_module("repro.core.sfft")
from repro.core import PlanWorkspace, ShardedExecutor
from repro.obs import (
    MetricsRegistry,
    Tracer,
    critical_path,
    make_run_record,
    write_jsonl,
)
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
    for _ in range(runs):
        tracer = Tracer()
        metrics = MetricsRegistry()
        sfft_mod.sfft(signal.time, plan=plan, tracer=tracer, metrics=metrics)
        write_jsonl(path, make_run_record(
            "why-e2e", params={"n": N, "k": K},
            tracer=tracer, registry=metrics,
        ))


@pytest.fixture(scope="module")
def plan_and_signal():
    from tests.conftest import cached_plan

    return cached_plan(N, K), make_sparse_signal(N, K, seed=5)


class TestAttributionEndToEnd:
    def test_slowed_stage_is_named_top_contributor(
        self, tmp_path, monkeypatch, capsys, plan_and_signal
    ):
        """The ISSUE's acceptance loop, end to end through the gate CLI."""
        plan, signal = plan_and_signal
        gate = _load_script("bench_gate.py")
        runs = tmp_path / "runs.jsonl"
        baseline = tmp_path / "base.json"
        attrib = tmp_path / "why.jsonl"
        args = ["--runs", str(runs), "--baseline", str(baseline),
                "--trajectory", "", "--attrib", str(attrib)]

        _write_runs(runs, plan, signal)
        assert gate.main(args) == 0  # recording mode
        capsys.readouterr()

        real_binner = PlanWorkspace.bin_fused

        def slow_binner(*a, **kw):
            time.sleep(0.01)
            return real_binner(*a, **kw)

        monkeypatch.setattr(PlanWorkspace, "bin_fused", slow_binner)
        runs.unlink()
        _write_runs(runs, plan, signal)
        assert gate.main(args) == 1
        captured = capsys.readouterr()
        assert "top contributor span.perm_filter.total_s" in captured.err
        assert "why:" in captured.out and "top contributors" in captured.out

        records = [json.loads(line)
                   for line in attrib.read_text().splitlines()]
        assert records
        doc = next(r for r in records
                   if r["target"]["metric"] == "span.perm_filter.total_s")
        assert doc["status"] == "regression"
        top = doc["contributors"][0]
        assert top["metric"] == "span.perm_filter.total_s"
        assert top["what_if"]["speedup_factor_x"] > 1.0
        assert top["what_if"]["projected_run_speedup_x"] > 1.0
        assert doc["residual"] is not None

        # The JSONL artifact passes the shared validator.
        check = _load_script("check_bench_json.py")
        assert check.main([str(attrib)]) == 0
        capsys.readouterr()


class TestExecutorCriticalPath:
    def test_multiworker_shares_sum_to_one(self):
        """Critical-path shares tile a real 2-worker executor trace."""
        from tests.conftest import cached_plan

        plan = cached_plan(2048, K)
        stack = np.stack([
            make_sparse_signal(2048, K, seed=70 + t).time for t in range(6)
        ])
        tracer = Tracer()
        ShardedExecutor(workers=2, shard_size=2).run(
            stack, plan, tracer=tracer
        )
        cp = critical_path(tracer.spans)
        shares = cp.stage_shares()
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-6)
        # Stage names fold across shards; pipeline stages are on the path.
        assert shares.keys() & {
            "perm_filter", "bucket_fft", "cutoff", "recovery", "estimation"
        }
        assert cp.queue_wait_s >= 0.0


class TestWhyCli:
    def _record_pair(self, tmp_path, plan, signal):
        gate = _load_script("bench_gate.py")
        runs = tmp_path / "runs.jsonl"
        baseline = tmp_path / "base.json"
        _write_runs(runs, plan, signal, runs=2)
        assert gate.main(["--runs", str(runs), "--baseline", str(baseline),
                          "--trajectory", ""]) == 0
        _write_runs(runs, plan, signal, runs=1)
        return runs, baseline

    def test_baseline_mode_human_output(self, tmp_path, capsys,
                                        plan_and_signal):
        from repro.__main__ import main

        plan, signal = plan_and_signal
        runs, baseline = self._record_pair(tmp_path, plan, signal)
        capsys.readouterr()
        assert main(["why", "--runs", str(runs),
                     "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("why: ")
        assert "critical path" in out

    def test_json_mode_validates(self, tmp_path, capsys, plan_and_signal):
        from repro.__main__ import main

        plan, signal = plan_and_signal
        runs, baseline = self._record_pair(tmp_path, plan, signal)
        capsys.readouterr()
        assert main(["why", "--runs", str(runs),
                     "--baseline", str(baseline), "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        why_jsonl = tmp_path / "why.jsonl"
        why_jsonl.write_text("\n".join(lines) + "\n")
        check = _load_script("check_bench_json.py")
        assert check.main([str(why_jsonl)]) == 0
        capsys.readouterr()

    def test_flame_writes_two_value_stacks(self, tmp_path, capsys,
                                           plan_and_signal):
        from repro.__main__ import main

        plan, signal = plan_and_signal
        runs, baseline = self._record_pair(tmp_path, plan, signal)
        capsys.readouterr()
        folded = tmp_path / "diff.folded"
        assert main(["why", "--runs", str(runs),
                     "--baseline", str(baseline),
                     "--flame", str(folded)]) == 0
        capsys.readouterr()
        lines = folded.read_text().splitlines()
        assert lines
        for line in lines:
            stack, base, fresh = line.rsplit(" ", 2)
            assert stack and int(base) >= 0 and int(fresh) >= 0

    def test_diff_mode(self, tmp_path, capsys, plan_and_signal):
        from repro.__main__ import main

        plan, signal = plan_and_signal
        sides = []
        for i in range(2):
            tracer, metrics = Tracer(), MetricsRegistry()
            sfft_mod.sfft(signal.time, plan=plan, tracer=tracer,
                          metrics=metrics)
            record = make_run_record("why-diff", params={"n": N, "k": K},
                                     tracer=tracer, registry=metrics)
            side = tmp_path / f"run{i}.json"
            side.write_text(json.dumps(record))
            sides.append(str(side))
        assert main(["why", "--diff", *sides]) == 0
        out = capsys.readouterr().out
        assert "[diff]" in out
        assert "span.total_self_s" in out

    def test_missing_runs_is_usage_error(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["why", "--runs", str(tmp_path / "nope.jsonl")]) == 2
        capsys.readouterr()

    def test_explicit_missing_baseline_is_usage_error(self, tmp_path, capsys,
                                                      plan_and_signal):
        from repro.__main__ import main

        plan, signal = plan_and_signal
        runs = tmp_path / "runs.jsonl"
        _write_runs(runs, plan, signal, runs=1)
        assert main(["why", "--runs", str(runs),
                     "--baseline", str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()

    def test_bad_top_and_what_if_are_usage_errors(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["why", "--top", "0"]) == 2
        assert main(["why", "--what-if", "0"]) == 2
        capsys.readouterr()


class TestPruneMode:
    def test_prune_drops_duplicate_lines(self, tmp_path, capsys,
                                         plan_and_signal):
        plan, signal = plan_and_signal
        gate = _load_script("bench_gate.py")
        runs = tmp_path / "runs.jsonl"
        _write_runs(runs, plan, signal, runs=1)
        line = runs.read_text()
        runs.write_text(line * 3)  # two verbatim duplicates
        assert gate.main(["--runs", str(runs), "--trajectory", "",
                          "--prune"]) == 0
        out = capsys.readouterr().out
        assert "pruned" in out and "dropped 2" in out
        assert runs.read_text() == line

    def test_prune_keep_truncates_per_key(self, tmp_path, capsys,
                                          plan_and_signal):
        plan, signal = plan_and_signal
        gate = _load_script("bench_gate.py")
        runs = tmp_path / "runs.jsonl"
        _write_runs(runs, plan, signal, runs=4)
        assert gate.main(["--runs", str(runs), "--trajectory", "",
                          "--prune", "--prune-keep", "2"]) == 0
        capsys.readouterr()
        assert len(runs.read_text().splitlines()) == 2

    def test_prune_keep_requires_prune(self, tmp_path, capsys):
        gate = _load_script("bench_gate.py")
        assert gate.main(["--prune-keep", "2"]) == 2
        assert "--prune-keep requires --prune" in capsys.readouterr().err

    def test_prune_rejects_corrupt_runs(self, tmp_path, capsys):
        gate = _load_script("bench_gate.py")
        runs = tmp_path / "runs.jsonl"
        runs.write_text('{"schema": "nope"}\n')
        assert gate.main(["--runs", str(runs), "--trajectory", "",
                          "--prune"]) == 2
        assert "prune failed" in capsys.readouterr().err
