"""Unit tests for the tooling surface: timeline rendering, plan
serialization, the package demo CLI."""

import numpy as np
import pytest

from repro.core import load_plan, make_plan, save_plan, sfft
from repro.cusim import (
    KEPLER_K20X,
    GpuSimulation,
    KernelSpec,
    TimelineReport,
    render_timeline,
)
from repro.errors import ParameterError
from repro.signals import make_sparse_signal


def _small_report():
    sim = GpuSimulation(KEPLER_K20X, host_launch_gap_s=0.0)
    s1, s2 = sim.stream(), sim.stream()
    sim.launch(s1, KernelSpec("alpha_kernel", 56, 256, flops_per_thread=1e5))
    sim.launch(s2, KernelSpec("beta_kernel", 56, 256, flops_per_thread=1e5))
    sim.memcpy(s1, 1 << 20, "d2h")
    return sim.run()


class TestRenderTimeline:
    def test_contains_streams_and_legend(self):
        out = render_timeline(_small_report())
        assert "s0" in out and "s1" in out
        assert "legend:" in out
        assert "alpha_kernel" in out and "beta_kernel" in out

    def test_distinct_symbols_per_kernel(self):
        out = render_timeline(_small_report())
        legend = out.splitlines()[-1]
        # Two kernels, two distinct symbols.
        syms = [part.split("=")[0].strip() for part in legend.split(",")[:2]]
        assert len(set(syms)) == 2

    def test_transfer_marker(self):
        out = render_timeline(_small_report())
        assert ">" in out

    def test_empty_report(self):
        assert "empty" in render_timeline(TimelineReport(makespan_s=0.0))

    def test_max_rows_summarizes(self):
        sim = GpuSimulation(KEPLER_K20X, host_launch_gap_s=0.0)
        for _ in range(6):
            sim.launch(
                sim.stream(), KernelSpec("k", 1, 32, flops_per_thread=100)
            )
        out = render_timeline(sim.run(), max_rows=3)
        assert "more streams" in out

    def test_width_respected(self):
        out = render_timeline(_small_report(), width=40)
        for line in out.splitlines():
            if line.startswith("s") and "|" in line:
                body = line.split("|")[1]
                assert len(body) == 40

    def test_single_record_timeline(self):
        sim = GpuSimulation(KEPLER_K20X, host_launch_gap_s=0.0)
        sim.launch(sim.stream(), KernelSpec("solo", 56, 256,
                                            flops_per_thread=1e5))
        out = render_timeline(sim.run())
        assert "s0" in out and "solo" in out

    def test_zero_duration_op_renders(self):
        sim = GpuSimulation(KEPLER_K20X, host_launch_gap_s=0.0)
        s = sim.stream()
        sim.launch(s, KernelSpec("real", 56, 256, flops_per_thread=1e5))
        sim.host_work(s, "instant", 0.0)
        out = render_timeline(sim.run())
        assert "real" in out  # no crash, kernel still painted

    def test_many_kernel_names_unique_symbols(self):
        # Far more distinct names than any single preference letter could
        # cover: every assigned symbol must still be unique.
        sim = GpuSimulation(KEPLER_K20X, host_launch_gap_s=0.0)
        s = sim.stream()
        for i in range(40):
            sim.launch(s, KernelSpec(f"k_{i:02d}", 1, 32,
                                     flops_per_thread=100))
        out = render_timeline(sim.run(), max_rows=50)
        legend = out.splitlines()[-1]
        entries = [p.strip() for p in legend.replace("legend: ", "")
                   .split(", ")]
        syms = [e.split("=")[0] for e in entries if "=" in e
                and not e.startswith("<") and not e.startswith(">")]
        assert len(syms) == len(set(syms)), f"duplicate symbols: {syms}"

    def test_symbol_overflow_grouped_not_ambiguous(self):
        # More kernel names than the whole symbol pool: overflow names
        # share '?' and the legend says so once, instead of listing
        # ambiguous duplicate entries.
        sim = GpuSimulation(KEPLER_K20X, host_launch_gap_s=0.0)
        s = sim.stream()
        for i in range(90):
            sim.launch(s, KernelSpec(f"x{i:03d}", 1, 32,
                                     flops_per_thread=100))
        out = render_timeline(sim.run(), max_rows=100)
        legend = out.splitlines()[-1]
        assert legend.count("?=") == 1
        assert "more kernels" in legend

    def _legend_for(self, n_names):
        sim = GpuSimulation(KEPLER_K20X, host_launch_gap_s=0.0)
        s = sim.stream()
        for i in range(n_names):
            sim.launch(s, KernelSpec(f"x{i:03d}", 1, 32,
                                     flops_per_thread=100))
        return render_timeline(sim.run(), max_rows=100).splitlines()[-1]

    def test_pool_boundary_exact_fit_has_no_overflow(self):
        # The symbol pool holds exactly 75 glyphs (26+26+10+13); with
        # exactly that many distinct kernel names every name still gets
        # its own symbol and no overflow group appears.
        legend = self._legend_for(75)
        assert "?=" not in legend
        # Every entry is "<one-char symbol>=<name>" (the pool itself
        # contains '='), so the symbol is always the first character.
        syms = [e[0] for e in legend.replace("legend: ", "").split(", ")
                if "=" in e and not e.startswith("<")
                and not e.startswith(">")]
        assert len(syms) == 75 and len(set(syms)) == 75

    def test_pool_boundary_one_past_overflows_by_one(self):
        legend = self._legend_for(76)
        assert "?=1 more kernels" in legend
        assert legend.count("?=") == 1

    def test_symbol_assignment_deterministic(self):
        a = render_timeline(_small_report())
        b = render_timeline(_small_report())
        assert a.splitlines()[-1] == b.splitlines()[-1]


class TestPlanSerialization:
    def test_roundtrip_identical_results(self, tmp_path):
        plan = make_plan(1 << 12, 8, seed=1)
        path = tmp_path / "plan.npz"
        save_plan(plan, path)
        plan2 = load_plan(path)
        sig = make_sparse_signal(1 << 12, 8, seed=2)
        a = sfft(sig.time, plan=plan)
        b = sfft(sig.time, plan=plan2)
        assert (a.locations == b.locations).all()
        assert np.array_equal(a.values, b.values)

    def test_roundtrip_preserves_parameters(self, tmp_path):
        plan = make_plan(1 << 12, 8, seed=3, loops=5, window="gaussian")
        path = tmp_path / "plan.npz"
        save_plan(plan, path)
        plan2 = load_plan(path)
        assert plan2.params == plan.params
        assert np.array_equal(plan2.filt.time, plan.filt.time)
        assert [p.sigma for p in plan2.permutations] == [
            p.sigma for p in plan.permutations
        ]

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, schema=np.array([99]))
        with pytest.raises(ParameterError):
            load_plan(path)


class TestPackageDemo:
    def test_demo_runs_and_verifies(self, capsys):
        from repro.__main__ import main

        assert main(["12", "4"]) == 0
        out = capsys.readouterr().out
        assert "recovery: exact" in out
        assert "timeline" in out

    def test_demo_defaults(self, capsys):
        from repro.__main__ import main

        assert main(["14"]) == 0
        assert "2^14" in capsys.readouterr().out

    def test_malformed_n_log2_exits_2(self, capsys):
        from repro.__main__ import main

        # `top` and `export` are not subcommands: they parse as n_log2.
        for argv in (["not_a_number"], ["top"], ["export", "--prometheus"]):
            assert main(argv) == 2
            assert "n_log2 must be an integer" in capsys.readouterr().err

    def test_malformed_k_exits_2(self, capsys):
        from repro.__main__ import main

        assert main(["12", "sixty-four"]) == 2
        assert "k must be an integer" in capsys.readouterr().err

    def test_out_of_range_n_log2_exits_2(self, capsys):
        from repro.__main__ import main

        assert main(["99"]) == 2
        assert "n_log2 must be in" in capsys.readouterr().err

    def test_k_not_below_n_exits_2(self, capsys):
        from repro.__main__ import main

        assert main(["4", "16"]) == 2
        assert "must be smaller than n" in capsys.readouterr().err


class TestCheckBenchJson:
    """The scripts/check_bench_json.py artifact validator."""

    @staticmethod
    def _load():
        import importlib.util
        from pathlib import Path

        path = (Path(__file__).resolve().parents[2] / "scripts"
                / "check_bench_json.py")
        spec = importlib.util.spec_from_file_location("check_bench_json", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    def test_valid_jsonl_passes(self, tmp_path, capsys):
        from repro.obs import Tracer, make_run_record, write_jsonl

        mod = self._load()
        path = tmp_path / "runs.jsonl"
        write_jsonl(path, make_run_record("x", tracer=Tracer()))
        assert mod.main([str(path)]) == 0

    def test_invalid_jsonl_fails(self, tmp_path, capsys):
        mod = self._load()
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "wrong"}\nnot json at all\n')
        assert mod.main([str(path)]) == 1
        err = capsys.readouterr().err
        assert "schema" in err and "not JSON" in err

    def test_bench_json_pytest_benchmark_shape(self, tmp_path):
        import json

        mod = self._load()
        good = tmp_path / "BENCH_fig5a.json"
        good.write_text(json.dumps(
            {"benchmarks": [{"name": "b", "stats": {"mean": 1.0}}]}
        ))
        assert mod.main([str(good)]) == 0
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps({"benchmarks": [{"no_name": 1}]}))
        assert mod.main([str(bad)]) == 1

    def test_missing_file_is_usage_error(self, capsys):
        mod = self._load()
        assert mod.main(["/nonexistent/nope.jsonl"]) == 2

    def test_baseline_schema_validated(self, tmp_path, capsys):
        import json

        from repro.obs import Tracer, make_baseline, make_run_record

        mod = self._load()
        doc = make_baseline([make_run_record(
            "x", tracer=Tracer(), results={"l1_error_per_coeff": 1e-9}
        )])
        good = tmp_path / "BENCH_BASELINE.json"
        good.write_text(json.dumps(doc))
        assert mod.main([str(good)]) == 0
        # Corrupt one stat: the failure message names the offending
        # entry key and metric, not just "invalid file".
        key = next(iter(doc["entries"]))
        for stat in doc["entries"][key]["metrics"].values():
            stat["median"] = "fast"
        bad = tmp_path / "bad_base.json"
        bad.write_text(json.dumps(doc))
        assert mod.main([str(bad)]) == 1
        err = capsys.readouterr().err
        assert key in err and "median" in err
