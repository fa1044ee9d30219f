"""Unit tests for span self times and collapsed stacks."""

import pytest

from repro.cusim import (
    KEPLER_K20X,
    GpuSimulation,
    KernelSpec,
    kernel_self_times,
)
from repro.obs import Tracer, collapsed_stacks, self_time_rows


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def tick(self, dt):
        self.now += dt

    def __call__(self):
        return self.now


def _nested_tracer():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    with tr.span("pipeline"):
        with tr.span("perm_filter"):
            clock.tick(0.6)
        with tr.span("bucket_fft"):
            clock.tick(0.3)
        clock.tick(0.1)  # pipeline's own work
    return tr


class TestSelfTime:
    def test_parent_self_excludes_children(self):
        rows = {r["name"]: r for r in self_time_rows(_nested_tracer().spans)}
        assert rows["pipeline"]["total_s"] == pytest.approx(1.0)
        assert rows["pipeline"]["self_s"] == pytest.approx(0.1)
        assert rows["perm_filter"]["self_s"] == pytest.approx(0.6)

    def test_sorted_by_descending_self(self):
        rows = self_time_rows(_nested_tracer().spans)
        selfs = [r["self_s"] for r in rows]
        assert selfs == sorted(selfs, reverse=True)

    def test_accepts_record_span_dicts(self):
        spans = [
            {"name": "a", "category": "sfft", "track": "cpu",
             "start_s": 0.0, "duration_s": 1.0},
            {"name": "b", "category": "sfft", "track": "cpu",
             "start_s": 0.2, "duration_s": 0.5},
        ]
        rows = {r["name"]: r for r in self_time_rows(spans)}
        assert rows["a"]["self_s"] == pytest.approx(0.5)

    def test_tracks_do_not_nest_across(self):
        spans = [
            {"name": "cpu_work", "track": "cpu", "start_s": 0.0,
             "duration_s": 1.0},
            {"name": "kernel", "track": "stream0", "start_s": 0.1,
             "duration_s": 0.5},
        ]
        rows = {r["name"]: r for r in self_time_rows(spans)}
        # Same wall interval, different track: no containment.
        assert rows["cpu_work"]["self_s"] == pytest.approx(1.0)


class TestCollapsedStacks:
    def test_nested_paths_and_usec_values(self):
        lines = collapsed_stacks(_nested_tracer().spans)
        by_path = dict(l.rsplit(" ", 1) for l in lines)
        assert by_path["cpu;pipeline;perm_filter"] == "600000"
        assert by_path["cpu;pipeline;bucket_fft"] == "300000"
        assert by_path["cpu;pipeline"] == "100000"

    def test_zero_frames_dropped(self):
        tr = Tracer(clock=FakeClock())
        tr.add_span("instant", start_s=0.0, duration_s=0.0)
        assert collapsed_stacks(tr.spans) == []

    def test_timeline_report_merges_under_gpu_root(self):
        sim = GpuSimulation(KEPLER_K20X, host_launch_gap_s=0.0)
        sim.launch(sim.stream(), KernelSpec("alpha", 56, 256,
                                            flops_per_thread=1e6))
        lines = collapsed_stacks(report=sim.run())
        assert len(lines) == 1
        assert lines[0].startswith("gpu;stream0;alpha ")

    def test_root_prefix(self):
        lines = collapsed_stacks(_nested_tracer().spans, root="run1")
        assert all(l.startswith("run1;cpu;") for l in lines)


class TestKernelSelfTimes:
    def test_streams_labelled_ordinally(self):
        sim = GpuSimulation(KEPLER_K20X, host_launch_gap_s=0.0)
        s1, s2 = sim.stream(), sim.stream()
        sim.launch(s1, KernelSpec("a", 56, 256, flops_per_thread=1e6))
        sim.launch(s2, KernelSpec("b", 56, 256, flops_per_thread=1e6))
        triples = kernel_self_times(sim.run())
        assert [(t, n) for t, n, _ in triples] == [
            ("stream0", "a"), ("stream1", "b")
        ]
        assert all(s > 0 for _, _, s in triples)

    def test_self_time_is_isolated_not_wall(self):
        # Two demand-1.0 kernels on one stream serialize; each record's
        # self time must equal its isolated estimate regardless.
        sim = GpuSimulation(KEPLER_K20X, host_launch_gap_s=0.0)
        s = sim.stream()
        t1 = sim.launch(s, KernelSpec("k", 56, 256, flops_per_thread=1e6))
        t2 = sim.launch(s, KernelSpec("k", 56, 256, flops_per_thread=1e6))
        ((_, _, self_s),) = kernel_self_times(sim.run())
        assert self_s == pytest.approx(t1.total_s + t2.total_s)

    def test_transfers_excluded(self):
        sim = GpuSimulation(KEPLER_K20X, host_launch_gap_s=0.0)
        s = sim.stream()
        sim.memcpy(s, 1 << 20, "h2d")
        assert kernel_self_times(sim.run()) == []
