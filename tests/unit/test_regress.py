"""Unit tests for baselines, run pruning, and the regression gate."""

import json

import pytest

from repro.obs import (
    BASELINE_SCHEMA,
    GateConfig,
    MetricsRegistry,
    Tracer,
    compare_to_baseline,
    make_baseline,
    make_run_record,
    prune_runs,
    render_verdict,
    validate_baseline,
)
from repro.obs.regress import (
    collect_samples,
    extract_metrics,
    parse_quantity,
    run_key,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def tick(self, dt):
        self.now += dt

    def __call__(self):
        return self.now


def make_record(name="demo", n=4096, k=4, *, perm_filter_s=0.010,
                makespan_s=0.005, err=1e-9, **extra_params):
    """A synthetic but schema-valid run record with known metric values."""
    clock = FakeClock()
    tr = Tracer(clock=clock)
    with tr.span("perm_filter", category="sfft"):
        clock.tick(perm_filter_s)
    with tr.span("bucket_fft", category="sfft"):
        clock.tick(0.002)
    tr.add_span("cusfft_layout_exec", start_s=0.0, duration_s=makespan_s,
                category="cusim", track="stream0")
    reg = MetricsRegistry()
    reg.gauge("cusim.timeline.makespan_s").set(makespan_s)
    reg.gauge("sfft.recovery.hits").set(k)
    return make_run_record(
        name,
        params={"n": n, "k": k, **extra_params},
        tracer=tr,
        registry=reg,
        results={"l1_error_per_coeff": err, "recovery_exact": True},
    )


class TestParseQuantity:
    @pytest.mark.parametrize("cell,expected", [
        (3, 3.0),
        (2.5, 2.5),
        ("42", 42.0),
        ("1.500 ms", 1.5e-3),
        ("12.30 us", 1.23e-5),
        ("8.1 ns", 8.1e-9),
        ("2.000 s", 2.0),
        ("14.90x", 14.9),
        ("75%", 0.75),
    ])
    def test_parses(self, cell, expected):
        assert parse_quantity(cell) == pytest.approx(expected)

    @pytest.mark.parametrize("cell", ["n/a", "2^18", "", None, True, [1]])
    def test_rejects_non_quantities(self, cell):
        assert parse_quantity(cell) is None


class TestExtraction:
    def test_run_key_axes(self):
        key, meta = run_key({"name": "fig5a", "params": {"n": 8, "k": 2}})
        assert key == "fig5a|n=8|k=2|default"
        assert meta["experiment"] == "fig5a" and meta["n"] == 8

    def test_key_distinguishes_variant(self):
        k1, _ = run_key({"name": "x", "params": {"variant": "baseline"}})
        k2, _ = run_key({"name": "x", "params": {"variant": "optimized"}})
        assert k1 != k2

    def test_span_classes(self):
        metrics = extract_metrics(make_record())
        assert metrics["span.perm_filter.total_s"][0] == "wall"
        # Simulated-timeline spans are modeled device time, not wall-clock.
        assert metrics["span.cusfft_layout_exec.total_s"][0] == "modeled"

    def test_registry_and_results_classes(self):
        metrics = extract_metrics(make_record())
        assert metrics["cusim.timeline.makespan_s"] == ("modeled", 0.005)
        assert metrics["results.l1_error_per_coeff"][0] == "accuracy"
        # Direction-ambiguous sfft gauges and booleans are not gated on.
        assert "sfft.recovery.hits" not in metrics
        assert "results.recovery_exact" not in metrics

    def test_memory_class_extraction(self):
        reg = MetricsRegistry()
        reg.gauge("sfft.plan_cache.bytes").set(4096.0)
        reg.gauge("cusim.kernel.wire_bytes").set(1024.0)
        record = make_run_record(
            "mem", registry=reg, results={"workspace_bytes": 2048},
        )
        metrics = extract_metrics(record)
        assert metrics["sfft.plan_cache.bytes"] == ("memory", 4096.0)
        assert metrics["results.workspace_bytes"] == ("memory", 2048.0)
        # Modeled wire traffic keeps the deterministic class committed
        # baselines already use; the memory class is for measured bytes.
        assert metrics["cusim.kernel.wire_bytes"] == ("modeled", 1024.0)

    def test_rows_parsed_as_modeled(self):
        record = make_run_record(
            "fig5a",
            headers=["n", "cusFFT opt", "L1 error"],
            rows=[["2^18", "1.500 ms", "2e-09"]],
        )
        metrics = extract_metrics(record)
        assert metrics["row.2^18.cusfft_opt"] == (
            "modeled", pytest.approx(1.5e-3)
        )
        assert metrics["row.2^18.l1_error"][0] == "accuracy"

    def test_collect_samples_groups_by_key(self):
        grouped = collect_samples([make_record(), make_record(),
                                   make_record(n=8192)])
        assert len(grouped) == 2
        slot = grouped["demo|n=4096|k=4|default"]
        assert slot["metrics"]["span.perm_filter.total_s"]["values"] == [
            pytest.approx(0.010)] * 2


class TestBaseline:
    def test_snapshot_is_valid_and_versioned(self):
        doc = make_baseline([make_record() for _ in range(3)])
        assert doc["schema"] == BASELINE_SCHEMA
        assert validate_baseline(doc) == []
        stat = doc["entries"]["demo|n=4096|k=4|default"]["metrics"][
            "span.perm_filter.total_s"]
        assert stat["median"] == pytest.approx(0.010)
        assert stat["count"] == 3 and stat["iqr"] == pytest.approx(0.0)

    def test_validator_names_offending_entry(self):
        doc = make_baseline([make_record()])
        doc["entries"]["demo|n=4096|k=4|default"]["metrics"][
            "span.perm_filter.total_s"]["median"] = "fast"
        problems = validate_baseline(doc)
        assert any("demo|n=4096|k=4|default" in p and
                   "span.perm_filter.total_s" in p and "median" in p
                   for p in problems)

    def test_validator_rejects_wrong_schema(self):
        assert validate_baseline({"schema": "nope", "entries": {}})
        assert validate_baseline([]) != []


class TestPrune:
    def _runs_file(self, tmp_path, records):
        path = tmp_path / "runs.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        return path

    def test_runs_dedupe_keeps_order(self, tmp_path):
        a, b = make_record(), make_record(perm_filter_s=0.02)
        path = self._runs_file(tmp_path, [a, b, a, b, a])
        assert prune_runs(path) == (2, 3)
        lines = path.read_text().splitlines()
        assert [json.loads(ln)["params"] for ln in lines] \
            == [a["params"], b["params"]]

    def test_runs_keep_newest_per_key(self, tmp_path):
        records = [make_record(perm_filter_s=0.01 * (i + 1))
                   for i in range(5)]
        path = self._runs_file(tmp_path, records)
        assert prune_runs(path, keep_per_key=2) == (2, 3)
        kept = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert kept == records[-2:]  # newest two, still in order

    def test_runs_refuse_invalid_line(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"schema": "wrong"}\n')
        before = path.read_text()
        with pytest.raises(ValueError):
            prune_runs(path)
        assert path.read_text() == before  # refused, not rewritten

    def test_runs_bad_keep_raises(self, tmp_path):
        path = self._runs_file(tmp_path, [make_record()])
        with pytest.raises(ValueError):
            prune_runs(path, keep_per_key=0)


class TestGate:
    def _baseline(self):
        return make_baseline([make_record() for _ in range(3)])

    def test_unperturbed_run_passes(self):
        verdict = compare_to_baseline(self._baseline(), [make_record()])
        assert verdict.status == "ok"
        assert verdict.regressions() == []

    def test_slowed_step_is_named(self):
        verdict = compare_to_baseline(
            self._baseline(), [make_record(perm_filter_s=0.030)]
        )
        assert verdict.status == "regression"
        names = {c.metric for c in verdict.regressions()}
        assert "span.perm_filter.total_s" in names
        assert "span.bucket_fft.total_s" not in names

    def test_noise_band_absorbs_jitter(self):
        # +20% on a wall metric is inside the 30% class threshold.
        verdict = compare_to_baseline(
            self._baseline(), [make_record(perm_filter_s=0.012)]
        )
        assert verdict.status == "ok"

    def test_min_abs_floor_ignores_tiny_shifts(self):
        # 3x on a sub-millisecond wall step stays under the 1 ms floor.
        base = make_baseline([make_record(perm_filter_s=0.0002)])
        verdict = compare_to_baseline(
            base, [make_record(perm_filter_s=0.0006)]
        )
        assert all(c.status != "regression" for c in verdict.checks
                   if c.metric == "span.perm_filter.total_s")

    def test_improvement_reported_not_failing(self):
        verdict = compare_to_baseline(
            self._baseline(), [make_record(perm_filter_s=0.003)]
        )
        assert verdict.status == "ok"
        assert any(c.status == "improvement" and
                   c.metric == "span.perm_filter.total_s"
                   for c in verdict.checks)

    def test_modeled_class_is_tight(self):
        verdict = compare_to_baseline(
            self._baseline(), [make_record(makespan_s=0.0057)]
        )
        assert any(c.status == "regression" and
                   c.metric == "cusim.timeline.makespan_s"
                   for c in verdict.checks)

    @staticmethod
    def _recall_record(recall):
        return make_run_record(
            "fig5f", params={"n": 1 << 18, "k": 1000},
            headers=["k", "recall"], rows=[["1000", f"{recall:.4g}"]],
        )

    def test_recall_row_is_better_when_higher(self):
        # fig5f's recall row rose 0.9385 -> 1 under a new default filter:
        # an improvement.  A fall past the modeled threshold regresses.
        base = make_baseline([self._recall_record(0.9385)])
        rose = compare_to_baseline(base, [self._recall_record(1.0)])
        fell = compare_to_baseline(base, [self._recall_record(0.85)])
        assert rose.status == "ok"
        assert [c.status for c in rose.checks] == ["improvement"]
        assert fell.status == "regression"
        assert [c.metric for c in fell.regressions()] == ["row.1000.recall"]

    def _mem_record(self, nbytes):
        reg = MetricsRegistry()
        reg.gauge("sfft.plan_cache.bytes").set(float(nbytes))
        return make_run_record("mem", params={"n": 4096}, registry=reg)

    def test_memory_class_noise_band(self):
        # +20% footprint is inside the 25% memory threshold.
        base = make_baseline([self._mem_record(1 << 20)])
        verdict = compare_to_baseline(
            base, [self._mem_record(1.2 * (1 << 20))]
        )
        assert verdict.status == "ok"

    def test_memory_regression_is_named(self):
        base = make_baseline([self._mem_record(1 << 20)])
        verdict = compare_to_baseline(
            base, [self._mem_record(1.5 * (1 << 20))]
        )
        assert any(c.status == "regression" and
                   c.metric == "sfft.plan_cache.bytes"
                   for c in verdict.checks)

    def test_memory_min_abs_floor_is_one_page(self):
        # 3x growth that stays under 4 KiB absolute is not a regression.
        base = make_baseline([self._mem_record(1024)])
        verdict = compare_to_baseline(base, [self._mem_record(3072)])
        assert all(c.status != "regression" for c in verdict.checks)

    def test_classes_filter(self):
        config = GateConfig(classes=("modeled",))
        verdict = compare_to_baseline(
            self._baseline(), [make_record(perm_filter_s=10.0)], config
        )
        assert verdict.status == "ok"
        assert all(c.klass == "modeled" for c in verdict.checks)

    def test_new_and_missing_do_not_fail(self):
        verdict = compare_to_baseline(
            self._baseline(), [make_record(name="other")]
        )
        assert verdict.status == "ok"
        statuses = {c.status for c in verdict.checks}
        assert statuses == {"new", "missing"}

    def test_verdict_json_shape(self):
        verdict = compare_to_baseline(
            self._baseline(), [make_record(perm_filter_s=0.030)]
        )
        doc = verdict.to_json()
        json.dumps(doc)
        assert doc["schema"] == "repro.gate/1"
        assert doc["status"] == "regression" and doc["regressions"] >= 1

    def test_render_names_regression(self):
        verdict = compare_to_baseline(
            self._baseline(), [make_record(perm_filter_s=0.030)]
        )
        out = render_verdict(verdict)
        assert "REGRESSION" in out and "span.perm_filter.total_s" in out
