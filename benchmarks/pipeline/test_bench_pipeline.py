"""Checks of the pipeline benchmark itself (not of the transform's speed).

Run with ``PYTHONPATH=src python -m pytest benchmarks/pipeline``.  Every
workload runs for a short window through :func:`harness.run_workload`, so
this suite takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import compare
import harness
import run
from workloads import WORKLOADS, make_inputs

SPEC = run.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SHORT_SECONDS = 1.5


@pytest.fixture(scope="module")
def runs():
    """``(workload, trace) -> RunResult`` for short runs, made once."""
    cache = {}

    def get(name, trace):
        if (name, trace) not in cache:
            cache[(name, trace)] = harness.run_workload(
                name, seed=0, seconds=SHORT_SECONDS, trace=trace
            )
        return cache[(name, trace)]

    return get


class TestSpec:
    def test_keys_and_limits(self):
        assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
        assert 2 <= len(SPEC["workloads"]) <= 8
        assert 1 <= len(SPEC["end_to_end"]) <= 16
        assert 1 <= len(SPEC["per_layer"]) <= 128
        assert isinstance(SPEC["run_seconds"], int)
        assert 1 <= SPEC["run_seconds"] <= 60

    def test_names_units_and_bounds(self):
        names = [w["name"] for w in SPEC["workloads"]]
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            names.append(m["name"])
            assert UNIT.match(m["unit"]), m
            assert m["better"] in ("higher", "lower")
        assert all(NAME.match(n) for n in names), names
        assert len(set(names)) == len(names)
        for w in SPEC["workloads"]:
            assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        assert all(0 < b <= 0.25 for b in bounds.values())
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        assert setup["unit"] == "s" and setup["better"] == "lower"
        assert bounds["setup_s"] == max(bounds.values())

    def test_workloads_match_the_harness(self):
        assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)

    def test_command_stays_inside_paths(self):
        assert SPEC["command"][1].startswith(SPEC["paths"][0] + "/")
        assert (run.ROOT / SPEC["command"][1]).is_file()


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(runs, name, trace):
    result = runs(name, trace)
    units = run.metric_units(SPEC, trace)
    line = run.result_line(result, units)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {
        n: {"value": line["metrics"][n]["value"], "unit": u}
        for n, u in units.items()
    }
    assert all(isinstance(m["value"], float) for m in line["metrics"].values())
    if not trace:
        assert set(harness.ADVISORY_UNITS) <= set(result.metrics)
    assert line["correct"], result.notes
    assert line["attempted"] >= 1 and line["failed"] == 0
    json.dumps(line, allow_nan=False)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_writes_a_valid_run_record(runs, name):
    from repro.obs import validate_run_record

    record = runs(name, True).record
    assert validate_run_record(record) == []
    stages = {sp["name"].partition(".")[2] or sp["name"]
              for sp in record["spans"]}
    assert {"perm_filter", "bucket_fft", "cutoff", "recovery",
            "estimation"} <= stages


def test_inputs_repeat_for_a_seed():
    w = WORKLOADS["noisy-k256"]
    a, b = make_inputs(w, 3), make_inputs(w, 3)
    assert np.array_equal(a.X, b.X)
    assert not np.array_equal(a.X, make_inputs(w, 4).X)


class TestChecker:
    def _results(self):
        from repro.core import make_plan, sfft_batch

        w = WORKLOADS["noisy-k256"]
        inputs = make_inputs(w, 0)
        plan = make_plan(w.n, w.k, seed=1234)
        return w, inputs, sfft_batch(inputs.X[:2], plan=plan)

    def test_corrupted_result_counts_as_failed(self):
        w, inputs, results = self._results()
        checker = harness.OutputChecker(w.k, inputs)
        assert checker.check([0, 1], results) == 0
        bad = results[1].values.copy()
        bad[0] += 1e-9
        corrupted = dataclasses.replace(results[1], values=bad)
        assert checker.check([0, 1], [results[0], corrupted]) == 1
        assert checker.failed_fraction > 0

    def test_non_finite_short_and_raised_results_fail(self):
        w, inputs, results = self._results()
        nan = results[0].values.copy()
        nan[0] = np.nan
        checker = harness.OutputChecker(w.k)
        assert checker.check([0], [dataclasses.replace(results[0],
                                                       values=nan)]) == 1
        assert checker.check([1], [results[1].top(w.k - 1)]) == 1
        assert checker.raised([2, 3]) == 2
        assert checker.failed_fraction == 1.0


class TestCompare:
    def test_verdicts(self):
        base = [100.0, 101.0, 99.0, 100.5, 99.5]
        assert compare.verdict(base, base, 0.1, True) == "same"
        assert compare.verdict(base, [v * 0.8 for v in base], 0.1,
                               True) == "worse"
        assert compare.verdict(base, [v * 0.8 for v in base], 0.1,
                               False) == "better"
        noisy = [50.0, 150.0, 100.0, 70.0, 130.0]
        assert compare.verdict(base, noisy, 0.1, True) == "unresolved"
        assert compare.verdict(noisy, [v * 10 for v in noisy], 0.1,
                               True) == "better"

    def test_paired_verdicts(self):
        a = {0: 1.0e-3, 1: 2.0e-3, 2: 3.0e-3}
        assert compare.paired_verdict(a, dict(a), 0.01, False) == "same"
        # A 2% loss on one seed is worse; pooled over seeds, the
        # seed-to-seed spread would hide it.
        b = {**a, 0: 1.02e-3}
        assert compare.verdict(list(a.values()), list(b.values()), 0.01,
                               False) == "unresolved"
        assert compare.paired_verdict(a, b, 0.01, False) == "worse"
        better = {s: v * 0.9 for s, v in a.items()}
        assert compare.paired_verdict(a, better, 0.01, False) == "better"
        assert compare.paired_verdict(a, {7: 1.0}, 0.01, False) \
            == "unresolved"

    @staticmethod
    def _write(directory, metric, values, seconds=20.0):
        directory.mkdir()
        for seed, value in enumerate(values):
            doc = {"workload": "batch-20", "seed": seed, "trace": 0,
                   "seconds": seconds,
                   "result": {"metrics": {metric: {"value": value,
                                                   "unit": "ratio"}}}}
            (directory / f"{seed}.json").write_text(json.dumps(doc))

    def test_directories(self, tmp_path, capsys):
        values = [1.1 + seed / 100 for seed in range(3)]
        self._write(tmp_path / "a", "sparse_over_dense", values)
        self._write(tmp_path / "b", "sparse_over_dense",
                    [1.5 * v for v in values])
        assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        assert "worse" in capsys.readouterr().out

    def test_accuracy_is_compared_seed_by_seed(self, tmp_path, capsys):
        values = [1.0e-3, 2.0e-3, 3.0e-3]
        self._write(tmp_path / "a", "l1_error_per_coeff", values)
        self._write(tmp_path / "b", "l1_error_per_coeff",
                    [values[0] * 1.05] + values[1:])
        assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        assert "worse" in capsys.readouterr().out

    def test_refuses_runs_of_different_lengths(self, tmp_path, capsys):
        self._write(tmp_path / "a", "sparse_over_dense", [1.1, 1.2], 20.0)
        self._write(tmp_path / "b", "sparse_over_dense", [1.1, 1.2], 1.0)
        assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2
        assert "different lengths" in capsys.readouterr().err


def _run_script(cwd, env=None):
    return subprocess.run(
        [sys.executable, "benchmarks/pipeline/run.py", "--workload",
         "stream-14"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run_script(tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_refuses_repro_environment():
    env = {**os.environ, "REPRO_FFT_BACKEND": "numpy"}
    proc = _run_script(run.ROOT, env)
    assert proc.returncode == 2
    assert "REPRO_FFT_BACKEND" in proc.stderr and proc.stdout == ""
