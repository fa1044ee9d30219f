"""Unit tests for the measured auto-tuner (repro.tune)."""

from __future__ import annotations

import json

import pytest

from repro.core.parameters import derive_parameters
from repro.errors import ParameterError
from repro.tune import (
    Candidate,
    TuneConfig,
    WorkloadClass,
    candidate_from_config,
    generate_candidates,
    measure_candidate,
    tune_class,
    validate_wisdom_record,
)
from repro.tune.cli import tune_main
from repro.tune.tuner import _beats_default, _probe_signals
from repro.tune.wisdom import _CONFIG_KEYS

N, K = 4096, 4
TINY = TuneConfig(trials=2, probes=1, reps=1)


@pytest.fixture(autouse=True)
def clean_resolution_env(monkeypatch):
    """The tuner measures raw configs; ambient wisdom would skew probes."""
    monkeypatch.delenv("REPRO_WISDOM", raising=False)


class TestWorkloadClass:
    def test_key_round_trips(self):
        wc = WorkloadClass(N, K, "noisy", 8)
        assert wc.key == f"n={N}|k={K}|noise=noisy|batch=8"

    def test_bad_axes_rejected(self):
        with pytest.raises(ParameterError):
            WorkloadClass(N, K, "quiet")
        with pytest.raises(ParameterError):
            WorkloadClass(N, K, batch_size=0)


class TestCandidate:
    def test_default_has_no_overrides(self):
        cand = Candidate()
        assert cand.is_default
        assert cand.plan_overrides(N, K) == {}
        assert cand.label() == "default"

    def test_b_scale_keeps_powers_of_two_in_range(self):
        base = derive_parameters(N, K).B
        half = Candidate(B_scale=0.5).plan_overrides(N, K)["B"]
        assert half == base // 2
        tiny = Candidate(B_scale=1e-9).plan_overrides(N, K)["B"]
        assert tiny == 2
        huge = Candidate(B_scale=1e9).plan_overrides(N, K)["B"]
        assert huge == N // 2

    def test_resolved_matches_derivation(self):
        cand = Candidate(loops=6)
        assert cand.resolved(N, K)["loops"] == 6

    def test_config_round_trips_through_candidate_from_config(self):
        cand = Candidate(B_scale=0.5, loops=6, workers=2)
        assert candidate_from_config(cand.config()) == cand

    def test_labels_name_every_axis(self):
        label = Candidate(B_scale=0.5, loops=6, comb_width=64,
                          fft_backend="scipy", workers=2).label()
        for bit in ("B*0.5", "L=6", "comb=64", "scipy", "threadx2"):
            assert bit in label


class TestGenerateCandidates:
    def test_default_is_always_first(self):
        for wc in (WorkloadClass(N, K), WorkloadClass(N, K, batch_size=8)):
            cands = generate_candidates(wc)
            assert cands[0].is_default
            assert len(cands) == len(set(cands))  # deduped

    def test_single_classes_have_no_executor_axes(self):
        for cand in generate_candidates(WorkloadClass(N, K)):
            assert cand.fft_backend is None and cand.workers == 1

    def test_batch_classes_add_executor_axes(self):
        cands = generate_candidates(WorkloadClass(N, K, batch_size=8))
        assert any(c.workers > 1 for c in cands)

    def test_no_config_axis_is_dead(self):
        # Every key a wisdom record stores is one the batch sweep varies:
        # an axis no candidate moves would be schema the tuner never
        # measures.
        default = Candidate().config()
        cands = generate_candidates(WorkloadClass(N, K, batch_size=8))
        for key in default:
            assert any(c.config()[key] != default[key] for c in cands), key
        assert _CONFIG_KEYS == set(default)

    def test_budget_truncates_but_keeps_default(self):
        cands = generate_candidates(WorkloadClass(N, K), budget=2)
        assert len(cands) == 2 and cands[0].is_default


class TestMeasurement:
    def test_default_candidate_is_exact_on_probes(self):
        wc = WorkloadClass(N, K)
        xs, truths = _probe_signals(wc, TINY, 2016)
        stats = measure_candidate(wc, Candidate(), xs, truths, TINY,
                                  seed=2016)
        assert stats.exact
        assert stats.median_s > 0 and len(stats.samples) == TINY.trials

    def test_beats_default_needs_a_real_margin(self):
        from repro.tune.tuner import CandidateStats

        default = CandidateStats(Candidate(), "default", median_s=1.0,
                                 iqr_s=0.0, exact=True)
        config = TuneConfig(threshold=0.05, iqr_factor=1.5, min_abs_s=0.0)
        fast = CandidateStats(Candidate(loops=6), "L=6", median_s=0.90,
                              iqr_s=0.0, exact=True)
        slowish = CandidateStats(Candidate(loops=6), "L=6", median_s=0.97,
                                 iqr_s=0.0, exact=True)
        noisy = CandidateStats(Candidate(loops=6), "L=6", median_s=0.90,
                               iqr_s=0.10, exact=True)
        assert _beats_default(fast, default, config)
        assert not _beats_default(slowish, default, config)  # < threshold
        assert not _beats_default(noisy, default, config)    # < IQR band

    def test_inexact_candidate_cannot_win(self):
        # B clamped down to 2 buckets with k=4 collides almost surely;
        # whatever its speed, the exactness screen must reject it.
        wc = WorkloadClass(N, K)
        outcome = tune_class(
            wc, config=TINY,
            candidates=[Candidate(), Candidate(B_scale=1e-9)],
            seed=2016,
        )
        inexact = [s for s in outcome.ranking if not s.exact]
        assert outcome.winner.candidate.is_default or all(
            s.exact for s in outcome.ranking
        )
        if inexact:
            assert outcome.winner.candidate != inexact[0].candidate


class TestTuneClass:
    def test_outcome_record_is_schema_valid(self):
        outcome = tune_class(WorkloadClass(N, K), config=TINY, budget=2,
                             seed=2016)
        record = dict(outcome.record)
        record["version"] = 1
        assert validate_wisdom_record(record) == []
        assert outcome.record["class"] == WorkloadClass(N, K).key
        assert outcome.default.candidate.is_default

    def test_winner_defaults_without_contenders(self):
        outcome = tune_class(WorkloadClass(N, K), config=TINY,
                             candidates=[Candidate()], seed=2016)
        assert not outcome.improved
        assert outcome.winner is outcome.default

    def test_trial_budget_validated(self):
        with pytest.raises(ParameterError):
            TuneConfig(trials=0)
        with pytest.raises(ParameterError):
            TuneConfig(reps=0)


class TestTuneCli:
    def test_dry_run_writes_nothing_and_ranks(self, tmp_path, capsys):
        store = tmp_path / "W.json"
        code = tune_main([
            "--class", "12:4", "--trials", "2", "--budget", "2",
            "--store", str(store), "--dry-run", "--json",
        ])
        assert code == 0
        assert not store.exists()
        out, err = capsys.readouterr()
        record = json.loads(out.strip().splitlines()[-1])
        assert validate_wisdom_record(record) == []
        assert "rank" in err and "winner" in err

    def test_store_write_appends_monotonic_versions(self, tmp_path,
                                                    capsys):
        store = tmp_path / "W.json"
        argv = ["--class", "12:4", "--trials", "2", "--budget", "2",
                "--store", str(store)]
        assert tune_main(argv) == 0
        assert tune_main(argv) == 0
        lines = [json.loads(s) for s in
                 store.read_text().strip().splitlines()]
        assert [r["version"] for r in lines] == [1, 2]
        assert all(validate_wisdom_record(r) == [] for r in lines)

    def test_malformed_class_is_a_usage_error(self, capsys):
        assert tune_main(["--class", "banana"]) == 2
        assert "class" in capsys.readouterr().err
