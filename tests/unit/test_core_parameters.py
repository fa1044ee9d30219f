"""Unit tests for sFFT parameter derivation and plan construction."""

import numpy as np
import pytest

from repro.core import SfftParameters, derive_parameters, make_plan
from repro.errors import ParameterError


class TestDeriveParameters:
    def test_defaults_sane(self):
        p = derive_parameters(1 << 20, 50)
        assert p.n == 1 << 20 and p.k == 50
        assert p.B % 2 == 0 and (1 << 20) % p.B == 0
        assert p.B >= 4 * 50 // 2  # at least ~2k buckets
        assert p.vote_threshold > p.loops // 2

    def test_bucket_count_scales_with_sqrt_nk(self):
        small = derive_parameters(1 << 16, 10).B
        bigger_n = derive_parameters(1 << 22, 10).B
        bigger_k = derive_parameters(1 << 16, 640).B
        assert bigger_n > small
        assert bigger_k > small

    def test_explicit_overrides(self):
        p = derive_parameters(1 << 12, 8, B=256, loops=5, vote_threshold=3)
        assert (p.B, p.loops, p.vote_threshold) == (256, 5, 3)

    def test_select_count_default_2k(self):
        p = derive_parameters(1 << 14, 16)
        assert p.select_count == 32

    def test_n_must_be_power_of_two(self):
        with pytest.raises(ParameterError):
            derive_parameters(1000, 10)

    def test_k_must_be_less_than_n(self):
        with pytest.raises(ParameterError):
            derive_parameters(64, 64)

    def test_bad_B_override(self):
        with pytest.raises(ParameterError):
            derive_parameters(1 << 12, 8, B=3)  # not a power of two
        with pytest.raises(ParameterError):
            derive_parameters(1 << 12, 8, B=1 << 12)  # > n/2

    def test_bad_vote_threshold(self):
        with pytest.raises(ParameterError):
            derive_parameters(1 << 12, 8, loops=4, vote_threshold=5)

    def test_n_div_B(self):
        p = derive_parameters(1 << 12, 8, B=256)
        assert p.n_div_B == (1 << 12) // 256

    def test_describe_mentions_shape(self):
        text = derive_parameters(1 << 12, 8).describe()
        assert "n=2^12" in text and "k=8" in text

    def test_frozen(self):
        p = derive_parameters(1 << 12, 8)
        with pytest.raises(AttributeError):
            p.B = 128

    def test_direct_construction_validates(self):
        with pytest.raises(ParameterError):
            SfftParameters(
                n=1024, k=4, B=512, loops=4, vote_threshold=3,
                select_count=1024, window="gaussian", tolerance=1e-8,
                lobefrac=0.001,
            )


class TestPlan:
    def test_plan_filter_padded_to_B(self, plan_small):
        assert plan_small.filt.width % plan_small.B == 0

    def test_plan_has_loop_permutations(self, plan_small):
        assert len(plan_small.permutations) == plan_small.loops
        sigmas = {p.sigma for p in plan_small.permutations}
        assert len(sigmas) > 1  # overwhelmingly likely with distinct draws

    def test_plan_deterministic_by_seed(self):
        a = make_plan(1 << 12, 8, seed=5)
        b = make_plan(1 << 12, 8, seed=5)
        assert [p.sigma for p in a.permutations] == [p.sigma for p in b.permutations]

    def test_reseeded_changes_permutations_not_filter(self, plan_small):
        fresh = plan_small.reseeded(seed=999)
        assert fresh.filt is plan_small.filt
        assert [p.sigma for p in fresh.permutations] != [
            p.sigma for p in plan_small.permutations
        ]

    def test_rounds_property(self, plan_small):
        assert plan_small.rounds == plan_small.filt.width // plan_small.B

    def test_describe(self, plan_small):
        assert "SfftPlan[" in plan_small.describe()

    def test_plan_with_explicit_params(self):
        from repro.core import derive_parameters

        params = derive_parameters(1 << 12, 8, loops=4)
        plan = make_plan(1 << 12, 8, params=params, seed=0)
        assert plan.loops == 4


class TestLocLoopsSplit:
    """The reference implementation's location/estimation loop split."""

    def test_default_votes_in_every_loop(self):
        p = derive_parameters(1 << 14, 16)
        assert p.loc_loops is None
        assert p.voting_loops == p.loops

    def test_split_reduces_voting_loops(self):
        p = derive_parameters(1 << 14, 16, loops=6, loc_loops=3)
        assert p.voting_loops == 3
        assert p.vote_threshold == 2  # majority of the location loops

    def test_loc_loops_bounds(self):
        with pytest.raises(ParameterError):
            derive_parameters(1 << 14, 16, loops=6, loc_loops=7)
        with pytest.raises(ParameterError):
            derive_parameters(1 << 14, 16, loops=6, loc_loops=0)

    def test_threshold_must_fit_loc_loops(self):
        with pytest.raises(ParameterError):
            derive_parameters(
                1 << 14, 16, loops=6, loc_loops=2, vote_threshold=3
            )

    def test_split_recovery_still_exact(self):
        from repro.core import sfft
        from repro.signals import add_awgn, make_sparse_signal

        # Noise keeps the signal on the voting path (an exactly sparse
        # one is located by phase, where loc_loops plays no part).
        sig = make_sparse_signal(1 << 14, 16, seed=5)
        x, _ = add_awgn(sig.time, 40.0, seed=5)
        plan = make_plan(1 << 14, 16, seed=6, loops=6, loc_loops=3)
        res = sfft(x, plan=plan)
        assert set(res.locations.tolist()) == set(sig.locations.tolist())
        # Estimation still uses all 6 loops even though only 3 voted.
        assert res.votes.max() <= 3

    def test_split_reduces_modeled_votes(self):
        from repro.perf import sfft_step_counts

        full = sfft_step_counts(derive_parameters(1 << 20, 100, loops=6))
        split = sfft_step_counts(
            derive_parameters(1 << 20, 100, loops=6, loc_loops=3)
        )
        assert split.votes == full.votes // 2
        assert split.gathers == full.gathers  # all loops still bin

    def test_split_values_match_full_voting(self):
        # Same plan filter/permutations; the split changes which loops
        # vote, not the estimates of commonly recovered frequencies.
        from repro.core import sfft
        from repro.signals import add_awgn, make_sparse_signal
        import numpy as np

        sig = make_sparse_signal(1 << 13, 8, seed=7)
        x, _ = add_awgn(sig.time, 40.0, seed=7)  # votes: see above
        full_plan = make_plan(1 << 13, 8, seed=8, loops=6)
        a = sfft(x, plan=full_plan)
        split_params = derive_parameters(1 << 13, 8, loops=6, loc_loops=3)
        split_plan = make_plan(1 << 13, 8, seed=8, params=split_params)
        b = sfft(x, plan=split_plan)
        assert (a.locations == b.locations).all()
        assert np.abs(a.values - b.values).max() < 1e-9 * np.abs(a.values).max()
