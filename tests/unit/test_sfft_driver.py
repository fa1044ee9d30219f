"""End-to-end unit tests for the sFFT driver and result type."""

import numpy as np
import pytest

from repro.core import STEP_NAMES, SparseFFTResult, dense_fft, dense_topk, sfft
from repro.core.dense import reconstruct_time
from repro.errors import ParameterError, RecoveryError
from repro.obs import Tracer
from repro.signals import add_awgn, make_sparse_signal


def _ground_truth(sig):
    return {int(f): complex(v) for f, v in zip(sig.locations, sig.values)}


class TestSfftExactRecovery:
    @pytest.mark.parametrize(
        "n,k,seed", [(1024, 1, 0), (1024, 4, 1), (4096, 10, 2), (1 << 14, 32, 3)]
    )
    def test_exact_sparse_recovery(self, n, k, seed):
        sig = make_sparse_signal(n, k, seed=seed)
        res = sfft(sig.time, k, seed=seed + 1000)
        want = _ground_truth(sig)
        assert set(res.as_dict()) == set(want)
        for f, v in res.as_dict().items():
            assert abs(v - want[f]) < 1e-5 * abs(want[f])

    def test_matches_dense_fft_topk(self):
        sig = make_sparse_signal(4096, 8, seed=4)
        res = sfft(sig.time, 8, seed=5)
        locs, vals = dense_topk(dense_fft(sig.time), 8)
        assert (res.locations == locs).all()
        assert np.abs(res.values - vals).max() < 1e-5 * np.abs(vals).max()

    def test_real_input_accepted(self):
        # A real signal has a conjugate-symmetric spectrum: k tones appear
        # as 2k coefficients; ask for 2k.
        n = 4096
        t = np.arange(n)
        x = np.cos(2 * np.pi * 50 * t / n) + 0.5 * np.cos(2 * np.pi * 300 * t / n)
        res = sfft(x, 4, seed=6)
        assert set(res.locations.tolist()) == {50, 300, n - 300, n - 50}

    def test_noisy_recovery(self):
        sig = make_sparse_signal(1 << 14, 16, seed=7)
        noisy, _ = add_awgn(sig.time, 25.0, seed=8)
        res = sfft(noisy, 16, seed=9)
        assert set(res.locations.tolist()) == set(sig.locations.tolist())

    def test_threshold_cutoff_recovers(self, plan_medium, signal_medium):
        res = sfft(signal_medium.time, plan=plan_medium, cutoff_method="threshold")
        assert set(res.locations.tolist()) == set(signal_medium.locations.tolist())


class TestSfftDriverOptions:
    def test_plan_reuse_deterministic(self, plan_small, signal_small):
        a = sfft(signal_small.time, plan=plan_small)
        b = sfft(signal_small.time, plan=plan_small)
        assert (a.locations == b.locations).all()
        assert np.array_equal(a.values, b.values)

    def test_profile_records_all_steps(self, plan_small, signal_small):
        res = sfft(signal_small.time, plan=plan_small, tracer=Tracer())
        assert set(res.step_times) == set(STEP_NAMES)
        assert all(t >= 0 for t in res.step_times.values())

    @pytest.mark.parametrize("override", [{"binning": "serial"},
                                          {"profile": True}])
    def test_overrides_rejected_alongside_a_plan(self, plan_small,
                                                 signal_small, override):
        from repro.core import sfft_batch

        with pytest.raises(ParameterError, match="plan overrides"):
            sfft(signal_small.time, plan=plan_small, **override)
        with pytest.raises(ParameterError, match="plan overrides"):
            sfft_batch([signal_small.time], plan=plan_small, **override)

    def test_k_must_agree_with_a_given_plan(self, plan_small, signal_small):
        # An explicit k that disagrees with the plan used to be ignored
        # silently (the plan's k won); k == plan.k stays allowed.
        from repro.core import sfft_batch

        x, k = signal_small.time, plan_small.k
        with pytest.raises(ParameterError, match="disagrees"):
            sfft(x, 2 * k, plan=plan_small)
        with pytest.raises(ParameterError, match="disagrees"):
            sfft_batch([x], 2 * k, plan=plan_small)
        want = sfft(x, plan=plan_small)
        got = sfft(x, k, plan=plan_small)
        (batched,) = sfft_batch([x], k, plan=plan_small)
        for res in (got, batched):
            np.testing.assert_array_equal(res.locations, want.locations)
            np.testing.assert_array_equal(res.values, want.values)

    def test_profile_selects_the_plan_profile(self):
        # ``profile`` is a plan-derivation override like ``loops``: it
        # reaches the plan (the fast filter) and switches no timing on.
        from repro.core import make_plan

        n, k, seed = 1 << 14, 8, 3
        x = make_sparse_signal(n, k, seed=4).time
        got = sfft(x, k, seed=seed, profile="fast", loops=6)
        want = sfft(x, plan=make_plan(n, k, seed=seed, profile="fast",
                                      loops=6))
        assert got.step_times is None and got.trace is None
        np.testing.assert_array_equal(got.locations, want.locations)
        np.testing.assert_array_equal(got.values, want.values)
        np.testing.assert_array_equal(got.votes, want.votes)

    def test_no_profile_no_times(self, plan_small, signal_small):
        assert sfft(signal_small.time, plan=plan_small).step_times is None

    def test_requires_k_or_plan(self, signal_small):
        with pytest.raises(ParameterError):
            sfft(signal_small.time)

    def test_signal_length_must_match_plan(self, plan_small):
        with pytest.raises(ParameterError):
            sfft(np.zeros(512, complex), plan=plan_small)

    def test_strict_raises_on_under_recovery(self):
        # Deterministic under-recovery: with select_count=1 the cutoff keeps
        # only the dominant coefficient's bucket every loop, so the other
        # three coefficients can never gather votes and strict mode trips.
        from repro.core import make_plan

        # The noise keeps the signal on the voting path: an exactly sparse
        # one is located by phase and never meets the cutoff.
        n = 1024
        vals = n * np.array([1.0, 0.5, 0.25, 0.125], dtype=complex)
        sig = make_sparse_signal(
            n, 4, locations=np.array([100, 300, 500, 700]), values=vals
        )
        x, _ = add_awgn(sig.time, 40.0, seed=1)
        plan = make_plan(n, 4, seed=0, select_count=1)
        with pytest.raises(RecoveryError):
            sfft(x, plan=plan, strict=True)

    def test_trim_to_k(self, plan_small, signal_small):
        res = sfft(signal_small.time, plan=plan_small, trim_to_k=True)
        assert res.k_found <= plan_small.k

    def test_untrimmed_can_exceed_k(self, plan_small):
        sig = make_sparse_signal(1024, 4, seed=20)
        res = sfft(sig.time, plan=plan_small, trim_to_k=False)
        assert res.k_found >= 4


class TestNonFiniteInput:
    """NaN/inf input, and finite input whose spectrum overflows float64,
    fail with ParameterError instead of returning non-finite values."""

    N, K = 4096, 8

    def _signal(self):
        return make_sparse_signal(self.N, self.K, seed=40).time.copy()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_rejected(self, bad):
        x = self._signal()
        x[::7] = bad
        with np.errstate(all="ignore"), \
                pytest.raises(ParameterError, match="NaN or infinite"):
            sfft(x, self.K, seed=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_one_read_sample_rejected_unread_ignored(self, bad):
        from repro.core import cached_plan

        n = 1 << 15  # the loops' windows leave some samples unread here
        plan = cached_plan(n, 4, seed=1)
        # Every run reads loop 0's window (phase location and voting
        # both start there); no run reads a sample outside every loop's.
        read = np.unique(plan.workspace().gather[0])
        unread = np.setdiff1d(np.arange(n), plan.workspace().gather)
        assert unread.size > 0
        clean = make_sparse_signal(n, 4, seed=41).time
        x = clean.copy()
        x[read[len(read) // 2]] = bad
        with np.errstate(all="ignore"), pytest.raises(ParameterError):
            sfft(x, plan=plan)
        # A sample no loop reads cannot change the result.
        x = clean.copy()
        x[unread[0]] = bad
        got, want = sfft(x, plan=plan), sfft(clean, plan=plan)
        np.testing.assert_array_equal(got.locations, want.locations)
        np.testing.assert_array_equal(got.values, want.values)

    def test_overflowing_finite_input_rejected(self):
        x = self._signal()
        x *= 1e308 / np.abs(x).max()
        assert np.isfinite(x).all()
        with np.errstate(all="ignore"), \
                pytest.raises(ParameterError, match="overflow"):
            sfft(x, self.K, seed=1)

    def test_batch_error_names_the_stack_row(self):
        from repro.core import cached_plan, sfft_batch

        X = np.stack([self._signal() for _ in range(3)])
        plan = cached_plan(self.N, self.K, seed=1)
        # Only samples the plan reads are checked: loop 0 reads this one.
        read = plan.workspace().gather[0][0]
        X[2, read] = np.nan
        with np.errstate(all="ignore"), \
                pytest.raises(ParameterError, match="signal 2"):
            sfft_batch(X, plan=plan)
        X[2, read] = 0.0
        X[1] *= 1e308 / np.abs(X[1]).max()
        with np.errstate(all="ignore"), \
                pytest.raises(ParameterError, match="signal 1: .*overflow"):
            sfft_batch(X, plan=plan)


class TestSparseFFTResult:
    def test_to_dense_roundtrip(self):
        res = SparseFFTResult(
            n=16,
            locations=np.array([2, 5]),
            values=np.array([1 + 0j, 2j]),
            votes=np.array([4, 4]),
        )
        dense = res.to_dense()
        assert dense[2] == 1 and dense[5] == 2j and np.count_nonzero(dense) == 2

    def test_top_keeps_largest(self):
        res = SparseFFTResult(
            n=16,
            locations=np.array([1, 2, 3]),
            values=np.array([1.0, 10.0, 5.0], dtype=complex),
            votes=np.array([4, 4, 4]),
        )
        top = res.top(2)
        assert set(top.locations.tolist()) == {2, 3}

    def test_top_noop_when_k_large(self):
        res = SparseFFTResult(
            n=16,
            locations=np.array([1]),
            values=np.array([1.0 + 0j]),
            votes=np.array([4]),
        )
        assert res.top(5) is res

    def test_top_zero_is_empty_and_negative_k_raises(self):
        res = SparseFFTResult(
            n=16,
            locations=np.array([1, 2, 3], dtype=np.int64),
            values=np.array([1.0, 10.0, 5.0], dtype=complex),
            votes=np.array([4, 4, 4]),
        )
        empty = res.top(0)
        assert empty.k_found == 0
        assert empty.locations.dtype == np.int64
        assert empty.values.dtype == np.complex128
        with pytest.raises(ParameterError, match="k >= 0"):
            res.top(-1)

    def test_reconstruct_time_inverts(self):
        sig = make_sparse_signal(512, 3, seed=21)
        res = sfft(sig.time, 3, seed=22)
        back = reconstruct_time(res.locations, res.values, 512)
        assert np.abs(back - sig.time).max() < 1e-6 * np.abs(sig.time).max()

    def test_reconstruct_time_shape_check(self):
        with pytest.raises(ParameterError):
            reconstruct_time(np.array([1, 2]), np.array([1.0 + 0j]), 16)

    def test_dense_topk_validates(self):
        with pytest.raises(ParameterError):
            dense_topk(np.zeros(8), 0)
        with pytest.raises(ParameterError):
            dense_topk(np.zeros((2, 4)), 1)


class TestVerifyMode:
    def test_verify_passes_on_sparse_input(self):
        sig = make_sparse_signal(1 << 12, 6, seed=60)
        res = sfft(sig.time, 6, seed=61, verify=True)
        assert res.k_found == 6

    def test_verify_raises_on_non_sparse_input(self):
        rng = np.random.default_rng(62)
        dense_noise = rng.standard_normal(1 << 12)
        with pytest.raises(RecoveryError, match="verification failed"):
            sfft(dense_noise, 6, seed=63, verify=True)

    def test_verify_off_by_default(self):
        rng = np.random.default_rng(64)
        res = sfft(rng.standard_normal(1 << 12), 6, seed=65)
        assert res.k_found >= 0  # degrades gracefully, no exception
