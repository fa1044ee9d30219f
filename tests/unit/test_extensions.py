"""Unit tests for the extension features: Comb pre-filter, transform
variants (inverse / real / batch), autotuning, additional device models."""

import numpy as np
import pytest

from repro import isfft, make_plan, rsfft, sfft, sfft_batch
from repro.core.comb import comb_approved_residues, comb_spectrum
from repro.core.recovery import recover_locations
from repro.core.permutation import random_permutation
from repro.cpu import CPU_DEVICES, SANDY_BRIDGE_E5_2640, XEON_PHI_5110P, PsFFT
from repro.cusim import GPU_DEVICES, KEPLER_K20X, KEPLER_K40, MAXWELL_M40
from repro.errors import ParameterError
from repro.experiments.tuning import candidate_bucket_counts, tune_parameters
from repro.gpu import CusFFT, OPTIMIZED
from repro.obs import Tracer
from repro.signals import make_sparse_signal


class TestCombSpectrum:
    def test_aliases_residue_classes(self):
        # A single tone at frequency f shows up in class f mod W.
        n, W, f = 1 << 12, 64, 777
        t = np.arange(n)
        x = np.exp(2j * np.pi * f * t / n)
        z = np.abs(comb_spectrum(x, W, tau=0))
        assert int(np.argmax(z)) == f % W

    def test_aliasing_sums_coefficients(self):
        # Two tones in the same class can cancel for specific tau...
        n, W = 1 << 10, 32
        t = np.arange(n)
        x = np.exp(2j * np.pi * 5 * t / n) + np.exp(2j * np.pi * (5 + W) * t / n)
        z0 = np.abs(comb_spectrum(x, W, tau=0))
        assert int(np.argmax(z0)) == 5

    def test_invalid_W(self):
        x = np.zeros(64, complex)
        with pytest.raises(ParameterError):
            comb_spectrum(x, 48, 0)   # not a power of two
        with pytest.raises(ParameterError):
            comb_spectrum(x, 128, 0)  # larger than n
        with pytest.raises(ParameterError):
            comb_spectrum(x, 32, 64)  # tau out of range


class TestCombApproval:
    def test_true_support_always_approved(self):
        for seed in range(5):
            sig = make_sparse_signal(1 << 14, 12, seed=seed)
            mask = comb_approved_residues(sig.time, 512, 12, seed=seed + 50)
            assert mask[sig.locations % 512].all()

    def test_most_classes_rejected(self):
        sig = make_sparse_signal(1 << 14, 12, seed=9)
        mask = comb_approved_residues(sig.time, 1024, 12, seed=10)
        assert mask.mean() < 0.25

    def test_sfft_with_comb_exact(self):
        sig = make_sparse_signal(1 << 14, 16, seed=11)
        res = sfft(sig.time, 16, seed=12, comb_width=512)
        assert set(res.locations.tolist()) == set(sig.locations.tolist())

    def test_residue_filter_blocks_unapproved(self):
        n, B = 256, 16
        rng = np.random.default_rng(13)
        perm = random_permutation(n, rng)
        # Forbid everything: no hits can survive.
        mask = np.zeros(8, dtype=bool)
        hits, _ = recover_locations(
            [np.arange(B)], [perm], B, 1, residue_filter=mask
        )
        assert hits.size == 0

    def test_bad_filter_shape(self):
        n, B = 256, 16
        perm = random_permutation(n, np.random.default_rng(1))
        for mask in (np.zeros((2, 2), dtype=bool), np.zeros(0, dtype=bool)):
            with pytest.raises(ParameterError):
                recover_locations(
                    [np.arange(B)], [perm], B, 1, residue_filter=mask,
                )

    def test_vote_threshold_validated(self):
        sig = make_sparse_signal(1 << 10, 4, seed=1)
        with pytest.raises(ParameterError):
            comb_approved_residues(sig.time, 64, 4, loops=2, vote_threshold=3)


class TestInverseTransform:
    def test_isfft_finds_sparse_time_support(self):
        n, k = 1 << 12, 5
        rng = np.random.default_rng(2)
        locs = np.sort(rng.choice(n, k, replace=False))
        vals = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        dense = np.zeros(n, complex)
        dense[locs] = vals
        y = np.fft.fft(dense)
        res = isfft(y, k, seed=3)
        assert set(res.locations.tolist()) == set(locs.tolist())
        for f, v in zip(locs, vals):
            assert abs(res.as_dict()[int(f)] - v) < 1e-6 * max(1.0, abs(v))

    def test_traced_isfft_carries_the_trace(self):
        tracer = Tracer()
        res = isfft(np.fft.fft(make_sparse_signal(1 << 10, 3, seed=4).time),
                    3, seed=5, tracer=tracer)
        assert res.trace is tracer
        assert res.step_times is not None

    def test_isfft_matches_numpy_ifft(self):
        n, k = 1 << 12, 3
        sig = make_sparse_signal(n, k, seed=4)
        y = np.fft.fft(sig.time)          # y's ifft == sig.time... trivially
        res = isfft(np.fft.fft(sig.dense_spectrum()), k, seed=5)
        ref = np.fft.ifft(np.fft.fft(sig.dense_spectrum()))
        for f in res.locations:
            assert abs(res.as_dict()[int(f)] - ref[f]) < 1e-6 * np.abs(ref).max()


class TestRealTransform:
    def test_symmetric_support_and_real_reconstruction(self):
        n = 1 << 12
        t = np.arange(n)
        x = 2.0 * np.cos(2 * np.pi * 300 * t / n + 1.0) + np.sin(
            2 * np.pi * 1000 * t / n
        )
        res = rsfft(x, 4, seed=6)
        mirrors = set(((-res.locations) % n).tolist())
        assert mirrors == set(res.locations.tolist())
        back = np.fft.ifft(res.to_dense())
        assert np.abs(back.imag).max() < 1e-9
        assert np.abs(back.real - x).max() < 1e-6 * np.abs(x).max()

    def test_rejects_complex_input(self):
        with pytest.raises(ParameterError):
            rsfft(np.exp(1j * np.arange(64)), 2)

    def test_rejects_nan_imaginary_part(self):
        """A NaN compares False against 0, so a max-based check let it by."""
        x = np.cos(2 * np.pi * 300 * np.arange(1 << 12) / (1 << 12)) + 0j
        x.imag[5] = np.nan
        with pytest.raises(ParameterError, match="real signal"):
            rsfft(x, 8)

    def test_rejects_empty_complex_input(self):
        with pytest.raises(ParameterError):
            rsfft(np.zeros(0, dtype=np.complex128), 8)

    def test_traced_rsfft_carries_the_trace(self):
        tracer = Tracer()
        x = np.cos(2 * np.pi * 300 * np.arange(1 << 10) / (1 << 10))
        res = rsfft(x, 2, seed=6, tracer=tracer)
        assert res.trace is tracer
        assert res.step_times is not None

    def test_dc_kept_real(self):
        n = 1 << 10
        x = 3.0 + np.cos(2 * np.pi * 17 * np.arange(n) / n)
        res = rsfft(x, 3, seed=7)
        d = res.as_dict()
        assert 0 in d and abs(d[0].imag) == 0.0


class TestBatchTransform:
    def test_batch_matches_individual(self):
        plan = make_plan(1 << 10, 4, seed=8)
        sigs = [make_sparse_signal(1 << 10, 4, seed=s) for s in (20, 21, 22)]
        outs = sfft_batch([s.time for s in sigs], plan=plan)
        for sig, out in zip(sigs, outs):
            ref = sfft(sig.time, plan=plan)
            assert (out.locations == ref.locations).all()

    def test_batch_2d_array_input(self):
        sigs = np.stack(
            [make_sparse_signal(512, 3, seed=s).time for s in (1, 2)]
        )
        outs = sfft_batch(sigs, 3, seed=9)
        assert len(outs) == 2

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ParameterError):
            sfft_batch([np.zeros(64, complex), np.zeros(128, complex)], 2)

    def test_needs_k_or_plan(self):
        with pytest.raises(ParameterError):
            sfft_batch([np.zeros(64, complex)])


class TestTuning:
    def test_candidates_bracket_formula(self):
        cands = candidate_bucket_counts(1 << 20, 100)
        base = [c for c in cands]
        assert len(base) >= 2
        assert all(c & (c - 1) == 0 for c in base)

    def test_tuned_never_worse_than_formula(self):
        for logn in (20, 23, 26):
            n, k = 1 << logn, 1000
            kw = dict(profile="fast", select_count=k, bucket_constant=1.0)
            formula = CusFFT.create(
                n, k, config=OPTIMIZED, loops=6, **kw
            ).estimated_time()
            tuned = tune_parameters(n, k, loops=6, **kw)
            assert tuned.modeled_time_s <= formula + 1e-12

    def test_trials_sorted_best_first(self):
        res = tune_parameters(1 << 20, 100, profile="fast")
        times = [t for _, _, t in res.trials]
        assert times == sorted(times)
        assert res.modeled_time_s == times[0]

    def test_cpu_executor(self):
        res = tune_parameters(1 << 20, 100, executor="cpu", profile="fast")
        assert res.modeled_time_s > 0

    def test_bad_executor(self):
        with pytest.raises(ParameterError):
            tune_parameters(1 << 20, 100, executor="tpu")

    def test_tuned_params_functionally_valid(self):
        res = tune_parameters(1 << 14, 16, profile="fast")
        sig = make_sparse_signal(1 << 14, 16, seed=30)
        plan = make_plan(res.params.n, res.params.k, params=res.params, seed=31)
        out = sfft(sig.time, plan=plan)
        assert set(out.locations.tolist()) == set(sig.locations.tolist())


class TestAdditionalDevices:
    def test_rosters(self):
        assert KEPLER_K20X in GPU_DEVICES and KEPLER_K40 in GPU_DEVICES
        assert MAXWELL_M40 in GPU_DEVICES
        assert SANDY_BRIDGE_E5_2640 in CPU_DEVICES and XEON_PHI_5110P in CPU_DEVICES

    def test_k40_beats_k20x(self):
        k = 1000
        kw = dict(profile="fast", loops=6, bucket_constant=1.0, select_count=k)
        t20 = CusFFT.create(1 << 26, k, device=KEPLER_K20X, **kw).estimated_time()
        t40 = CusFFT.create(1 << 26, k, device=KEPLER_K40, **kw).estimated_time()
        assert t40 < t20

    def test_phi_beats_sandy_bridge_on_gathers(self):
        k = 1000
        kw = dict(profile="fast", loops=6, bucket_constant=1.0, select_count=k)
        sb = PsFFT.create(1 << 26, k, threads=6, **kw).estimated_time()
        phi = PsFFT.create(
            1 << 26, k, threads=60, cpu=XEON_PHI_5110P, **kw
        ).estimated_time()
        assert phi < sb

    def test_cusfft_functional_on_any_device(self):
        sig = make_sparse_signal(1 << 12, 8, seed=40)
        for dev in GPU_DEVICES:
            t = CusFFT.create(1 << 12, 8, device=dev)
            run = t.execute(sig.time, seed=41)
            assert set(run.result.locations.tolist()) == set(
                sig.locations.tolist()
            )


class TestDispatch:
    def test_small_n_prefers_dense(self):
        from repro.dispatch import recommend_transform

        d = recommend_transform(1 << 16, 1000, profile="fast")
        assert d.gpu_winner == "dense"
        assert d.gpu_advantage < 1.0

    def test_large_n_prefers_sparse(self):
        from repro.dispatch import recommend_transform

        d = recommend_transform(
            1 << 26, 1000, profile="fast", loops=6,
            bucket_constant=1.0, select_count=1000,
        )
        assert d.gpu_winner == "sparse"
        assert d.cpu_winner == "sparse"
        assert d.gpu_advantage > 2.0

    def test_all_four_systems_priced(self):
        from repro.dispatch import recommend_transform

        d = recommend_transform(1 << 20, 100)
        assert set(d.times) == {"cufft", "cusfft", "fftw", "psfft"}
        assert all(t > 0 for t in d.times.values())

    def test_bad_k(self):
        from repro.dispatch import recommend_transform

        with pytest.raises(ParameterError):
            recommend_transform(1 << 16, 0)

    def test_auto_sfft_dense_route_correct(self):
        from repro.dispatch import auto_sfft

        sig = make_sparse_signal(1 << 12, 4, seed=70)
        result, decision = auto_sfft(sig.time, 4, seed=71)
        # Either route must return the true support.
        assert set(result.locations.tolist()) == set(sig.locations.tolist())
        assert decision.cpu_winner in ("dense", "sparse")

    def test_auto_sfft_sparse_route_correct(self):
        from repro.dispatch import auto_sfft

        # Large-ish n with small k: the sparse route wins on the CPU model.
        sig = make_sparse_signal(1 << 18, 16, seed=72)
        result, decision = auto_sfft(
            sig.time, 16, seed=73, profile="fast", loops=6,
        )
        assert set(result.locations.tolist()) == set(sig.locations.tolist())


class TestDispatchDenseRoute:
    def test_dense_route_taken_and_correct(self):
        # Small n with relatively large k: every model prefers the dense
        # transform, and the dense route must still return exact top-k.
        from repro.dispatch import auto_sfft, recommend_transform

        n, k = 1 << 12, 256
        decision = recommend_transform(n, k, profile="fast")
        assert decision.cpu_winner == "dense"

        sig = make_sparse_signal(n, k, seed=90)
        result, d2 = auto_sfft(sig.time, k, seed=91, profile="fast")
        assert d2.cpu_winner == "dense"
        assert set(result.locations.tolist()) == set(sig.locations.tolist())
        assert (result.votes == 0).all()  # dense route carries no votes

    def test_advantage_properties(self):
        from repro.dispatch import recommend_transform

        d = recommend_transform(1 << 26, 1000, profile="fast", loops=6,
                                bucket_constant=1.0, select_count=1000)
        assert d.gpu_advantage > 1.0
        assert d.cpu_advantage > 1.0
