"""End-to-end scenario tests: realistic multi-feature pipelines exercising
the public API the way a downstream user would."""

import numpy as np
import pytest

from repro import isfft, make_plan, make_sparse_signal, rsfft, sfft, sfft_batch
from repro.analysis import score_result
from repro.core import load_plan, save_plan
from repro.cpu import PsFFT
from repro.cusim import GPU_DEVICES
from repro.gpu import BASELINE, OPTIMIZED, CusFFT
from repro.signals import add_awgn, make_harmonic_tones, make_wideband_channels


class TestCrossImplementationAgreement:
    """The CPU reference, PsFFT, and every GPU build must produce the same
    coefficients for the same plan — the reproduction's core guarantee."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_cpu_gpu_agree_across_seeds(self, seed):
        n, k = 1 << 13, 12
        sig = make_sparse_signal(n, k, seed=seed)
        transform = CusFFT.create(n, k, config=OPTIMIZED)
        run = transform.execute(sig.time, seed=seed + 100)
        ref = sfft(sig.time, plan=transform.plan())
        assert (run.result.locations == ref.locations).all()
        assert np.abs(run.result.values - ref.values).max() <= 1e-9 * max(
            1.0, np.abs(ref.values).max()
        )

    def test_psfft_equals_core(self):
        n, k = 1 << 13, 12
        sig = make_sparse_signal(n, k, seed=9)
        ps = PsFFT.create(n, k)
        res = ps.execute(sig.time, seed=10)
        ref = sfft(sig.time, plan=ps.plan())
        assert (res.locations == ref.locations).all()

    def test_all_devices_functional_identical(self):
        # The device model changes timing, never answers.
        n, k = 1 << 12, 8
        sig = make_sparse_signal(n, k, seed=11)
        results = []
        for dev in GPU_DEVICES:
            t = CusFFT.create(n, k, device=dev)
            t._plan = None
            results.append(t.execute(sig.time, seed=12).result)
        first = results[0]
        for other in results[1:]:
            assert (first.locations == other.locations).all()


class TestNoisyOfdmScenario:
    """Spectrum sensing under noise with the optimized feature set:
    threshold cutoff + Comb screen + fast profile."""

    def test_detection_pipeline(self):
        scene = make_wideband_channels(
            1 << 16, 32, 0.25, tones_per_channel=3, snr=30.0, seed=21
        )
        k = scene.signal.k
        res = sfft(
            scene.signal.time,
            k,
            seed=22,
            cutoff_method="threshold",
            comb_width=1 << 10,
            profile="fast",
        )
        rep = score_result(res, scene.signal.locations, scene.signal.values)
        assert rep.recall >= 0.95

    def test_harmonic_note_with_noise(self):
        sig = make_harmonic_tones(1 << 15, 64, 10, snr=25.0, seed=23)
        res = sfft(sig.time, 10, seed=24)
        found = set(res.locations.tolist())
        # The strongest 8 harmonics must all be found (the tail two may
        # fall near the noise floor after geometric decay).
        for h in sig.locations[:8]:
            assert int(h) in found


class TestPlanLifecycles:
    def test_save_load_then_batch(self, tmp_path):
        n, k = 1 << 12, 6
        plan = make_plan(n, k, seed=31)
        path = tmp_path / "plan.npz"
        save_plan(plan, path)
        reloaded = load_plan(path)
        sigs = [make_sparse_signal(n, k, seed=s) for s in (41, 42, 43)]
        outs = sfft_batch([s.time for s in sigs], plan=reloaded)
        for sig, out in zip(sigs, outs):
            assert set(out.locations.tolist()) == set(sig.locations.tolist())

    def test_reseeded_plan_same_answers_different_schedule(self):
        n, k = 1 << 12, 6
        plan = make_plan(n, k, seed=34)
        fresh = plan.reseeded(seed=35)
        sig = make_sparse_signal(n, k, seed=36)
        a = sfft(sig.time, plan=plan)
        b = sfft(sig.time, plan=fresh)
        assert set(a.locations.tolist()) == set(b.locations.tolist())
        assert [p.sigma for p in plan.permutations] != [
            p.sigma for p in fresh.permutations
        ]


class TestRoundTrips:
    def test_forward_inverse_consistency(self):
        # isfft(fft-domain view) recovers what sfft sees, scaled by 1/n.
        n, k = 1 << 12, 5
        sig = make_sparse_signal(n, k, seed=51)
        fwd = sfft(sig.time, k, seed=52)
        # Inverse transform of the spectrum must return the time samples'
        # sparse representation... here: ifft(dense spectrum) == time.
        back = np.fft.ifft(fwd.to_dense())
        assert np.abs(back - sig.time).max() < 1e-6 * np.abs(sig.time).max()

    def test_rsfft_then_synthesis(self):
        n = 1 << 12
        t = np.arange(n)
        x = np.cos(2 * np.pi * 100 * t / n) + 0.25 * np.sin(
            2 * np.pi * 431 * t / n
        )
        res = rsfft(x, 4, seed=53)
        resynth = np.fft.ifft(res.to_dense()).real
        assert np.abs(resynth - x).max() < 1e-6

    def test_noise_then_denoise(self):
        # Sparse transform as a denoiser: recover support from noisy data,
        # re-synthesize, compare to the clean signal.
        n, k = 1 << 14, 10
        sig = make_sparse_signal(n, k, seed=54)
        noisy, _ = add_awgn(sig.time, 15.0, seed=55)
        res = sfft(noisy, k, seed=56)
        denoised = np.fft.ifft(res.to_dense())
        err_noisy = np.abs(noisy - sig.time).std()
        err_denoised = np.abs(denoised - sig.time).std()
        assert err_denoised < 0.25 * err_noisy
