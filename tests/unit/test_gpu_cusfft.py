"""Unit tests for the GPU cusFFT: kernels, configurations, driver."""

import numpy as np
import pytest

from repro.core import make_plan, sfft
from repro.cusim import KEPLER_K20X, OpKind, measure_transactions
from repro.errors import ParameterError
from repro.gpu import (
    ATOMIC_HISTOGRAM,
    BASELINE,
    OPTIMIZED,
    CusFFT,
    CusfftConfig,
    cusfft,
)
from repro.gpu.kernels import (
    atomic_spec,
    bin_atomic_functional,
    bin_layout_functional,
    bin_partition_functional,
    exec_chunk_functional,
    fast_select_functional,
    gather_addresses,
    partition_spec,
    remap_chunk_functional,
    sort_select_functional,
)
from repro.signals import add_awgn, make_sparse_signal
from tests.conftest import cached_plan

DEV = KEPLER_K20X


class TestConfig:
    def test_builtin_variants(self):
        assert BASELINE.loop_partition and not BASELINE.layout_transform
        assert OPTIMIZED.layout_transform and OPTIMIZED.fast_select
        assert not ATOMIC_HISTOGRAM.loop_partition

    def test_labels(self):
        assert BASELINE.label() == "cusFFT-base"
        assert OPTIMIZED.label() == "cusFFT-opt"
        assert "atomic" in ATOMIC_HISTOGRAM.label()

    def test_with_changes(self):
        cfg = BASELINE.with_(fast_select=True)
        assert cfg.fast_select and not cfg.layout_transform

    def test_layout_requires_partition(self):
        with pytest.raises(ParameterError):
            CusfftConfig(loop_partition=False, layout_transform=True)

    def test_bad_streams(self):
        with pytest.raises(ParameterError):
            CusfftConfig(num_streams=0)


class TestKernelFunctionalEquivalence:
    def test_all_binners_match_reference(self, plan_small, signal_small):
        perm = plan_small.permutations[0]
        args = (signal_small.time, plan_small.filt, plan_small.B, perm)
        ref = bin_partition_functional(*args)
        for fn in (bin_atomic_functional, bin_layout_functional):
            got = fn(*args)
            assert np.abs(got - ref).max() < 1e-10 * max(1.0, np.abs(ref).max())

    def test_remap_then_exec_equals_fused(self, plan_small, signal_small):
        perm = plan_small.permutations[1]
        B = plan_small.B
        rounds = plan_small.rounds
        buckets = np.zeros(B, dtype=np.complex128)
        for chunk in range(rounds):
            remapped = remap_chunk_functional(signal_small.time, perm, chunk, B)
            exec_chunk_functional(remapped, plan_small.filt, chunk, B, buckets)
        fused = bin_partition_functional(
            signal_small.time, plan_small.filt, B, perm
        )
        assert np.abs(buckets - fused).max() < 1e-10 * max(1.0, np.abs(fused).max())

    def test_select_variants_agree_on_clear_signal(self, rng):
        mags = np.abs(rng.standard_normal(256)) * 0.01
        hot = rng.choice(256, 8, replace=False)
        mags[hot] = 5.0
        a, _ = sort_select_functional(mags, 8)
        b, _ = fast_select_functional(mags, 8)
        assert set(hot.tolist()) <= set(b.tolist())
        assert set(a.tolist()) == set(hot.tolist())

    def test_gather_addresses_uncoalesced(self, plan_small):
        # The permuted gather touches ~1 segment per element (the paper's
        # motivating observation) while a linear read coalesces 8x better.
        perm = plan_small.permutations[0]
        scattered = measure_transactions(gather_addresses(perm, 512), DEV)
        linear = measure_transactions(np.arange(512) * 16, DEV)
        assert scattered > 4 * linear


class TestKernelSpecs:
    def test_partition_has_no_atomics(self):
        spec = partition_spec(B=4096, rounds=8)
        assert spec.atomics is None
        assert spec.total_threads >= 4096

    def test_atomic_histogram_pays_for_conflicts(self):
        # At paper-scale bucket counts the atomic-update traffic clearly
        # exceeds the collision-free formulation's cost (Section IV-C).
        from repro.cusim import estimate_kernel

        B, rounds = 1 << 16, 10
        part = estimate_kernel(partition_spec(B=B, rounds=rounds), DEV)
        atom = estimate_kernel(atomic_spec(B=B, width=B * rounds), DEV)
        assert atom.atomic_s > 0
        assert atom.total_s > 1.5 * part.total_s

    def test_remap_plus_exec_specs_cover_fused_traffic(self):
        from repro.cusim import estimate_kernel
        from repro.gpu.kernels import exec_spec, remap_spec

        B = 4096
        remap = estimate_kernel(remap_spec(B=B), DEV)
        ex = estimate_kernel(exec_spec(B=B), DEV)
        assert remap.coalescing_efficiency < 0.3   # gather-dominated
        assert ex.coalescing_efficiency == 1.0     # the optimization's point


class TestCusfftDriver:
    @pytest.mark.parametrize("config", [BASELINE, OPTIMIZED, ATOMIC_HISTOGRAM])
    def test_recovers_exactly_all_variants(self, config):
        sig = make_sparse_signal(1 << 12, 8, seed=11)
        run = cusfft(sig.time, 8, config=config, seed=12)
        assert set(run.result.locations.tolist()) == set(sig.locations.tolist())

    def test_matches_cpu_reference_values(self):
        # Noisy input keeps the CPU reference on the voting path the GPU
        # build models (exactly sparse input is located by phase).
        n, k = 1 << 13, 10
        sig = make_sparse_signal(n, k, seed=13)
        x, _ = add_awgn(sig.time, 40.0, seed=113)
        transform = CusFFT.create(n, k, config=BASELINE)
        run = transform.execute(x, seed=14)
        ref = sfft(x, k, plan=transform.plan())
        assert (run.result.locations == ref.locations).all()
        assert np.abs(run.result.values - ref.values).max() < 1e-9 * np.abs(
            ref.values
        ).max()

    def test_timeline_kernels_present(self):
        sig = make_sparse_signal(1 << 12, 4, seed=15)
        run = cusfft(sig.time, 4, config=OPTIMIZED, seed=16)
        names = {r.name for r in run.report.records}
        assert "cusfft_layout_remap" in names
        assert "cusfft_layout_exec" in names
        assert "cusfft_fast_select" in names
        assert "cusfft_loc_recovery" in names
        assert "cusfft_mag_reconstruction" in names
        assert any(n.startswith("cufft_stockham") for n in names)

    def test_baseline_timeline_uses_sort(self):
        sig = make_sparse_signal(1 << 12, 4, seed=17)
        run = cusfft(sig.time, 4, config=BASELINE, seed=18)
        names = {r.name for r in run.report.records}
        assert "thrust_radix_scatter" in names
        assert "cusfft_fast_select" not in names

    def test_d2h_transfer_recorded(self):
        sig = make_sparse_signal(1 << 12, 4, seed=19)
        run = cusfft(sig.time, 4, seed=20)
        assert len(run.report.by_kind(OpKind.D2H)) == 1

    def test_h2d_modes(self):
        # Transfer scope ordering: nothing < filter taps <= sampled signal
        # (capped at the full signal) <= whole signal.
        t_none = CusFFT.create(1 << 18, 100, h2d="none").estimated_time()
        t_filt = CusFFT.create(1 << 18, 100, h2d="filter").estimated_time()
        t_samp = CusFFT.create(1 << 18, 100, h2d="sampled").estimated_time()
        t_full = CusFFT.create(1 << 18, 100, h2d="full").estimated_time()
        assert t_none < t_filt <= t_samp <= t_full

    def test_sampled_h2d_sublinear_at_scale(self):
        # At paper scale the sampled transfer is far below the full signal.
        kw = dict(profile="fast", loops=6, bucket_constant=1.0, select_count=1000)
        t_samp = CusFFT.create(1 << 26, 1000, h2d="sampled", **kw).estimated_time()
        t_full = CusFFT.create(1 << 26, 1000, h2d="full", **kw).estimated_time()
        assert t_samp < 0.5 * t_full

    def test_bad_h2d_mode(self):
        with pytest.raises(ParameterError):
            CusFFT.create(1 << 12, 4, h2d="both")

    def test_modeled_report_without_data(self):
        rep = CusFFT.create(1 << 22, 1000, profile="fast").modeled_report()
        assert rep.makespan_s > 0
        assert len(rep.records) > 10


class TestPaperShapes:
    """The headline performance shapes of Figure 5, asserted as properties."""

    CFG = dict(profile="fast", loops=6, bucket_constant=1.0)

    def _opt(self, n, k=1000):
        return CusFFT.create(
            n, k, config=OPTIMIZED, select_count=k, **self.CFG
        ).estimated_time()

    def _base(self, n, k=1000):
        return CusFFT.create(
            n, k, config=BASELINE, select_count=k, **self.CFG
        ).estimated_time()

    def test_sublinear_scaling(self):
        # 512x the data; far less than 512x the time.
        assert self._opt(1 << 27) / self._opt(1 << 18) < 40

    def test_beats_cufft_at_large_n_loses_at_small_n(self):
        from repro.cufft import CufftPlan

        small = CufftPlan(1 << 18).estimated_time(DEV)
        large = CufftPlan(1 << 27).estimated_time(DEV)
        assert self._opt(1 << 18) > small          # cuFFT wins small
        assert self._opt(1 << 27) * 8 < large      # cusFFT wins big (>8x)

    def test_optimized_beats_baseline_everywhere(self):
        for logn in (18, 22, 27):
            assert self._opt(1 << logn) < self._base(1 << logn)

    def test_speedup_over_cufft_grows_with_n(self):
        from repro.cufft import CufftPlan

        s22 = CufftPlan(1 << 22).estimated_time(DEV) / self._opt(1 << 22)
        s27 = CufftPlan(1 << 27).estimated_time(DEV) / self._opt(1 << 27)
        assert s27 > 2 * s22

    def test_runtime_grows_slowly_with_k(self):
        # Figure 5(b): k 100 -> 1000 increases time by far less than 10x.
        t100 = CusFFT.create(
            1 << 24, 100, config=OPTIMIZED, select_count=100, **self.CFG
        ).estimated_time()
        t1000 = self._opt(1 << 24, 1000)
        assert t1000 < 4 * t100
