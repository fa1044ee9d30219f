"""Unit tests for the per-plan execution workspace and the batch engine."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core import (
    PlanWorkspace,
    bin_vectorized,
    estimate_values,
    estimate_values_stack,
    permuted_indices,
    sfft,
    sfft_batch_fused,
)
from repro.core.workspace import GATHER_ELEMENT_CAP
from repro.errors import ParameterError
from repro.signals import make_sparse_signal

from tests.conftest import cached_plan


def _signal_stack(n: int, k: int, S: int, *, seed: int = 500) -> np.ndarray:
    return np.stack([
        make_sparse_signal(n, k, seed=seed + t).time for t in range(S)
    ])


class TestWorkspaceArrays:
    def test_plan_caches_one_workspace(self, plan_small):
        assert plan_small.workspace() is plan_small.workspace()

    def test_gather_rows_are_permuted_indices(self, plan_small):
        ws = plan_small.workspace()
        g = ws.gather
        assert g.shape == (ws.loops, ws.rounds * ws.B)
        for r, perm in enumerate(plan_small.permutations):
            np.testing.assert_array_equal(
                g[r], permuted_indices(perm, ws.rounds * ws.B)
            )

    def test_taps_flat_is_a_view_when_already_padded(self, plan_small):
        ws = plan_small.workspace()
        # Plans pad taps to a multiple of B, so no copy is needed.
        assert ws.taps_flat is plan_small.filt.time
        assert ws.taps_matrix.shape == (ws.rounds, ws.B)
        np.testing.assert_array_equal(
            ws.taps_matrix.ravel(), ws.taps_flat
        )

    def test_gather_cap_disables_materialization(self, plan_small):
        ws = PlanWorkspace(plan_small, gather_cap=0)
        assert ws.gather is None
        assert GATHER_ELEMENT_CAP > 0

    def test_gather_cap_fallback_counted(self, plan_small):
        from repro.obs import global_registry

        before = global_registry().counter(
            "sfft.workspace.gather_cap_fallback"
        ).value
        PlanWorkspace(plan_small, gather_cap=0)
        after = global_registry().counter(
            "sfft.workspace.gather_cap_fallback"
        ).value
        assert after == before + 1
        # The materializing path must not touch the counter.
        PlanWorkspace(plan_small)
        assert global_registry().counter(
            "sfft.workspace.gather_cap_fallback"
        ).value == after


class TestWorkspaceClone:
    def test_clone_shares_immutable_arrays(self, plan_small):
        ws = plan_small.workspace()
        twin = ws.clone()
        assert twin is not ws
        assert twin.gather is ws.gather
        assert twin.taps_flat is ws.taps_flat

    def test_clone_has_private_scratch(self, plan_small, rng):
        ws = plan_small.workspace()
        twin = ws.clone()
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        a = ws.bin_fused(x)
        b = twin.bin_fused(x)
        assert a is not b  # every call owns its output
        np.testing.assert_array_equal(a, b)

    def test_clone_rebinds_fft_backend(self, plan_small, rng):
        twin = plan_small.workspace().clone(fft_backend="numpy",
                                            fft_workers=2)
        assert twin.fft_backend == "numpy"
        assert twin.fft_workers == 2
        buckets = (rng.standard_normal((3, 8))
                   + 1j * rng.standard_normal((3, 8)))
        np.testing.assert_array_equal(
            twin.bucket_fft(buckets), np.fft.fft(buckets, axis=-1)
        )

    def test_clone_preserves_gather_cap_fallback(self, plan_small):
        capped = PlanWorkspace(plan_small, gather_cap=0)
        twin = capped.clone()
        assert twin.gather is None


class TestBinFused:
    def test_matches_bin_vectorized_row_for_row(self, plan_small, rng):
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        ws = plan_small.workspace()
        fused = ws.bin_fused(x)
        for r, perm in enumerate(plan_small.permutations):
            np.testing.assert_array_equal(
                fused[r],
                bin_vectorized(x, plan_small.filt, plan_small.B, perm),
            )

    def test_fallback_path_matches_materialized(self, plan_small, rng):
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        fused = plan_small.workspace().bin_fused(x).copy()
        fallback = PlanWorkspace(plan_small, gather_cap=0).bin_fused(x)
        np.testing.assert_array_equal(fused, fallback)

    def test_fresh_output_per_call(self, plan_small, rng):
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        ws = plan_small.workspace()
        first = ws.bin_fused(x)
        second = ws.bin_fused(x)
        assert first is not second
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, second)
        out = np.empty_like(first)
        assert ws.bin_fused(x, out=out) is out
        assert not hasattr(ws, "raw") and not hasattr(ws, "scores")

    def test_stack_rows_match_single(self, plan_small):
        # 32 small signals: a stack many rows deep, where a 2-D gather
        # would pack several signals into one read.
        X = _signal_stack(1024, 4, 32)
        ws = plan_small.workspace()
        stack = ws.bin_fused_stack(X)
        for s in range(32):
            np.testing.assert_array_equal(stack[s], ws.bin_fused(X[s]))

    def test_stack_estimates_match_single(self, plan_small):
        X = _signal_stack(1024, 4, 32)
        ws = plan_small.workspace()
        B, L = ws.B, ws.loops
        rows = ws.bucket_fft(
            ws.bin_fused_stack(X).reshape(-1, B)
        ).reshape(32, L, B)
        perms = list(plan_small.permutations)
        rng = np.random.default_rng(3)
        hits = [np.sort(rng.choice(1024, size=s % 6, replace=False))
                for s in range(32)]
        stack = estimate_values_stack(hits, rows, perms, plan_small.filt, B)
        for s in range(32):
            np.testing.assert_array_equal(
                stack[s],
                estimate_values(hits[s], rows[s], perms, plan_small.filt, B),
            )

    def test_stack_fallback_matches(self, plan_small):
        X = _signal_stack(1024, 4, 3)
        full = plan_small.workspace().bin_fused_stack(X)
        fallback = PlanWorkspace(plan_small, gather_cap=0).bin_fused_stack(X)
        np.testing.assert_array_equal(full, fallback)

    def test_shape_validation(self, plan_small, rng):
        ws = plan_small.workspace()
        with pytest.raises(ParameterError):
            ws.bin_fused(np.zeros(512, dtype=np.complex128))
        with pytest.raises(ParameterError):
            ws.bin_fused(np.zeros(1024, dtype=np.complex128),
                         out=np.empty((1, 1), dtype=np.complex128))
        with pytest.raises(ParameterError):
            ws.bin_fused_stack(np.zeros((2, 512), dtype=np.complex128))


class TestBatchEngine:
    def test_matches_per_signal_driver_exactly(self):
        plan = cached_plan(4096, 8)
        X = _signal_stack(4096, 8, 4)
        batch = sfft_batch_fused(X, plan)
        for s in range(4):
            single = sfft(X[s], plan=plan)
            np.testing.assert_array_equal(
                batch[s].locations, single.locations
            )
            np.testing.assert_array_equal(batch[s].values, single.values)
            np.testing.assert_array_equal(batch[s].votes, single.votes)

    def test_single_row_stack(self, plan_small, signal_small):
        res = sfft_batch_fused(signal_small.time[None, :], plan_small)
        assert len(res) == 1
        assert set(res[0].locations.tolist()) == set(
            signal_small.locations.tolist()
        )

    def test_strict_raises_per_signal(self, plan_small, rng):
        from repro.errors import RecoveryError

        # Pure noise: voting cannot reach k coefficients consistently.
        X = np.stack([rng.standard_normal(1024) * 1e-12 for _ in range(2)])
        with pytest.raises(RecoveryError):
            sfft_batch_fused(X, plan_small, strict=True)

    def test_rejects_bad_stack_shapes(self, plan_small):
        with pytest.raises(ParameterError):
            sfft_batch_fused(
                np.zeros((2, 2, 2), dtype=np.complex128), plan_small
            )


class TestConcurrentPlanless:
    """Plan-less ``sfft(x, k)`` callers share one cached plan and its
    workspace; threads must get exactly the serial bits."""

    N, K, SIGNALS, THREADS = 1 << 16, 16, 32, 8

    @staticmethod
    def _bits(res):
        return (res.locations.tobytes(), res.values.tobytes(),
                res.votes.tobytes())

    def test_threads_match_serial_bit_for_bit(self):
        X = _signal_stack(self.N, self.K, self.SIGNALS, seed=900)
        serial = [self._bits(sfft(x, self.K, seed=1234)) for x in X]
        results: list[list] = [[] for _ in range(self.THREADS)]

        def worker(t: int) -> None:
            for j in range(self.SIGNALS):
                i = (j + 4 * t) % self.SIGNALS  # threads start staggered
                results[t].append(
                    (i, self._bits(sfft(X[i], self.K, seed=1234)))
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,))
                       for t in range(self.THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        got = [r for rows in results for r in rows]
        assert len(got) == self.THREADS * self.SIGNALS
        mismatched = sum(bits != serial[i] for i, bits in got)
        assert mismatched == 0
