"""Unit tests for the per-plan execution workspace and the batch engine."""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ENV_WISDOM,
    PlanWorkspace,
    bin_vectorized,
    derive_parameters,
    estimate_values,
    estimate_values_stack,
    global_plan_cache,
    permuted_indices,
    resolve_sfft_config,
    sfft,
    sfft_batch,
)
from repro.core.batch import run_stack_pipeline
from repro.core.workspace import GATHER_ELEMENT_CAP
from repro.errors import ParameterError
from repro.signals import make_sparse_signal
from repro.tune import (
    WISDOM_SCHEMA,
    WisdomStore,
    class_key,
    config_fingerprint,
)

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

    @pytest.mark.parametrize("cap", [None, 0])
    def test_first_and_shifted_rows(self, plan_small, rng, cap):
        from repro.core.permutation import Permutation

        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        ws = PlanWorkspace(plan_small, gather_cap=cap)
        full = ws.bin_fused(x)
        n, B = plan_small.n, plan_small.B
        for r, perm in enumerate(plan_small.permutations):
            # Later loops alone: the same rows, bit for bit.
            np.testing.assert_array_equal(ws.bin_fused(x, first=r), full[r:])
            samples = ws.window(x, r)
            shifted = ws.fold_shifted(x, r, samples)
            assert shifted.shape == (B,)
            # The shifted row bins the loop's permutation one step on.
            step = Permutation(n=n, sigma=perm.sigma,
                               sigma_inv=perm.sigma_inv,
                               tau=(perm.tau + perm.sigma) % n)
            np.testing.assert_allclose(
                shifted, bin_vectorized(x, plan_small.filt, B, step),
                rtol=0, atol=1e-12 * np.abs(shifted).max(),
            )
        with pytest.raises(ParameterError):
            ws.bin_fused(x, first=plan_small.loops)

    @pytest.mark.parametrize("cap", [None, 0])
    def test_single_loop_fold_matches_full_rows(self, plan_small, rng, cap):
        # The phase route's one-loop plain fold is, bit for bit, the
        # matching row of a full fold, with or without the gather matrix.
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        ws = PlanWorkspace(plan_small, gather_cap=cap)
        full = plan_small.workspace().bin_fused(x)
        out = np.empty(plan_small.B, dtype=np.complex128)
        for r in range(plan_small.loops):
            samples = ws.window(x, r)
            assert samples.shape == (plan_small.rounds * plan_small.B,)
            assert ws.fold(samples).tobytes() == full[r].tobytes()
            assert ws.fold(samples, out=out) is out
            assert out.tobytes() == full[r].tobytes()

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
        # 32 small signals: the engine folds loop 0 alone and the voting
        # loops from first=1 on; together they are the rows of one full
        # fold.
        X = _signal_stack(1024, 4, 32)
        ws = plan_small.workspace()
        for x in X:
            rows = np.concatenate([
                ws.fold(ws.window(x, 0))[None],
                ws.bin_fused(x, first=1),
            ])
            np.testing.assert_array_equal(rows, ws.bin_fused(x))

    def test_stack_estimates_match_single(self, plan_small):
        X = _signal_stack(1024, 4, 32)
        ws = plan_small.workspace()
        B, L = ws.B, ws.loops
        rows = ws.bucket_fft(
            np.stack([ws.bin_fused(x) for x in X]).reshape(-1, B)
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
        # The engine on regenerated gather rows (shifted pairs included)
        # returns the materialized gather's bits.
        X = _signal_stack(1024, 4, 3)
        full = run_stack_pipeline(X, plan_small)
        fallback = run_stack_pipeline(
            X, plan_small, workspace=PlanWorkspace(plan_small, gather_cap=0)
        )
        for a, b in zip(full, fallback):
            np.testing.assert_array_equal(a.locations, b.locations)
            np.testing.assert_array_equal(a.values, b.values)

    def test_shape_validation(self, plan_small, rng):
        ws = plan_small.workspace()
        with pytest.raises(ParameterError):
            ws.bin_fused(np.zeros(512, dtype=np.complex128))
        with pytest.raises(ParameterError):
            ws.bin_fused(np.zeros(1024, dtype=np.complex128),
                         out=np.empty((1, 1), dtype=np.complex128))
        with pytest.raises(ParameterError):
            ws.bin_fused(np.zeros(1024, dtype=np.complex128), first=1,
                         out=np.empty((ws.loops, ws.B), dtype=complex))


class TestBatchEngine:
    def test_matches_per_signal_driver_exactly(self):
        plan = cached_plan(4096, 8)
        X = _signal_stack(4096, 8, 4)
        batch = sfft_batch(X, plan=plan)
        for s in range(4):
            single = sfft(X[s], plan=plan)
            np.testing.assert_array_equal(
                batch[s].locations, single.locations
            )
            np.testing.assert_array_equal(batch[s].values, single.values)
            np.testing.assert_array_equal(batch[s].votes, single.votes)

    def test_single_row_stack(self, plan_small, signal_small):
        res = sfft_batch(signal_small.time[None, :], plan=plan_small)
        assert len(res) == 1
        assert set(res[0].locations.tolist()) == set(
            signal_small.locations.tolist()
        )

    def test_strict_raises_per_signal(self, rng):
        from repro.errors import RecoveryError

        # Pure noise: voting cannot reach k coefficients consistently.  At
        # n = 2^14 a noise frequency wins the vote with probability ~1e-6
        # (2k of B = 256 buckets selected, 5 of 8 loops).
        n = 1 << 14
        X = np.stack([rng.standard_normal(n) * 1e-12 for _ in range(2)])
        with pytest.raises(RecoveryError):
            sfft_batch(X, plan=cached_plan(n, 4), strict=True)

    def test_rejects_bad_stack_shapes(self, plan_small):
        with pytest.raises(ParameterError):
            sfft_batch(
                np.zeros((2, 2, 2), dtype=np.complex128), plan=plan_small
            )


races = st.fixed_dictionaries({
    "n_log2": st.integers(min_value=10, max_value=15),
    "k": st.integers(min_value=1, max_value=16),
    "threads": st.integers(min_value=2, max_value=8),
    "calls": st.integers(min_value=1, max_value=32),
    "seed": st.integers(min_value=0, max_value=2**20),
})


class TestConcurrentPlanless:
    """Plan-less ``sfft(x, k)`` callers share one cached plan and its
    workspace; threads must get exactly the serial bits, also while they
    race to build that plan."""

    @staticmethod
    def _bits(res):
        return (res.locations.tobytes(), res.values.tobytes(),
                res.votes.tobytes())

    def _race(self, case) -> None:
        n, k = 1 << case["n_log2"], case["k"]
        threads, calls = case["threads"], case["calls"]
        X = _signal_stack(n, k, calls, seed=case["seed"])
        serial = [self._bits(sfft(x, k, seed=1234)) for x in X]
        results: list[list] = [[] for _ in range(threads)]

        def worker(t: int) -> None:
            for j in range(calls):
                i = (j + t * calls // threads) % calls  # staggered starts
                results[t].append((i, self._bits(sfft(X[i], k, seed=1234))))

        global_plan_cache().clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker, args=(t,))
                    for t in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in pool)
        got = [r for rows in results for r in rows]
        assert len(got) == threads * calls
        mismatched = sum(bits != serial[i] for i, bits in got)
        assert mismatched == 0

    @given(races)
    @settings(max_examples=8, deadline=None)
    def test_threads_match_serial_bit_for_bit(self, case):
        self._race(case)

    @given(races)
    @settings(max_examples=8, deadline=None)
    def test_threads_match_serial_under_wisdom(self, tmp_path_factory,
                                               case):
        n, k = 1 << case["n_log2"], case["k"]
        resolved = derive_parameters(n, k, loops=6)
        resolved = {"B": int(resolved.B), "loops": int(resolved.loops)}
        store = WisdomStore(str(tmp_path_factory.mktemp("wisdom") / "W"))
        store.append({
            "schema": WISDOM_SCHEMA,
            "class": class_key(n, k),
            "config": {"loops": 6},
            "resolved": resolved,
            "fingerprint": config_fingerprint(n, k, dict(resolved)),
        })
        previous = os.environ.get(ENV_WISDOM)
        os.environ[ENV_WISDOM] = store.path
        try:
            assert resolve_sfft_config(n, k).source == "wisdom"
            self._race(case)
        finally:
            if previous is None:
                del os.environ[ENV_WISDOM]
            else:
                os.environ[ENV_WISDOM] = previous
