"""Edge cases of the symbolic index machinery.

The happy paths (identity store schedule, universal binner theorem, the
data-dependent refusal) live with the race-battery tests; this file pins
the boundary behavior the provers' soundness rests on:

* the injectivity bound ``T <= n // gcd(a, n)`` is *tight* — one more
  thread always produces a concrete collision, for coprime and
  non-coprime scales alike;
* :func:`fit_affine` returns ``None`` (never a wrong theorem) on every
  degenerate trace shape — empty, conflicting duplicates, schedules that
  fit on two points but fail verification.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.staticcheck.symbolic import (
    AffineIndex,
    binner_load_index,
    fit_affine,
    prove_injective,
)
from repro.errors import ParameterError


class TestGcdBoundTightness:
    """``T <= n // gcd(a, n)`` is exact, not merely sufficient."""

    @pytest.mark.parametrize("scale,modulus", [
        (1, 7), (3, 7),          # coprime: bound is the full modulus
        (2, 8), (6, 8), (4, 12),  # non-coprime: bound shrinks by the gcd
        (10, 15), (9, 12),
    ])
    def test_bound_is_tight(self, scale, modulus):
        limit = modulus // math.gcd(scale % modulus, modulus)
        assert prove_injective(
            AffineIndex(scale, 3, modulus), limit
        ).collision_free
        refuted = prove_injective(AffineIndex(scale, 3, modulus), limit + 1)
        assert not refuted.collision_free
        assert not refuted.universal

    @pytest.mark.parametrize("scale,modulus", [
        (2, 8), (6, 8), (10, 15), (9, 12), (5, 30),
    ])
    def test_bound_matches_brute_force(self, scale, modulus):
        """The symbolic verdict agrees with exhaustive evaluation."""
        limit = modulus // math.gcd(scale % modulus, modulus)
        idx = AffineIndex(scale, 1, modulus)
        within = idx.evaluate(np.arange(limit))
        assert np.unique(within).size == limit  # injective up to the bound
        beyond = idx.evaluate(np.arange(limit + 1))
        assert np.unique(beyond).size < limit + 1  # and not past it

    def test_refutation_names_a_real_collider(self):
        """The counterexample in the reason is a genuine collision."""
        idx = AffineIndex(6, 0, 8)  # gcd 2, limit 4
        proof = prove_injective(idx, 8)
        assert not proof.collision_free
        # tid 0 and tid `limit` collide; check the pair concretely.
        limit = 8 // math.gcd(6, 8)
        pair = idx.evaluate(np.array([0, limit]))
        assert pair[0] == pair[1]

    def test_scale_larger_than_modulus_reduces(self):
        """``a`` enters the gcd mod ``n`` — 10 mod 8 behaves like 2."""
        big = prove_injective(AffineIndex(10, 0, 8), 4)
        small = prove_injective(AffineIndex(2, 0, 8), 4)
        assert big.collision_free and small.collision_free
        assert not prove_injective(AffineIndex(10, 0, 8), 5).collision_free

    def test_negative_offset_is_harmless(self):
        """Offsets translate the image; injectivity ignores them."""
        assert prove_injective(AffineIndex(3, -5, 16), 16).collision_free

    def test_load_index_round_offset_keeps_scale(self):
        """Per-round gathers share sigma, so one proof covers all rounds."""
        for j in range(4):
            idx = binner_load_index(B=8, j=j, sigma=5, tau=3, n=32)
            assert idx.scale == 5 and idx.modulus == 32
            assert prove_injective(idx, 8).collision_free


class TestFitAffineDegenerateTraces:
    """Every malformed trace yields ``None`` — never a wrong fit."""

    def test_empty_trace(self):
        assert fit_affine(np.array([]), np.array([]), 8) is None

    def test_single_thread_fits_a_constant(self):
        fitted = fit_affine(np.array([3]), np.array([5]), 8)
        assert fitted == AffineIndex(0, 5, 8)

    def test_duplicate_tid_conflicting_targets(self):
        """One thread storing to two elements has no affine schedule."""
        tids = np.array([0, 1, 1, 2])
        indices = np.array([0, 1, 5, 2])
        assert fit_affine(tids, indices, 8) is None

    def test_duplicate_tid_consistent_targets_dedups(self):
        """Re-stores to the same element (loop re-runs) still fit."""
        tids = np.array([0, 1, 1, 2, 2, 2])
        indices = np.array([1, 3, 3, 5, 5, 5])
        assert fit_affine(tids, indices, 8) == AffineIndex(2, 1, 8)

    def test_two_point_fit_rejected_by_third_point(self):
        """Verification runs over the whole trace, not the fitting pair."""
        tids = np.arange(3)
        indices = np.array([0, 1, 3])  # affine on the first two only
        assert fit_affine(tids, indices, 8) is None

    def test_unsorted_trace_is_sorted_before_fitting(self):
        idx = AffineIndex(3, 2, 16)
        tids = np.array([4, 0, 2, 1, 3])
        assert fit_affine(tids, idx.evaluate(tids), 16) == idx

    def test_noncontiguous_tids_with_unsolvable_stride(self):
        """``a*dt ≡ di (mod n)`` can have no solution; the fitter refuses.

        With ``dt = 2`` and even modulus, an odd ``di`` is unreachable.
        """
        tids = np.array([0, 2, 4])
        indices = np.array([0, 1, 2])  # di = 1, dt = 2, modulus 8
        assert fit_affine(tids, indices, 8) is None

    def test_noncontiguous_tids_solvable_stride(self):
        idx = AffineIndex(5, 1, 16)
        tids = np.array([0, 2, 4, 6])
        assert fit_affine(tids, idx.evaluate(tids), 16) == idx

    def test_indices_reduced_mod_modulus(self):
        """Traced addresses past the modulus wrap before fitting."""
        fitted = fit_affine(np.arange(4), np.arange(4) + 8, 8)
        assert fitted == AffineIndex(1, 0, 8)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ParameterError):
            fit_affine(np.arange(4), np.arange(5), 8)
        with pytest.raises(ParameterError):
            fit_affine(np.arange(4).reshape(2, 2),
                       np.arange(4).reshape(2, 2), 8)

    def test_modulus_validation(self):
        with pytest.raises(ParameterError):
            AffineIndex(1, 0, 0)

