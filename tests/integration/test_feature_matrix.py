"""Feature-matrix test: exact recovery must hold across the cross product of
user-facing options — windows, profiles, cutoffs,
Comb screening, and loop splits.  A release-blocking grid."""

import itertools

import numpy as np
import pytest

from repro.core import make_plan, sfft
from repro.signals import make_sparse_signal

N, K = 1 << 13, 8

WINDOWS = ("dolph-chebyshev", "gaussian")
PROFILES = ("accurate", "fast")
CUTOFFS = ("topk", "threshold")


@pytest.fixture(scope="module")
def signal():
    return make_sparse_signal(N, K, seed=7, min_separation=N // (8 * K))


@pytest.mark.parametrize(
    "window,profile,cutoff",
    list(itertools.product(WINDOWS, PROFILES, CUTOFFS)),
)
def test_recovery_across_option_grid(signal, window, profile, cutoff):
    plan = make_plan(N, K, seed=11, window=window, profile=profile)
    res = sfft(signal.time, plan=plan, cutoff_method=cutoff)
    assert set(res.locations.tolist()) == set(signal.locations.tolist())
    for f, v in res.as_dict().items():
        truth = signal.values[list(signal.locations).index(f)]
        tol = 1e-4 if profile == "fast" else 1e-6
        assert abs(v - truth) < tol * abs(truth)


@pytest.mark.parametrize("comb_width", [None, 256, 1024])
@pytest.mark.parametrize("loc_loops", [None, 3])
def test_recovery_with_screening_and_splits(signal, comb_width, loc_loops):
    plan = make_plan(N, K, seed=13, loops=6, loc_loops=loc_loops)
    res = sfft(signal.time, plan=plan, comb_width=comb_width, seed=14)
    assert set(res.locations.tolist()) == set(signal.locations.tolist())


@pytest.mark.parametrize("seed", range(8))
def test_recovery_across_plan_seeds(signal, seed):
    """The permutation schedule is random; recovery must not depend on it."""
    plan = make_plan(N, K, seed=1000 + seed)
    res = sfft(signal.time, plan=plan)
    assert set(res.locations.tolist()) == set(signal.locations.tolist())


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64, np.float64])
def test_input_dtypes_accepted(dtype):
    sig = make_sparse_signal(1 << 12, 4, seed=3)
    x = sig.time.astype(dtype) if dtype != np.float64 else sig.time.real
    res = sfft(np.ascontiguousarray(x), 8 if dtype == np.float64 else 4, seed=4)
    assert res.k_found >= 1
