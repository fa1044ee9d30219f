"""Property-based tests for the sFFT pipeline invariants (hypothesis)."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    bucket_fft,
    bin_vectorized,
    componentwise_median,
    permute_dense,
    permuted_indices,
    random_permutation,
    select_threshold,
    select_topk,
    subsample_spectrum,
)
from repro.filters import make_flat_window

pow2_n = st.integers(min_value=6, max_value=10).map(lambda p: 1 << p)


@given(pow2_n, st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40)
def test_permutation_definition1(n, seed):
    """fft(x[(s*i+t) % n])[s*f] == fft(x)[f] * exp(2j*pi*t*f/n) always."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    perm = random_permutation(n, rng)
    yh = np.fft.fft(permute_dense(x, perm))
    xh = np.fft.fft(x)
    f = np.arange(n)
    lhs = yh[(perm.sigma * f) % n]
    rhs = xh * np.exp(2j * np.pi * perm.tau * f / n)
    scale = max(1.0, np.abs(xh).max())
    assert np.abs(lhs - rhs).max() < 1e-8 * scale


@given(pow2_n, st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30)
def test_fold_subsample_identity(n, logb, seed):
    """fft_B(fold_B(y)) == fft_n(y)[:: n/B] for arbitrary y."""
    B = 1 << min(logb + 1, (n.bit_length() - 2))
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    folded = y.reshape(n // B, B).sum(axis=0)
    lhs = np.fft.fft(folded)
    rhs = subsample_spectrum(np.fft.fft(y), B)
    assert np.abs(lhs - rhs).max() < 1e-8 * max(1.0, np.abs(rhs).max())


@given(pow2_n, st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25)
def test_binning_matches_dense_path(n, seed):
    """bin_vectorized equals filter-multiply + fold on the dense signal."""
    rng = np.random.default_rng(seed)
    B = max(4, n // 16)
    filt = make_flat_window(n, B, tolerance=1e-6, pad_to_multiple=B)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    perm = random_permutation(n, rng)
    got = bin_vectorized(x, filt, B, perm)
    y = np.zeros(n, dtype=complex)
    idx = permuted_indices(perm, filt.width)
    y[: filt.width] = x[idx] * filt.time
    want = y.reshape(n // B, B).sum(axis=0)
    assert np.abs(got - want).max() < 1e-9 * max(1.0, np.abs(want).max())


@given(
    st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=2, max_size=200),
    st.data(),
)
@settings(max_examples=60)
def test_topk_is_exact(values, data):
    mags = np.asarray(values)
    m = data.draw(st.integers(min_value=1, max_value=mags.size))
    chosen = select_topk(mags, m)
    assert chosen.size == m
    # No unchosen element strictly exceeds a chosen one.
    unchosen = np.setdiff1d(np.arange(mags.size), chosen)
    if unchosen.size:
        assert mags[unchosen].max() <= mags[chosen].min() + 1e-12


@given(
    st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=200),
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
)
def test_threshold_select_definition(values, threshold):
    mags = np.asarray(values)
    chosen = set(select_threshold(mags, threshold).tolist())
    assert chosen == {i for i, v in enumerate(mags) if v > threshold}


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40)
def test_componentwise_median_bounds(rows, cols, seed):
    rng = np.random.default_rng(seed)
    est = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    med = componentwise_median(est)
    assert med.shape == (rows,)
    assert (med.real >= est.real.min(axis=1) - 1e-12).all()
    assert (med.real <= est.real.max(axis=1) + 1e-12).all()
    assert (med.imag >= est.imag.min(axis=1) - 1e-12).all()
    assert (med.imag <= est.imag.max(axis=1) + 1e-12).all()


@given(
    st.integers(min_value=10, max_value=13).map(lambda p: 1 << p),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=15, deadline=None)
# The draw that used to miss the loose bound (f=8 and f=757 off by ~0.4
# of |truth| under the median estimator of a capped filter); an exactly
# sparse input is now located by phase and solved exactly.
@example(n=1024, k=8, seed=16301455)
def test_sfft_exact_recovery_property(n, k, seed):
    """End-to-end: any well-separated k-sparse signal is recovered exactly.

    Value accuracy holds at the design tolerance whenever the filter fits
    (``k << n / log n``) *and* the median estimator has a strict majority
    of clean loops for the frequency (``median_reliable``).  A capped
    filter (a not-really-sparse problem) or an unlucky permutation draw
    that collides a frequency in most loops degrades only the value — the
    paper's probabilistic estimation guarantee, not a bug — so those
    coefficients get the documented loose bound.  Both predicates are
    deterministic functions of the drawn ``(n, k, seed)``, so this test
    never flakes: e.g. ``(2048, 5, 1290)`` leaves f=280 with 3 clean
    loops of 7 (see the regression test in
    ``tests/unit/test_estimation_reliability.py``) and is checked at the
    loose bound by construction.
    """
    from repro.core import make_plan, median_reliable, sfft
    from repro.signals import make_sparse_signal

    sep = n // (4 * k)
    if sep < 2:
        return
    sig = make_sparse_signal(n, k, seed=seed, min_separation=sep)
    plan = make_plan(n, k, seed=seed ^ 0xABCDEF)
    res = sfft(sig.time, plan=plan)
    assert set(res.locations.tolist()) == set(sig.locations.tolist())
    reliable = dict(zip(
        sig.locations.tolist(),
        median_reliable(sig.locations, plan.permutations, n, plan.B),
    ))
    for f, v in res.as_dict().items():
        truth = sig.values[list(sig.locations).index(f)]
        tol = 1e-4 if (reliable[f] and not plan.filter_capped) else 0.35
        assert abs(v - truth) < tol * abs(truth)
