"""Property-based tests on estimation exactness and plan round-trips."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    bin_vectorized,
    bucket_fft,
    componentwise_median,
    estimate_values,
    load_plan,
    make_plan,
    save_plan,
    sfft,
)
from repro.signals import make_sparse_signal


def _numpy_median(est):
    return np.median(est.real, axis=-1) + 1j * np.median(est.imag, axis=-1)


def _complex(re, im):
    """``re + 1j*im`` without the NaN that ``1j * inf`` puts in the real part."""
    est = np.empty(np.shape(re), dtype=np.complex128)
    est.real, est.imag = re, im
    return est


#: Finite floats of every magnitude plus both infinities, so rows can hold
#: ``+inf`` and ``-inf`` together.
_parts = st.one_of(st.floats(allow_nan=False, width=64),
                   st.sampled_from([np.inf, -np.inf]))


@st.composite
def loop_estimate_arrays(draw):
    """``(F, L)`` complex arrays with ``L`` in 1..12."""
    shape = (draw(st.integers(min_value=1, max_value=6)),
             draw(st.integers(min_value=1, max_value=12)))
    return _complex(draw(arrays(np.float64, shape, elements=_parts)),
                    draw(arrays(np.float64, shape, elements=_parts)))


@given(loop_estimate_arrays())
@settings(max_examples=200, deadline=None)
def test_sort_median_matches_numpy_median(est):
    """The sort median gives ``np.median``'s values for every loop count,
    infinities of both signs included."""
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = componentwise_median(est), _numpy_median(est)
    assert np.array_equal(got, want, equal_nan=True)


def test_sort_median_both_infinities_in_one_row():
    # Even L: -inf and +inf in the middle average to NaN, as in np.median;
    # odd L picks the finite middle element.
    inf = np.inf
    even = np.array([[-inf, inf, 1.0, -1.0], [inf, -inf, inf, -inf]])
    est = _complex(even, even[::-1])
    odd = _complex(np.array([[-inf, inf, 3.0]]), np.array([[inf, -2.0, -inf]]))
    with np.errstate(invalid="ignore"):
        got_even, want_even = componentwise_median(est), _numpy_median(est)
        got_odd, want_odd = componentwise_median(odd), _numpy_median(odd)
    assert np.array_equal(got_even, want_even, equal_nan=True)
    assert np.isnan(got_even).all()
    assert np.array_equal(got_odd, want_odd)
    assert got_odd[0] == 3 - 2j


def test_sort_median_nan_anywhere_makes_the_row_nan():
    """One NaN in any loop, in either component, poisons that row only,
    as in np.median, so overflow rejection still sees it."""
    rng = np.random.default_rng(5)
    for L in range(1, 13):
        for pos in range(L):
            for part in ("real", "imag"):
                est = _complex(rng.standard_normal((3, L)),
                               rng.standard_normal((3, L)))
                getattr(est, part)[1, pos] = np.nan
                got = componentwise_median(est)
                assert np.array_equal(got, _numpy_median(est), equal_nan=True)
                assert np.isnan(got[1]) and np.isfinite(got[[0, 2]]).all()


@given(
    st.integers(min_value=10, max_value=13).map(lambda p: 1 << p),
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0.1, max_value=100.0),
    st.floats(min_value=0.0, max_value=2 * np.pi),
)
@settings(max_examples=20, deadline=None)
def test_single_coefficient_estimated_exactly(n, seed, magnitude, phase):
    """A 1-sparse spectrum is reconstructed to the filter tolerance for any
    location, magnitude, and phase."""
    rng = np.random.default_rng(seed)
    loc = int(rng.integers(0, n))
    val = magnitude * n * np.exp(1j * phase)
    sig = make_sparse_signal(n, 1, locations=np.array([loc]), values=np.array([val]))
    plan = make_plan(n, 1, seed=seed ^ 0x1234)
    rows = np.empty((plan.loops, plan.B), dtype=np.complex128)
    for r, perm in enumerate(plan.permutations):
        rows[r] = bin_vectorized(sig.time, plan.filt, plan.B, perm)
    rows = bucket_fft(rows)
    est = estimate_values(
        np.array([loc]), rows, list(plan.permutations), plan.filt, plan.B
    )
    assert abs(est[0] - val) < 1e-5 * abs(val)


@given(
    st.integers(min_value=10, max_value=12).map(lambda p: 1 << p),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=10, deadline=None)
def test_plan_serialization_roundtrip_property(tmp_path_factory, n, k, seed):
    """save/load never changes a transform's output, for any shape.

    (@given fills the rightmost arguments; the pytest fixture comes first.)
    """
    plan = make_plan(n, k, seed=seed)
    path = tmp_path_factory.mktemp("plans") / "p.npz"
    save_plan(plan, path)
    plan2 = load_plan(path)
    sig = make_sparse_signal(n, k, seed=seed ^ 0xBEEF)
    a = sfft(sig.time, plan=plan)
    b = sfft(sig.time, plan=plan2)
    assert (a.locations == b.locations).all()
    assert np.array_equal(a.values, b.values)


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=15, deadline=None)
def test_linearity_of_recovery(seed):
    """Scaling the input scales the recovered values (transform linearity)."""
    n, k = 1 << 12, 4
    sig = make_sparse_signal(n, k, seed=seed)
    plan = make_plan(n, k, seed=seed ^ 0xF00D)
    a = sfft(sig.time, plan=plan)
    b = sfft(3.5 * sig.time, plan=plan)
    assert (a.locations == b.locations).all()
    assert np.allclose(b.values, 3.5 * a.values, rtol=1e-9)


@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=4095))
@settings(max_examples=15, deadline=None)
def test_shift_theorem(seed, shift):
    """Circularly shifting the input multiplies each coefficient by the
    expected phase (the DFT shift theorem), preserved by sparse recovery."""
    n, k = 1 << 12, 4
    sig = make_sparse_signal(n, k, seed=seed)
    plan = make_plan(n, k, seed=seed ^ 0xCAFE)
    a = sfft(sig.time, plan=plan)
    b = sfft(np.roll(sig.time, shift), plan=plan)
    assert (a.locations == b.locations).all()
    expected = a.values * np.exp(-2j * np.pi * a.locations * shift / n)
    assert np.abs(b.values - expected).max() < 1e-6 * np.abs(a.values).max()


@st.composite
def _exactly_sparse_draw(draw):
    """``(n, k, seed)`` with n = 2^10..2^16 and k up to n/64 (at most 64)."""
    n = 1 << draw(st.integers(min_value=10, max_value=16))
    k = draw(st.integers(min_value=1, max_value=min(64, n // 64)))
    return n, k, draw(st.integers(min_value=0, max_value=2**31))


@given(_exactly_sparse_draw())
@settings(max_examples=25, deadline=None)
def test_exact_phase_decoder_property(draw):
    """Exactly sparse input: ``sfft`` locates it by phase, with the exact
    support and values solved to within 1e-9 relative."""
    from repro.obs import MetricsRegistry, Tracer

    n, k, seed = draw
    sig = make_sparse_signal(n, k, seed=seed)
    plan = make_plan(n, k, seed=seed ^ 0xD00D)
    registry = MetricsRegistry()
    res = sfft(sig.time, plan=plan, tracer=Tracer(), metrics=registry)
    assert registry.counter("sfft.location.phase").value == 1
    assert set(res.locations.tolist()) == set(sig.locations.tolist())
    got = res.as_dict()
    for f, v in zip(sig.locations, sig.values):
        assert abs(got[int(f)] - v) < 1e-9 * abs(v)
