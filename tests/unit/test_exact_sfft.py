"""Exactly sparse input through ``sfft``: phase-first location.

The engine locates an exactly sparse spectrum by phase decoding on a
one-sample-shifted fold (sFFT-3.0 style, :mod:`repro.core.phase`) and
falls back to voting for everything else.  These cases drive ``sfft``
and read the route off the ``sfft.location.*`` counters.
"""

import numpy as np
import pytest

from repro.core import make_plan, sfft
from repro.errors import ParameterError
from repro.obs import MetricsRegistry, Tracer
from repro.signals import make_sparse_signal


def _run(x, k=None, **kwargs):
    """A traced ``sfft`` with a private registry; ``(result, route)``."""
    registry = MetricsRegistry()
    res = sfft(x, k, tracer=Tracer(), metrics=registry, **kwargs)
    phase = registry.counter("sfft.location.phase").value
    vote = registry.counter("sfft.location.vote").value
    assert phase + vote == 1
    return res, "phase" if phase else "vote"


def _worst_relative_error(res, sig):
    truth = res.as_dict()
    return max(abs(truth[int(f)] - v) / abs(v)
               for f, v in zip(sig.locations, sig.values))


class TestExactRecovery:
    @pytest.mark.parametrize(
        "n,k,seed",
        [(1 << 12, 1, 0), (1 << 12, 4, 1), (1 << 14, 20, 2), (1 << 16, 100, 3)],
    )
    def test_support_and_values_exact(self, n, k, seed):
        sig = make_sparse_signal(n, k, seed=seed)
        res, route = _run(sig.time, k, seed=seed + 100)
        assert route == "phase"
        assert set(res.locations.tolist()) == set(sig.locations.tolist())
        assert _worst_relative_error(res, sig) < 1e-9

    def test_values_at_filter_tolerance(self):
        # The solve removes every found coefficient's exact filter
        # response, so values carry rounding error, far below the
        # filter's 1e-8 design tolerance.
        sig = make_sparse_signal(1 << 16, 50, seed=9)
        res, _ = _run(sig.time, 50, seed=10)
        assert _worst_relative_error(res, sig) < 1e-12

    def test_uses_fewer_samples_than_windowed_at_scale(self):
        n, k = 1 << 18, 100
        sig = make_sparse_signal(n, k, seed=11)
        plan = make_plan(n, k, seed=13)
        tracer = Tracer()
        sfft(sig.time, plan=plan, tracer=tracer)
        folds = [sp for sp in tracer.spans if sp.name == "perm_filter"]
        # At most w + 1 samples per fold span (loop 0's plain and shifted
        # folds are two spans over one gather).
        assert all(sp.attrs["loops"] == 1 for sp in folds)
        assert len(folds) * (plan.filt.width + 1) \
            < plan.filt.width * plan.loops

    def test_peeling_resolves_collisions(self):
        # Congruent-mod-B frequencies would never separate under plain
        # aliasing; the windowed hash must still resolve them.
        n = 1 << 14
        locs = np.array([100, 100 + 1024, 100 + 2048, 100 + 4096])
        vals = n * np.exp(1j * np.linspace(0, 3, 4))
        sig = make_sparse_signal(n, 4, locations=locs, values=vals)
        res, route = _run(sig.time, 4, seed=14)
        assert route == "phase"
        assert set(res.locations.tolist()) == set(locs.tolist())

    def test_stats_accounting(self):
        # Each signal is counted once, under the route that located it;
        # votes count the loops that confirmed a phase-located frequency.
        sig = make_sparse_signal(1 << 12, 8, seed=15)
        plan = make_plan(1 << 12, 8, seed=16)
        registry = MetricsRegistry()
        res = sfft(sig.time, plan=plan, metrics=registry, tracer=Tracer())
        assert registry.counter("sfft.location.phase").value == 1
        assert registry.counter("sfft.location.vote").value == 0
        assert registry.gauge("sfft.recovery.hits").value >= 8
        assert 1 <= res.votes.min() and res.votes.max() <= plan.loops


class TestExactFailureModes:
    def test_noisy_input_falls_back_to_voting(self):
        # Noise fails the phase screen: the signal votes, and strict mode
        # checks the voting result as it always did.
        sig = make_sparse_signal(1 << 12, 4, seed=20)
        rng = np.random.default_rng(21)
        noisy = sig.time + 0.01 * rng.standard_normal(1 << 12)
        res, route = _run(noisy, 4, seed=22, strict=True)
        assert route == "vote"
        assert set(res.locations.tolist()) == set(sig.locations.tolist())

    def test_non_strict_returns_partial(self):
        sig = make_sparse_signal(1 << 12, 4, seed=23)
        rng = np.random.default_rng(24)
        noisy = sig.time + 0.01 * rng.standard_normal(1 << 12)
        res, route = _run(noisy, 4, seed=25, strict=False)
        assert route == "vote"
        assert res.k_found == 4

    def test_validation(self):
        with pytest.raises(ParameterError):
            sfft(np.zeros(1000, complex), 4)   # not a power of two
        with pytest.raises(ParameterError):
            sfft(np.zeros(16, complex), 16)    # k >= n
        with pytest.raises(ParameterError):
            sfft(np.zeros(16, complex), 0)

    def test_deterministic_given_seed(self):
        sig = make_sparse_signal(1 << 12, 6, seed=26)
        a, _ = _run(sig.time, 6, seed=27)
        b, _ = _run(sig.time, 6, seed=27)
        assert (a.locations == b.locations).all()
        assert np.array_equal(a.values, b.values)


class TestExactEdgeCases:
    def test_zero_signal_votes_zero_values(self):
        # Nothing to find, so no loop certifies it: it votes, and the
        # median estimates of an all-zero spectrum are zero.
        res, route = _run(np.zeros(1024, dtype=complex), 4, seed=1)
        assert route == "vote"
        assert not np.abs(res.values).any()

    def test_dc_component(self):
        res, route = _run(np.ones(1024, dtype=complex), 1, seed=2)
        assert route == "phase"
        assert res.locations.tolist() == [0]
        assert abs(res.values[0] - 1024) < 1e-9

    def test_nyquist_component(self):
        t = np.arange(1024)
        x = np.exp(2j * np.pi * 512 * t / 1024)
        res, route = _run(x, 1, seed=3)
        assert route == "phase"
        assert res.locations.tolist() == [512]
        assert abs(res.values[0] - 1024) < 1e-9

    def test_adjacent_frequencies_separated(self):
        # Two coefficients one bin apart share a bucket or sit in
        # neighbouring ones under every permutation; peeling and the
        # neighbourhood solve must still resolve both.
        n = 1 << 12
        locs = np.array([777, 778])
        vals = np.array([n + 0j, -n + 0j])
        sig = make_sparse_signal(n, 2, locations=locs, values=vals)
        res, route = _run(sig.time, 2, seed=4)
        assert route == "phase"
        assert set(res.locations.tolist()) == {777, 778}
        assert _worst_relative_error(res, sig) < 1e-9
