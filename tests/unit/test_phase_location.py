"""Phase-first location in the engine: its fallback, its stack-invariance.

A signal the phase step does not certify runs the voting stages on the
voting plan, so its output must equal, bit for bit, cutoff + voting +
median estimation run directly on that plan's ``bin_fused`` rows; and a
stack mixing both routes must give the same bits serially, batched and
sharded.  A plan whose phase plan has fewer buckets locates exactly sparse
input on it without ever building the voting plan's filter.
"""

import threading

import numpy as np
import pytest

from repro.core import (
    ShardedExecutor,
    batch,
    cutoff_rows,
    estimate_values,
    load_plan,
    make_plan,
    recover_locations,
    save_plan,
    sfft,
    sfft_batch,
)
from repro.core.batch import SparseFFTResult
from repro.core.phase import SLACK, PhaseStack
from repro.core.plan_cache import PlanCache
from repro.obs import MetricsRegistry, Tracer
from repro.signals import add_awgn, make_sparse_signal


def _relative_noise(x, level, seed):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
    return x + e * (level * np.linalg.norm(x) / np.linalg.norm(e))


def _voting_reference(x, plan):
    """Steps 3-6 by hand on the voting plan's ``bin_fused`` rows."""
    params = plan.params
    ws = plan.workspace().voting
    rows = ws.bucket_fft(ws.bin_fused(x))
    v = params.voting_loops
    selected = cutoff_rows(np.abs(rows[:v]), params.select_count)
    hits, votes = recover_locations(
        selected, list(plan.permutations[:v]), params.B,
        params.vote_threshold,
    )
    values = estimate_values(hits, rows, list(plan.permutations), plan.filt,
                             params.B)
    return SparseFFTResult(n=params.n, locations=hits, values=values,
                           votes=votes).top(params.k)


def _route(x, plan):
    registry = MetricsRegistry()
    res = sfft(x, plan=plan, tracer=Tracer(), metrics=registry)
    return res, {name: registry.counter(f"sfft.location.{name}").value
                 for name in ("phase", "vote")}


def _same_bits(a, b):
    for field in ("locations", "values", "votes"):
        got, want = getattr(a, field), getattr(b, field)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), \
            field


def _floor(plan):
    """The phase route's live floor, relative to the largest bucket."""
    return SLACK * plan.params.tolerance


@pytest.mark.parametrize("n,k", [(1 << 12, 8), (1 << 14, 16), (1 << 16, 64)])
@pytest.mark.parametrize("noise", ["100x floor", "4x floor", "20 dB"])
def test_noisy_input_falls_back_to_voting_bit_for_bit(n, k, noise):
    # Far above the floor the screen rejects the signal.  A few times the
    # floor can pass the screen and leave through an exit rule instead
    # (at 3x, some draws' buckets all lie below the floor on one loop,
    # and the phase route rightly certifies them).
    plan = make_plan(n, k, seed=n + k)
    for seed in range(3):
        x = make_sparse_signal(n, k, seed=seed).time
        if noise == "20 dB":
            x, _ = add_awgn(x, 20.0, seed=seed + 50)
        else:
            times = float(noise.split("x")[0])
            x = _relative_noise(x, times * _floor(plan), seed + 50)
        res, counts = _route(x, plan)
        assert counts == {"phase": 0, "vote": 1}
        _same_bits(res, _voting_reference(x, plan))


def test_exact_input_is_located_by_phase():
    n, k = 1 << 14, 16
    plan = make_plan(n, k, seed=3)
    sig = make_sparse_signal(n, k, seed=4)
    res, counts = _route(sig.time, plan)
    assert counts == {"phase": 1, "vote": 0}
    np.testing.assert_array_equal(res.locations, np.sort(sig.locations))
    want = dict(zip(sig.locations.tolist(), sig.values))
    for f, v in zip(res.locations.tolist(), res.values):
        assert abs(v - want[f]) <= 1e-9 * abs(want[f])


def test_mixed_stack_same_bits_serial_batched_sharded():
    n, k, S = 1 << 13, 8, 8
    plan = make_plan(n, k, seed=11)
    X = np.stack([make_sparse_signal(n, k, seed=100 + s).time
                  for s in range(S)])
    X[1], _ = add_awgn(X[1], 20.0, seed=1)
    X[4] = _relative_noise(X[4], 100 * _floor(plan), 4)
    X[6], _ = add_awgn(X[6], 30.0, seed=6)

    singles = [_route(x, plan) for x in X]
    routes = [c["phase"] for _, c in singles]
    assert routes == [1, 0, 1, 1, 0, 1, 0, 1]
    batched = sfft_batch(X, plan=plan)
    sharded = sfft_batch(X, plan=plan,
                         executor=ShardedExecutor(workers=2, mode="thread"))
    for s, (single, _) in enumerate(singles):
        _same_bits(batched[s], single)
        _same_bits(sharded[s], single)


def _phase_solves(tracer):
    """Phase-solve ``estimation`` spans of a voted call (voting's own,
    the last one, not counted)."""
    return sum(sp.name == "estimation" for sp in tracer.spans) - 1


@pytest.mark.parametrize("case", ["exact, tolerance 1e-3", "4x floor"])
def test_phase_route_gives_up_after_two_solves(case):
    # Input the route cannot certify leaves after at most two solves
    # (no convergence, a second failed certificate, or more than 2k
    # found), not after every loop of the plan; voting's bits stand.
    n, k = 1 << 14, 16
    if case.startswith("exact"):
        plan = make_plan(n, k, seed=n + k, tolerance=1e-3)
    else:
        plan = make_plan(n, k, seed=n + k)
    for seed in range(2):
        x = make_sparse_signal(n, k, seed=seed).time
        if not case.startswith("exact"):
            x = _relative_noise(x, 4 * _floor(plan), seed + 50)
        tracer, registry = Tracer(), MetricsRegistry()
        res = sfft(x, plan=plan, tracer=tracer, metrics=registry)
        assert registry.counter("sfft.location.vote").value == 1
        assert _phase_solves(tracer) <= 2
        _same_bits(res, _voting_reference(x, plan))


def test_unread_sample_cannot_change_a_phase_located_result():
    # The phase route reads only the loops it ran: a NaN where only the
    # plan's last loop reads is never touched by a signal certified
    # before that loop.
    n, k = 1 << 15, 4
    plan = make_plan(n, k, seed=1)
    gather = plan.workspace().gather
    last_only = np.setdiff1d(gather[-1], gather[:-1])
    assert last_only.size
    clean = make_sparse_signal(n, k, seed=41).time
    x = clean.copy()
    x[last_only[0]] = np.nan
    got, counts = _route(x, plan)
    assert counts == {"phase": 1, "vote": 0}
    _same_bits(got, sfft(clean, plan=plan))


def test_screen_sends_noise_to_voting_after_one_loop():
    n, k = 1 << 14, 16
    plan = make_plan(n, k, seed=5)
    x, _ = add_awgn(make_sparse_signal(n, k, seed=6).time, 20.0, seed=7)
    tracer = Tracer()
    res = sfft(x, plan=plan, tracer=tracer)
    folds = [sp.attrs for sp in tracer.spans if sp.name == "perm_filter"]
    # Loop 0 folded once, plain: the screen runs before any shifted fold
    # and fails it, then voting folds the rest.
    assert [f["loops"] for f in folds] == [1, plan.loops]
    assert not any(f.get("shifted") for f in folds)
    _same_bits(res, _voting_reference(x, plan))


#: Supports the parent engine (both folds in every round) gave the draws
#: below.  Draw 2's two smallest coefficients nearly tie, so its trimmed
#: support follows the plan's filter bits, which the default FFT backend
#: synthesizes.
_FAILED_CERTIFICATE_SUPPORT = {
    2: {"numpy": [376, 447, 1069, 1371, 1693, 1847, 3332, 3424],
        "scipy": [376, 447, 1069, 1221, 1371, 1693, 1847, 3332]},
    46: [564, 897, 1019, 1115, 2054, 2247, 2546, 3703],
    48: [198, 531, 1585, 2044, 2437, 2757, 2843, 3838],
}


@pytest.mark.parametrize("seed", sorted(_FAILED_CERTIFICATE_SUPPORT))
def test_failed_certificate_folds_shifted_and_decodes_on(seed):
    # A (k+1)-sparse draw: its first certificate round (loop 1, U alone)
    # fails, so it gathers loop 1 again for the shifted fold and decodes
    # on; loop 2 certifies it.  Route and support are the ones both
    # folds in every round gave.
    from repro.core.fft_backend import default_backend_name

    # The draws were found under the accurate filter; the path does not
    # depend on the filter.
    n, k = 1 << 12, 8
    plan = make_plan(n, k, seed=3, profile="accurate")
    sig = make_sparse_signal(n, k + 1, seed=seed)
    registry = MetricsRegistry()
    tracer = Tracer()
    res = sfft(sig.time, plan=plan, tracer=tracer, metrics=registry)
    folds = [sp.attrs.get("shifted") for sp in tracer.spans
             if sp.name == "perm_filter"]
    assert folds == [None, 1, 0, 1, 0]
    assert {name: registry.counter(f"sfft.location.{name}").value
            for name in ("phase", "vote")} == {"phase": 1, "vote": 0}
    want = _FAILED_CERTIFICATE_SUPPORT[seed]
    if isinstance(want, dict):
        want = want.get(default_backend_name())
    if want is None:
        assert set(res.locations.tolist()) < set(sig.locations.tolist())
    else:
        assert res.locations.tolist() == want


#: A shape with two plans: voting B = 1024, phase B = 512.
_TWO_PLANS = (1 << 18, 16)


def _stack(n, k, S, snr_db=None, seed=0):
    X = np.stack([make_sparse_signal(n, k, seed=seed + s).time
                  for s in range(S)])
    if snr_db is not None:
        X = np.stack([add_awgn(x, snr_db, seed=seed + 50 + s)[0]
                      for s, x in enumerate(X)])
    return X


def _counts(registry):
    return {name: registry.counter(f"sfft.location.{name}").value
            for name in ("phase", "vote")}


@pytest.mark.parametrize("n,k,B_phase", [
    (1 << 14, 16, 512),     # stream-14: one plan
    (1 << 20, 64, 1024),    # batch-20
    (1 << 18, 64, 1024),    # sharded-18
    (1 << 16, 256, 2048),   # noisy-k256: one plan
])
def test_phase_plan_buckets(n, k, B_phase):
    plan = make_plan(n, k, seed=1234)
    assert plan.phase.B == B_phase
    assert (plan.phase is plan) == (plan.B == B_phase)
    phase = plan.phase.params
    assert phase.lobefrac * phase.B == pytest.approx(
        plan.params.lobefrac * plan.B)
    assert phase.tolerance == plan.params.tolerance
    assert plan.phase.permutations is plan.permutations


def test_exact_stack_never_builds_the_voting_filter():
    n, k = _TWO_PLANS
    plan = make_plan(n, k, seed=7)
    assert (plan.B, plan.phase.B) == (1024, 512)
    X = _stack(n, k, 4, seed=10)
    registry = MetricsRegistry()
    out = sfft_batch(X, plan=plan, metrics=registry)
    assert _counts(registry) == {"phase": 4, "vote": 0}
    assert plan._filt is None and plan._voting_workspace is None
    for s, res in enumerate(out):
        sig = make_sparse_signal(n, k, seed=10 + s)
        np.testing.assert_array_equal(res.locations, np.sort(sig.locations))
        want = dict(zip(sig.locations.tolist(), sig.values))
        for f, v in zip(res.locations.tolist(), res.values):
            assert abs(v - want[f]) <= 1e-9 * abs(want[f])


def test_noisy_stack_votes_on_the_voting_plan():
    n, k = _TWO_PLANS
    plan = make_plan(n, k, seed=7)
    X = _stack(n, k, 3, snr_db=20.0, seed=20)
    registry = MetricsRegistry()
    out = sfft_batch(X, plan=plan, metrics=registry)
    assert _counts(registry) == {"phase": 0, "vote": 3}
    assert plan.workspace().voting.B == plan.B == 1024
    for x, res in zip(X, out):
        _same_bits(res, _voting_reference(x, plan))


def test_multi_loop_values_are_no_worse_than_one_loop(monkeypatch):
    # On a phase plan smaller than the voting plan the solve takes one
    # more step over every consumed loop after the decode-loop Jacobi.
    n, k = _TWO_PLANS
    plan = make_plan(n, k, seed=7)
    sigs = [make_sparse_signal(n, k, seed=30 + s) for s in range(16)]
    X = np.stack([sig.time for sig in sigs])

    def l1(out):
        return np.median([
            np.abs(res.to_dense()[sig.locations] - sig.values).mean()
            for res, sig in zip(out, sigs)])

    multi = l1(sfft_batch(X, plan=plan))
    class OneLoop(PhaseStack):
        def __init__(self, plan, S, *, refine):
            super().__init__(plan, S, refine=False)

    monkeypatch.setattr(batch, "PhaseStack", OneLoop)
    single = l1(sfft_batch(X, plan=plan))
    assert multi <= single


def test_concurrent_first_votes_share_bits():
    n, k = _TWO_PLANS
    X = _stack(n, k, 2, snr_db=20.0, seed=40)
    want = sfft_batch(X, plan=make_plan(n, k, seed=8))
    cache = PlanCache()
    plan = cache.get_or_make(n, k, seed=8)
    assert plan._filt is None
    barrier = threading.Barrier(2)
    got = [None, None]

    def run(i):
        barrier.wait()
        got[i] = sfft_batch(X, plan=plan)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for out in got:
        for a, b in zip(out, want):
            _same_bits(a, b)


def test_saved_plan_round_trips_both_routes(tmp_path):
    n, k = _TWO_PLANS
    plan = make_plan(n, k, seed=9)
    exact, noisy = _stack(n, k, 2, seed=60), _stack(n, k, 2, 20.0, seed=60)
    path = tmp_path / "plan.npz"
    save_plan(plan, path)
    loaded = load_plan(path)
    assert loaded.params == plan.params
    assert loaded.phase.params == plan.phase.params
    np.testing.assert_array_equal(loaded.phase.filt.freq,
                                  plan.phase.filt.freq)
    np.testing.assert_array_equal(loaded.filt.freq, plan.filt.freq)
    for X in (exact, noisy):
        for a, b in zip(sfft_batch(X, plan=loaded), sfft_batch(X, plan=plan)):
            _same_bits(a, b)


def test_schema_1_plan_file_still_loads(tmp_path):
    # Schema 1 held the voting filter only; the phase filter is
    # synthesized on load.
    n, k = _TWO_PLANS
    plan = make_plan(n, k, seed=9)
    p = plan.params
    path = tmp_path / "plan1.npz"
    np.savez_compressed(
        path, schema=np.array([1]), n=p.n, k=p.k, B=p.B, loops=p.loops,
        vote_threshold=p.vote_threshold, select_count=p.select_count,
        window=np.array(p.window), tolerance=p.tolerance,
        lobefrac=p.lobefrac, loc_loops=np.array([-1]),
        filter_time=plan.filt.time, filter_freq=plan.filt.freq,
        filter_box_width=plan.filt.box_width,
        sigmas=np.array([q.sigma for q in plan.permutations]),
        taus=np.array([q.tau for q in plan.permutations]),
    )
    loaded = load_plan(path)
    assert loaded.phase.B == plan.phase.B
    X = np.concatenate([_stack(n, k, 1, seed=70),
                        _stack(n, k, 1, 20.0, seed=70)])
    for a, b in zip(sfft_batch(X, plan=loaded), sfft_batch(X, plan=plan)):
        _same_bits(a, b)
