"""The core shape/dtype contracts hold on live runs, under plain pytest.

CI runs the whole tier-1 suite once with ``REPRO_CHECK_CONTRACTS=1``.
These tests turn enforcement on in-process instead, so a bare ``pytest``
also runs every ``@shape_contract`` wrapper on the three engine routes:
a phase-located ``sfft(x, k)``, a voted ``sfft_batch`` on a noisy stack,
and a 2-thread :class:`~repro.core.ShardedExecutor`.  Each must finish
without :class:`~repro.errors.ContractError`, must actually pass through
the checks, and must give the same bits as the run with enforcement off.
"""

import numpy as np
import pytest

from repro.analysis.staticcheck import contracts
from repro.core import ShardedExecutor, make_plan, sfft, sfft_batch
from repro.obs import global_registry
from repro.signals import add_awgn, make_sparse_signal


@pytest.fixture
def checked_calls(monkeypatch):
    """Count enforced contract calls; restore the enforcement flag after."""
    calls = []
    real = contracts.check_call

    def counting(contract, fn, args, kwargs):
        calls.append(contract.key)
        return real(contract, fn, args, kwargs)

    monkeypatch.setattr(contracts, "check_call", counting)
    previous = contracts.enforcement_enabled()
    try:
        yield calls
    finally:
        contracts.set_enforcement(previous)


def _both_ways(run, calls):
    """``run()`` with enforcement on, then off; returns both outputs."""
    contracts.set_enforcement(True)
    checked = run()
    assert calls, "no contract was checked"
    contracts.set_enforcement(False)
    del calls[:]
    plain = run()
    assert not calls
    return checked, plain


def _assert_same_bits(got, want):
    got = got if isinstance(got, list) else [got]
    want = want if isinstance(want, list) else [want]
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in ("locations", "values", "votes"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field


def _routes(run):
    """``run()``'s output and how many signals took each location route."""
    counters = {name: global_registry().counter(f"sfft.location.{name}")
                for name in ("phase", "vote")}
    before = {name: c.value for name, c in counters.items()}
    out = run()
    return out, {name: c.value - before[name] for name, c in counters.items()}


def test_phase_located_sfft(checked_calls):
    n, k = 1 << 14, 16
    x = make_sparse_signal(n, k, seed=0).time
    routes = []

    def run():
        out, counts = _routes(lambda: sfft(x, k, seed=7))
        routes.append(counts)
        return out

    checked, plain = _both_ways(run, checked_calls)
    assert routes == [{"phase": 1, "vote": 0}] * 2
    _assert_same_bits(checked, plain)


def test_voted_sfft_batch_on_noisy_stack(checked_calls):
    n, k, S = 1 << 12, 8, 3
    plan = make_plan(n, k, seed=3)
    X = np.stack([add_awgn(make_sparse_signal(n, k, seed=s).time, 20.0,
                           seed=s + 50)[0] for s in range(S)])
    routes = []

    def run():
        out, counts = _routes(lambda: sfft_batch(X, plan=plan))
        routes.append(counts)
        return out

    checked, plain = _both_ways(run, checked_calls)
    assert routes == [{"phase": 0, "vote": S}] * 2
    _assert_same_bits(checked, plain)


def test_two_thread_executor(checked_calls):
    n, k, S = 1 << 12, 8, 4
    plan = make_plan(n, k, seed=5)
    X = np.stack([make_sparse_signal(n, k, seed=s).time for s in range(S)])
    X[1], _ = add_awgn(X[1], 20.0, seed=9)  # one voted signal in the stack

    def run():
        executor = ShardedExecutor(workers=2, shard_size=2, mode="thread")
        return executor.run(X, plan)

    checked, plain = _both_ways(run, checked_calls)
    _assert_same_bits(checked, plain)
