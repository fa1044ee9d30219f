"""Property tests: sharding is invisible — bit for bit, whatever the knobs.

The executor's contract is exact equality with the serial fused engine
(``locations``, ``values``, ``votes`` — no tolerance) for *every*
execution mode (GIL-bound threads and the shared-memory process pool),
worker count, shard size, and available FFT backend, and
float-tolerance agreement with the solo per-signal driver.  Any
divergence means a stage leaked state across shard boundaries, the
shared-memory descriptors didn't round-trip a plan exactly, or a
backend isn't the pocketfft twin it claims to be.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ShardedExecutor, sfft, sfft_batch
from repro.core.fft_backend import available_backends
from repro.signals import make_sparse_signal
from tests.conftest import cached_plan

_BACKENDS = available_backends()


def _stack(n, k, S, seed):
    return np.stack([
        make_sparse_signal(n, k, seed=seed + 7 * t).time for t in range(S)
    ])


def _shard_size(choice, S):
    return {"one": 1, "three": 3, "whole": S, "default": None}[choice]


@given(
    logn=st.integers(min_value=10, max_value=12),
    k=st.integers(min_value=2, max_value=8),
    S=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
    workers=st.sampled_from([1, 2, 4]),
    shard_choice=st.sampled_from(["one", "three", "whole", "default"]),
    backend=st.sampled_from(_BACKENDS),
    mode=st.sampled_from(["thread", "process"]),
)
@settings(max_examples=20, deadline=None)
def test_executor_bit_identical_to_fused(
    logn, k, S, seed, workers, shard_choice, backend, mode
):
    n = 1 << logn
    plan = cached_plan(n, k)
    X = _stack(n, k, S, seed)
    serial = sfft_batch(X, plan=plan)
    ex = ShardedExecutor(
        workers=workers,
        shard_size=_shard_size(shard_choice, S),
        fft_backend=backend,
        mode=mode,
    )
    sharded = ex.run(X, plan)
    assert len(sharded) == S
    for s in range(S):
        np.testing.assert_array_equal(
            sharded[s].locations, serial[s].locations,
            err_msg=f"signal {s}: support diverged",
        )
        np.testing.assert_array_equal(
            sharded[s].values, serial[s].values,
            err_msg=f"signal {s}: values diverged",
        )
        np.testing.assert_array_equal(
            sharded[s].votes, serial[s].votes,
            err_msg=f"signal {s}: votes diverged",
        )


@given(
    logn=st.integers(min_value=10, max_value=11),
    k=st.integers(min_value=2, max_value=6),
    S=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
    workers=st.sampled_from([2, 4]),
    mode=st.sampled_from(["thread", "process"]),
)
@settings(max_examples=10, deadline=None)
def test_executor_matches_solo_driver(logn, k, S, seed, workers, mode):
    n = 1 << logn
    plan = cached_plan(n, k)
    X = _stack(n, k, S, seed)
    sharded = ShardedExecutor(
        workers=workers, shard_size=1, mode=mode
    ).run(X, plan)
    for s in range(S):
        solo = sfft(X[s], plan=plan)
        np.testing.assert_array_equal(sharded[s].locations, solo.locations)
        np.testing.assert_array_equal(sharded[s].votes, solo.votes)
        np.testing.assert_allclose(
            sharded[s].values, solo.values, rtol=1e-12, atol=1e-12,
        )


@given(
    S=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
    workers=st.sampled_from([1, 2, 4]),
    mode=st.sampled_from(["thread", "process"]),
)
@settings(max_examples=8, deadline=None)
def test_executor_bit_identical_with_comb(S, seed, workers, mode):
    # Comb masks are Generator-seeded and data-dependent; the executor
    # builds them serially in stack order (process mode ships them to
    # workers through the shared data segment), so an integer seed must
    # yield the exact serial-engine masks regardless of sharding or mode.
    n, k = 2048, 4
    plan = cached_plan(n, k)
    X = _stack(n, k, S, seed)
    kwargs = dict(comb_width=n >> 4, seed=seed)
    serial = sfft_batch(X, plan=plan, **kwargs)
    sharded = ShardedExecutor(workers=workers, shard_size=1, mode=mode).run(
        X, plan, **kwargs
    )
    for s in range(S):
        np.testing.assert_array_equal(sharded[s].locations,
                                      serial[s].locations)
        np.testing.assert_array_equal(sharded[s].values, serial[s].values)
        np.testing.assert_array_equal(sharded[s].votes, serial[s].votes)
