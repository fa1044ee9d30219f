"""Unit tests: the sharded executor's contract and instrumentation.

Bit-identity to the serial fused engine is the headline (the property
suite covers the full matrix; here one quick case per axis), plus the
structural pieces: shard geometry, metrics family, per-worker trace
tracks, strict errors naming global stack rows, and the ``sfft_batch``
integration surface.
"""

import numpy as np
import pytest

from repro.core import ShardedExecutor, sfft_batch
from repro.core.executor import EXECUTOR_TRACK
from repro.errors import ParameterError, RecoveryError
from repro.obs import MetricsRegistry, Tracer
from repro.signals import make_sparse_signal
from tests.conftest import cached_plan

_N, _K, _S = 2048, 4, 7


@pytest.fixture(scope="module")
def plan():
    return cached_plan(_N, _K)


@pytest.fixture(scope="module")
def stack():
    return np.stack([
        make_sparse_signal(_N, _K, seed=50 + t).time for t in range(_S)
    ])


def _assert_identical(got, want):
    assert len(got) == len(want)
    for s, (g, w) in enumerate(zip(got, want)):
        np.testing.assert_array_equal(g.locations, w.locations,
                                      err_msg=f"signal {s}: support")
        np.testing.assert_array_equal(g.values, w.values,
                                      err_msg=f"signal {s}: values")
        np.testing.assert_array_equal(g.votes, w.votes,
                                      err_msg=f"signal {s}: votes")


def test_bit_identical_to_serial_fused(stack, plan):
    serial = sfft_batch(stack, plan=plan)
    for workers, shard_size in [(1, None), (2, 3), (4, 1), (2, _S)]:
        ex = ShardedExecutor(workers=workers, shard_size=shard_size)
        _assert_identical(ex.run(stack, plan), serial)


def test_bit_identical_with_comb_masks(stack, plan):
    kwargs = dict(comb_width=_N >> 4, seed=9)
    serial = sfft_batch(stack, plan=plan, **kwargs)
    got = ShardedExecutor(workers=2, shard_size=2).run(
        stack, plan, **kwargs
    )
    _assert_identical(got, serial)


def test_shard_bounds_cover_and_partition(plan):
    ex = ShardedExecutor(workers=4)
    bounds = ex.shard_bounds(10)
    # Default size: ceil(10 / 8) = 2 -> five shards, two per... queue.
    assert bounds[0] == (0, 2)
    assert bounds[-1][1] == 10
    covered = [i for lo, hi in bounds for i in range(lo, hi)]
    assert covered == list(range(10))

    assert ShardedExecutor(workers=1, shard_size=3).shard_bounds(7) == [
        (0, 3), (3, 6), (6, 7)
    ]
    with pytest.raises(ParameterError):
        ex.shard_bounds(0)


def test_constructor_validation():
    with pytest.raises(ParameterError, match="workers"):
        ShardedExecutor(workers=0)
    with pytest.raises(ParameterError, match="shard_size"):
        ShardedExecutor(shard_size=0)
    with pytest.raises(ParameterError, match="fft_workers"):
        ShardedExecutor(fft_workers=0)
    with pytest.raises(ParameterError, match="unknown FFT backend"):
        ShardedExecutor(fft_backend="no-such-backend")


def test_metrics_family_published(stack, plan):
    registry = MetricsRegistry()
    ex = ShardedExecutor(workers=2, shard_size=2)
    ex.run(stack, plan, metrics=registry)
    snap = registry.snapshot()
    assert snap["sfft.executor.workers"]["value"] == 2
    assert snap["sfft.executor.shards"]["value"] == 4  # ceil(7/2)
    assert snap["sfft.executor.signals"]["value"] == _S
    assert snap["sfft.executor.queue_wait_s"]["count"] == 4
    assert snap["sfft.executor.shard_wall_s"]["count"] == 4
    assert snap["sfft.executor.run_wall_s"]["count"] == 1
    assert snap["sfft.executor.overlap_ratio"]["value"] > 0


def test_queue_wait_percentile_gauges(stack, plan):
    registry = MetricsRegistry()
    ShardedExecutor(workers=2, shard_size=2).run(
        stack, plan, metrics=registry
    )
    snap = registry.snapshot()
    p50 = snap["sfft.executor.queue_wait_p50_s"]["value"]
    p90 = snap["sfft.executor.queue_wait_p90_s"]["value"]
    p99 = snap["sfft.executor.queue_wait_p99_s"]["value"]
    assert 0 <= p50 <= p90 <= p99


def test_overlap_ratio_clamped_for_one_worker(stack, plan):
    registry = MetricsRegistry()
    ShardedExecutor(workers=1, shard_size=2).run(
        stack, plan, metrics=registry
    )
    overlap = registry.snapshot()["sfft.executor.overlap_ratio"]["value"]
    assert 0.0 <= overlap <= 1.0  # a serial run cannot "overlap"


def test_spans_land_on_worker_tracks(stack, plan):
    tracer = Tracer()
    ShardedExecutor(workers=2, shard_size=2).run(
        stack, plan, tracer=tracer, comb_width=_N >> 4, seed=3,
    )
    tracks = {sp.track for sp in tracer.spans}
    workers_seen = {t for t in tracks if t.startswith("worker")}
    assert workers_seen  # at least one worker track
    assert workers_seen <= {"worker0", "worker1"}
    assert EXECUTOR_TRACK in tracks  # the serial comb span

    shard_totals = [sp for sp in tracer.spans
                    if sp.name.startswith("shard")
                    and "." not in sp.name]
    assert len(shard_totals) == 4
    assert sum(sp.attrs["signals"] for sp in shard_totals) == _S
    # Each shard emits its five stage spans at depth 1 on the same track.
    stage_spans = [sp for sp in tracer.spans
                   if "." in sp.name and sp.name != "executor.run"]
    assert {sp.name.split(".", 1)[1] for sp in stage_spans} == {
        "perm_filter", "bucket_fft", "cutoff", "recovery", "estimation"
    }
    assert all(sp.depth == 1 for sp in stage_spans)


def test_span_dag_attrs_and_root(stack, plan):
    tracer = Tracer()
    ShardedExecutor(workers=2, shard_size=2).run(stack, plan, tracer=tracer)

    roots = [sp for sp in tracer.spans if sp.name == "executor.run"]
    assert len(roots) == 1
    root = roots[0]
    assert root.track == EXECUTOR_TRACK and root.start_s == 0.0
    assert root.attrs["workers"] == 2 and root.attrs["signals"] == _S
    # The root covers every shard span: the critical-path DAG contract.
    shard_spans = [sp for sp in tracer.spans
                   if sp.name.startswith("shard") and "." not in sp.name]
    assert all(sp.start_s + sp.duration_s <= root.duration_s + 1e-9
               for sp in shard_spans)

    for sp in shard_spans:
        assert sp.attrs["parent"] == "executor.run"
        assert sp.attrs["shard"] == int(sp.name[len("shard"):])
        assert sp.attrs["worker"] in (0, 1)
        assert sp.attrs["queue_wait_s"] >= 0.0
    stage_spans = [sp for sp in tracer.spans
                   if "." in sp.name and sp.name != "executor.run"]
    for sp in stage_spans:
        shard = sp.name.split(".", 1)[0]
        assert sp.attrs["parent"] == shard
        assert sp.attrs["shard"] == int(shard[len("shard"):])


def test_strict_error_names_global_signal_index(rng):
    # Pure noise defeats k-sparse voting; with shards of 2, the failure
    # sits in the second shard and must name the global row index 2.  At
    # n = 2^14 a noise frequency wins the vote with probability ~1e-6
    # (2k of B = 256 buckets selected, 5 of 8 loops), so fewer than k win.
    n = 1 << 14
    small = cached_plan(n, _K)
    X = np.stack([
        make_sparse_signal(n, _K, seed=60 + t).time for t in range(2)
    ] + [rng.standard_normal(n) * 1e-12])
    with pytest.raises(RecoveryError, match="signal 2"):
        ShardedExecutor(workers=2, shard_size=2).run(X, small, strict=True)


def test_sfft_batch_executor_int_shorthand(stack, plan):
    serial = sfft_batch(stack, plan=plan)
    _assert_identical(sfft_batch(stack, plan=plan, executor=2), serial)
    _assert_identical(
        sfft_batch(stack, plan=plan,
                   executor=ShardedExecutor(workers=2, shard_size=3)),
        serial,
    )


def test_sfft_batch_rejects_bad_executor(stack, plan):
    with pytest.raises(ParameterError, match="executor"):
        sfft_batch(stack, plan=plan, executor="four")
    with pytest.raises(ParameterError, match="fft_backend"):
        sfft_batch(stack, plan=plan, executor=2, fft_backend="numpy")
    with pytest.raises(ParameterError, match="fft_workers"):
        sfft_batch(stack, plan=plan, executor=2, fft_workers=2)


def test_executor_reusable_across_runs(stack, plan):
    ex = ShardedExecutor(workers=2)
    serial = sfft_batch(stack, plan=plan)
    _assert_identical(ex.run(stack, plan), serial)
    _assert_identical(ex.run(stack, plan), serial)
    other = np.stack([
        make_sparse_signal(_N, _K, seed=90 + t).time for t in range(3)
    ])
    _assert_identical(ex.run(other, plan), sfft_batch(other, plan=plan))
