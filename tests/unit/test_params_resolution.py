"""Unit tests for the parameter-resolution seam (repro.core.params).

Precedence under test, highest first: explicit kwargs > wisdom store >
paper defaults — plus the consumption metrics
(``sfft.wisdom.hit`` / ``miss`` / ``stale``) and the bit-identity
guarantee (a wisdom hit produces exactly the plan its overrides name).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import global_plan_cache, make_plan, sfft, sfft_batch
from repro.core.params import (
    ENV_WISDOM,
    RESOLUTION_SOURCES,
    resolve_sfft_config,
)
from repro.core.parameters import derive_parameters
from repro.errors import ParameterError
from repro.obs import MetricsRegistry, global_registry
from repro.signals import make_sparse_signal
from repro.tune import (
    WISDOM_SCHEMA,
    WisdomStore,
    class_key,
    clear_wisdom_cache,
    config_fingerprint,
)

N, K = 1024, 4


@pytest.fixture(autouse=True)
def clean_resolution_env(monkeypatch):
    """Ambient wisdom must not leak into these assertions."""
    monkeypatch.delenv(ENV_WISDOM, raising=False)
    clear_wisdom_cache()
    yield
    clear_wisdom_cache()


def write_wisdom(path, n=N, k=K, *, loops=6, batch=1, noise="exact",
                 fingerprint=None, **config_extra):
    """One valid store entry; ``fingerprint`` overrides for staleness."""
    params = derive_parameters(n, k, loops=loops)
    resolved = {"B": int(params.B), "loops": int(params.loops)}
    record = {
        "schema": WISDOM_SCHEMA,
        "class": class_key(n, k, noise, batch),
        "config": {"loops": loops, **config_extra},
        "resolved": resolved,
        "fingerprint": fingerprint
        or config_fingerprint(n, k, dict(resolved)),
    }
    WisdomStore(str(path)).append(record)
    return record


class TestPrecedence:
    def test_defaults_when_nothing_configured(self):
        resolved = resolve_sfft_config(N, K)
        assert resolved.source == "default"
        assert resolved.overrides == {} and resolved.class_key is None

    def test_sources_tuple_is_ordered(self):
        assert RESOLUTION_SOURCES == ("explicit", "wisdom", "default")

    def test_explicit_beats_wisdom(self, tmp_path, monkeypatch):
        store = tmp_path / "W.json"
        write_wisdom(store, loops=6)
        monkeypatch.setenv(ENV_WISDOM, str(store))
        resolved = resolve_sfft_config(N, K, explicit={"loops": 5})
        assert resolved.source == "explicit"
        assert resolved.overrides == {"loops": 5}

    def test_explicit_comb_width_alone_pins_the_config(self, tmp_path,
                                                       monkeypatch):
        store = tmp_path / "W.json"
        write_wisdom(store, loops=6)
        monkeypatch.setenv(ENV_WISDOM, str(store))
        resolved = resolve_sfft_config(N, K, comb_width=64)
        assert resolved.source == "explicit"
        assert resolved.comb_width == 64 and resolved.overrides == {}

    def test_wisdom_beats_defaults(self, tmp_path, monkeypatch):
        store = tmp_path / "W.json"
        record = write_wisdom(store, loops=6)
        monkeypatch.setenv(ENV_WISDOM, str(store))
        resolved = resolve_sfft_config(N, K)
        assert resolved.source == "wisdom"
        assert resolved.overrides == record["resolved"]
        assert resolved.class_key == record["class"]

    def test_wisdom_path_argument_overrides_env(self, tmp_path,
                                                monkeypatch):
        store = tmp_path / "W.json"
        write_wisdom(store, loops=6)
        monkeypatch.setenv(ENV_WISDOM, str(tmp_path / "elsewhere.json"))
        resolved = resolve_sfft_config(N, K, wisdom_path=str(store))
        assert resolved.source == "wisdom"

    def test_empty_wisdom_path_disables_the_leg(self, tmp_path,
                                                monkeypatch):
        store = tmp_path / "W.json"
        write_wisdom(store, loops=6)
        monkeypatch.setenv(ENV_WISDOM, str(store))
        resolved = resolve_sfft_config(N, K, wisdom_path="")
        assert resolved.source == "default"


class TestWisdomMetrics:
    def test_hit_increments_counter(self, tmp_path, monkeypatch):
        store = tmp_path / "W.json"
        write_wisdom(store, loops=6)
        monkeypatch.setenv(ENV_WISDOM, str(store))
        resolve_sfft_config(N, K)
        assert global_registry().counter("sfft.wisdom.hit").value == 1

    def test_miss_increments_counter(self, tmp_path, monkeypatch):
        store = tmp_path / "W.json"
        write_wisdom(store, loops=6)
        monkeypatch.setenv(ENV_WISDOM, str(store))
        resolved = resolve_sfft_config(N, 2 * K)  # class never tuned
        assert resolved.source == "default"
        assert global_registry().counter("sfft.wisdom.miss").value == 1

    def test_stale_entry_is_ignored_and_counted(self, tmp_path,
                                                monkeypatch):
        store = tmp_path / "W.json"
        write_wisdom(store, loops=6, fingerprint="0" * 16)
        monkeypatch.setenv(ENV_WISDOM, str(store))
        resolved = resolve_sfft_config(N, K)
        # The stale record must not be applied; resolution falls through
        # to the paper defaults.
        assert resolved.source == "default"
        assert resolved.overrides == {}
        assert global_registry().counter("sfft.wisdom.stale").value == 1
        assert global_registry().counter("sfft.wisdom.hit").value == 0

    def test_no_store_configured_emits_no_metrics(self):
        resolve_sfft_config(N, K)
        snapshot = global_registry().snapshot()
        assert not any(name.startswith("sfft.wisdom.")
                       for name in snapshot)


class TestTransformConsumption:
    def test_sfft_under_wisdom_is_bit_identical_to_explicit(
            self, tmp_path, monkeypatch):
        store = tmp_path / "W.json"
        record = write_wisdom(store, loops=6)
        sig = make_sparse_signal(N, K, seed=77)

        monkeypatch.setenv(ENV_WISDOM, str(store))
        global_plan_cache().clear()
        tuned = sfft(sig.time, K, seed=3)

        monkeypatch.delenv(ENV_WISDOM)
        explicit = sfft(sig.time, K, seed=3, **record["resolved"])

        assert np.array_equal(tuned.locations, explicit.locations)
        assert np.array_equal(tuned.values, explicit.values)
        assert tuned.locations.size == K

    def test_sfft_batch_consumes_wisdom_plan(self, tmp_path, monkeypatch):
        store = tmp_path / "W.json"
        record = write_wisdom(store, loops=6, batch=4)
        stack = np.stack([
            make_sparse_signal(N, K, seed=80 + t).time for t in range(4)
        ])

        monkeypatch.setenv(ENV_WISDOM, str(store))
        global_plan_cache().clear()
        tuned = sfft_batch(stack, K, seed=3)

        monkeypatch.delenv(ENV_WISDOM)
        plan = make_plan(N, K, seed=3, **record["resolved"])
        explicit = sfft_batch(stack, plan=plan, seed=3)

        for a, b in zip(tuned, explicit):
            assert np.array_equal(a.locations, b.locations)
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("source", ["default", "explicit", "wisdom"])
    def test_sfft_and_sfft_batch_share_one_plan_and_path(
            self, tmp_path, monkeypatch, source):
        # A stack of one through sfft_batch is sfft: the same cached plan
        # object (one miss, then one hit) and the same bits.
        overrides = {"loops": 7} if source == "explicit" else {}
        if source == "wisdom":
            store = tmp_path / "W.json"
            write_wisdom(store, loops=6)
            monkeypatch.setenv(ENV_WISDOM, str(store))
        assert resolve_sfft_config(N, K, explicit=overrides).source \
            == source
        x = make_sparse_signal(N, K, seed=77).time
        cache = global_plan_cache()
        cache.clear()
        single = sfft(x, K, seed=3, **overrides)
        (batched,) = sfft_batch(x[None], K, seed=3, **overrides)
        stats = cache.stats()
        assert (stats["size"], stats["misses"], stats["hits"]) == (1, 1, 1)
        for field in ("locations", "values", "votes"):
            assert getattr(single, field).tobytes() \
                == getattr(batched, field).tobytes()

    def test_explicit_kwargs_keep_old_behavior_under_wisdom(
            self, tmp_path, monkeypatch):
        store = tmp_path / "W.json"
        write_wisdom(store, loops=6)
        monkeypatch.setenv(ENV_WISDOM, str(store))
        sig = make_sparse_signal(N, K, seed=77)
        tuned = sfft(sig.time, K, seed=3, loops=8)

        monkeypatch.delenv(ENV_WISDOM)
        plain = sfft(sig.time, K, seed=3, loops=8)
        assert np.array_equal(tuned.values, plain.values)

    def test_wisdom_hit_recorded_globally_not_per_run(self, tmp_path,
                                                      monkeypatch):
        # The per-run registry keeps CPU/GPU metric name parity (the
        # device model has no resolution step), so wisdom counters land
        # on the global registry only.
        store = tmp_path / "W.json"
        write_wisdom(store, loops=6)
        monkeypatch.setenv(ENV_WISDOM, str(store))
        registry = MetricsRegistry()
        sig = make_sparse_signal(N, K, seed=77)
        result = sfft(sig.time, K, seed=3, metrics=registry)
        assert result.locations.size == K
        assert global_registry().counter("sfft.wisdom.hit").value == 1
        assert not any(name.startswith("sfft.wisdom.")
                       for name in registry.names())


class TestEntryPointKeywords:
    @pytest.mark.parametrize("call", ["sfft", "sfft_batch"])
    def test_unknown_keyword_is_named(self, call):
        x = make_sparse_signal(N, K, seed=77).time
        with pytest.raises(ParameterError, match="'lopps'"):
            if call == "sfft":
                sfft(x, K, lopps=3)
            else:
                sfft_batch(x[None], K, lopps=3)

    @pytest.mark.parametrize("executor,counter", [
        (None, "sfft.location.phase"), (2, "sfft.executor.signals"),
    ])
    def test_sfft_batch_takes_metrics_with_a_plan(self, executor, counter):
        plan = make_plan(N, K, seed=3)
        X = np.stack([make_sparse_signal(N, K, seed=s).time
                      for s in range(4)])
        registry = MetricsRegistry()
        sfft_batch(X, plan=plan, executor=executor, metrics=registry)
        assert registry.counter(counter).value == 4
