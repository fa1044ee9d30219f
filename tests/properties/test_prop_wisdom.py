"""Property: tuning changes speed, never results (hypothesis).

For any workload and any tuned configuration the store could hold, a
plan-less ``sfft(x, k)`` resolved through the wisdom seam must be
bit-identical to the same call with the record's resolved overrides
passed explicitly — the tuner picks *among* correct configurations, it
never perturbs what a configuration computes.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import global_plan_cache, sfft
from repro.core.parameters import derive_parameters
from repro.signals import make_sparse_signal
from repro.tune import (
    WISDOM_SCHEMA,
    WisdomStore,
    class_key,
    clear_wisdom_cache,
    config_fingerprint,
)


@pytest.fixture(autouse=True)
def clean_resolution_env(monkeypatch):
    monkeypatch.delenv("REPRO_WISDOM", raising=False)
    clear_wisdom_cache()
    yield
    clear_wisdom_cache()


configs = st.fixed_dictionaries({
    "n_log2": st.integers(min_value=8, max_value=11),
    "k": st.integers(min_value=1, max_value=8),
    "loops": st.integers(min_value=4, max_value=8),
    "b_shift": st.integers(min_value=-1, max_value=1),
    "seed": st.integers(min_value=0, max_value=2**20),
})


@given(configs)
@settings(max_examples=15, deadline=None)
def test_wisdom_consumption_is_bit_identical(tmp_path_factory, cfg):
    n, k = 1 << cfg["n_log2"], cfg["k"]
    base_b = derive_parameters(n, k).B
    b = int(np.clip(base_b * 2 ** cfg["b_shift"], 2, n // 2))

    resolved = {
        "B": int(derive_parameters(n, k, B=b, loops=cfg["loops"]).B),
        "loops": cfg["loops"],
    }
    store_dir = tmp_path_factory.mktemp("wisdom")
    store = WisdomStore(str(store_dir / "W.json"))
    store.append({
        "schema": WISDOM_SCHEMA,
        "class": class_key(n, k),
        "config": {"loops": cfg["loops"]},
        "resolved": resolved,
        "fingerprint": config_fingerprint(n, k, dict(resolved)),
    })

    sig = make_sparse_signal(n, k, seed=cfg["seed"])

    global_plan_cache().clear()
    os.environ["REPRO_WISDOM"] = store.path
    try:
        tuned = sfft(sig.time, k, seed=7)
    finally:
        del os.environ["REPRO_WISDOM"]

    explicit = sfft(sig.time, k, seed=7, **resolved)

    assert tuned.n == explicit.n
    assert np.array_equal(tuned.locations, explicit.locations)
    assert np.array_equal(tuned.values, explicit.values)
    assert np.array_equal(tuned.votes, explicit.votes)
