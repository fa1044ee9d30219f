"""Unit tests: the FFT backend registry and its resolution rules.

The registry is the vendor seam every dense FFT goes through, so its
failure modes are contractual: explicit unknown names must raise, ambient
misconfiguration (env var, missing optional dependency) must fall back to
numpy with a logged warning, and resolution order must be explicit name >
process default > environment > numpy.
"""

import logging

import numpy as np
import pytest

from repro.core.fft_backend import (
    ENV_VAR,
    FftBackend,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
    registered_backends,
    set_default_backend,
)
from repro.errors import ParameterError


@pytest.fixture(autouse=True)
def clean_registry_state(monkeypatch):
    """Isolate default-backend and env-var state; drop test registrations."""
    import repro.core.fft_backend as mod

    monkeypatch.delenv(ENV_VAR, raising=False)
    set_default_backend(None)
    before = set(registered_backends())
    yield
    set_default_backend(None)
    with mod._lock:
        for name in set(mod._factories) - before:
            mod._factories.pop(name, None)
            mod._instances.pop(name, None)


def test_numpy_always_registered_and_default():
    assert "numpy" in registered_backends()
    assert "numpy" in available_backends()
    assert default_backend_name() == "numpy"
    assert get_backend().name == "numpy"


def test_builtin_backends_registered():
    names = registered_backends()
    assert {"numpy", "scipy", "pyfftw"} <= set(names)
    assert names == sorted(names)


def test_unknown_explicit_name_raises():
    with pytest.raises(ParameterError, match="unknown FFT backend"):
        get_backend("no-such-backend")
    with pytest.raises(ParameterError, match="unknown FFT backend"):
        set_default_backend("no-such-backend")


def test_unknown_env_var_falls_back_with_warning(monkeypatch, caplog):
    monkeypatch.setenv(ENV_VAR, "no-such-backend")
    with caplog.at_level(logging.WARNING, logger="repro.core.fft_backend"):
        backend = get_backend()
    assert backend.name == "numpy"
    assert any("not a registered FFT backend" in r.message
               for r in caplog.records)


def test_missing_optional_dep_falls_back_with_warning(caplog):
    def broken_factory():
        raise ImportError("synthetic missing dependency")

    register_backend("broken-dep", broken_factory)
    assert "broken-dep" in registered_backends()
    assert "broken-dep" not in available_backends()
    with caplog.at_level(logging.WARNING, logger="repro.core.fft_backend"):
        backend = get_backend("broken-dep")
    assert backend.name == "numpy"
    assert any("falling back to numpy" in r.message for r in caplog.records)


def test_resolution_order_explicit_beats_default_beats_env(monkeypatch):
    class Tagged(FftBackend):
        def __init__(self, tag):
            self.name = tag

        def fft(self, a, *, axis=-1, workers=1):
            return np.fft.fft(a, axis=axis)

    register_backend("via-env", lambda: Tagged("via-env"))
    register_backend("via-default", lambda: Tagged("via-default"))
    register_backend("via-explicit", lambda: Tagged("via-explicit"))

    monkeypatch.setenv(ENV_VAR, "via-env")
    assert get_backend().name == "via-env"

    assert set_default_backend("via-default") == "via-default"
    assert get_backend().name == "via-default"

    assert get_backend("via-explicit").name == "via-explicit"

    set_default_backend(None)
    assert get_backend().name == "via-env"


def test_register_duplicate_requires_replace():
    register_backend("dup", lambda: _tagged("dup-one"))
    with pytest.raises(ParameterError, match="already registered"):
        register_backend("dup", lambda: _tagged("dup-two"))
    register_backend("dup", lambda: _tagged("dup-two"), replace=True)
    assert get_backend("dup").name == "dup-two"


def test_register_rejects_bad_names():
    with pytest.raises(ParameterError):
        register_backend("", lambda: _tagged("x"))
    with pytest.raises(ParameterError):
        register_backend(None, lambda: _tagged("x"))


def test_available_backends_agree_with_numpy(rng):
    """Every importable backend computes the same DFT (pocketfft twins
    are bit-identical; all must agree to float tolerance)."""
    a = (rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64)))
    want = np.fft.fft(a, axis=-1)
    for name in available_backends():
        got = get_backend(name).fft(a, axis=-1, workers=2)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12,
                                   err_msg=f"backend {name} diverged")


def test_scipy_backend_bit_identical_when_available(rng):
    if "scipy" not in available_backends():
        pytest.skip("scipy not installed")
    a = (rng.standard_normal((8, 128))
         + 1j * rng.standard_normal((8, 128)))
    np.testing.assert_array_equal(
        get_backend("scipy").fft(a), np.fft.fft(a, axis=-1)
    )
    np.testing.assert_array_equal(
        get_backend("scipy").fft(a, workers=2), np.fft.fft(a, axis=-1)
    )


def test_set_default_backend_reports_resolved_name():
    def broken_factory():
        raise ImportError("synthetic missing dependency")

    register_backend("broken-resolved", broken_factory)
    # The *requested* default is broken, so the resolved name is numpy —
    # exactly what the CLI echoes in the run record.
    assert set_default_backend("broken-resolved") == "numpy"


def test_set_default_backend_reaches_the_next_call(rng):
    # The engine resolves the default backend once per call, never
    # caching it: a switch mid-process reaches the next plan-less call and
    # the next call on an explicit plan.
    from repro.core import make_plan, sfft

    calls = []

    class Counting(FftBackend):
        name = "counting"

        def fft(self, a, *, axis=-1, workers=1):
            calls.append(a.shape)
            return np.fft.fft(a, axis=axis)

        def ifft(self, a, *, axis=-1, workers=1):
            return np.fft.ifft(a, axis=axis)

    register_backend("counting", Counting)
    n, k = 1 << 10, 4
    plan = make_plan(n, k, seed=2)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = [sfft(x, k, seed=2), sfft(x, plan=plan)]
    assert not calls
    set_default_backend("counting")
    got = []
    for kwargs in ({"k": k, "seed": 2}, {"plan": plan}):
        before = len(calls)
        got.append(sfft(x, **kwargs))
        assert len(calls) > before, kwargs
    set_default_backend(None)
    before = len(calls)
    sfft(x, k, seed=2)
    sfft(x, plan=plan)
    assert len(calls) == before
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.locations, b.locations)
        np.testing.assert_array_equal(a.values, b.values)


def _tagged(tag):
    class Tagged(FftBackend):
        name = tag

        def fft(self, a, *, axis=-1, workers=1):
            return np.fft.fft(a, axis=axis)

    return Tagged()
