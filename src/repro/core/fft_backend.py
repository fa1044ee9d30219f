"""Pluggable FFT backends — one dispatch point for every dense FFT we run.

The paper's step 3 is "call the vendor FFT on the buckets": cuFFT on the
GPU, FFTW on the CPU baseline.  This module is the CPU-side analog of that
vendor seam: a registry of named backends all exposing one pair of
operations — ``fft``/``ifft`` with ``(a, axis=-1, workers=1)`` over
``complex128`` — so the bucket FFT
(:func:`repro.core.subsampled.bucket_fft`), the execution workspace, the
sharded executor (:mod:`repro.core.executor`), and the simulated-FFTW
comparator (:mod:`repro.cpu.fftw`) all resolve their transform through the
same point and can be switched together.

Built-in backends:

* ``numpy`` — :func:`numpy.fft.fft`; always available, the default.
  ``workers`` is accepted and ignored (NumPy's pocketfft is
  single-threaded per call).
* ``scipy`` — :func:`scipy.fft.fft` with its ``workers=`` fan-out: batched
  2-D transforms split rows across threads inside one call.  Bit-identical
  to NumPy (both are pocketfft).
* ``pyfftw`` — FFTW via :mod:`pyfftw`'s NumPy-compatible interface with the
  interface plan cache enabled, so repeated shapes reuse FFTW plans
  (wisdom accumulates per process).  Optional: when the package is not
  installed the registry logs a warning and serves ``numpy`` instead.

Resolution order when no explicit name is given:

1. the process default set via :func:`set_default_backend` (the CLI's
   ``--fft-backend`` lands here);
2. the :data:`ENV_VAR` environment variable (``REPRO_FFT_BACKEND``);
3. ``"numpy"``.

An explicitly requested *unknown* name raises
:class:`~repro.errors.ParameterError`; a *known but unavailable* backend
(e.g. ``pyfftw`` without the package) falls back to ``numpy`` with a logged
warning — ambient configuration must never crash the library.  The same
forgiving rule applies to an unknown name arriving through the environment
variable.
"""

from __future__ import annotations

import logging
import os
import threading
from typing import Callable

import numpy as np

from ..errors import ParameterError

__all__ = [
    "ENV_VAR",
    "FftBackend",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "register_backend",
    "registered_backends",
    "set_default_backend",
]

#: Environment variable naming the process-wide default backend.
ENV_VAR = "REPRO_FFT_BACKEND"

_log = logging.getLogger("repro.core.fft_backend")


class FftBackend:
    """One FFT implementation behind the common dispatch surface.

    Subclasses implement :meth:`fft`; ``name`` identifies the backend in
    the registry, run records, and warnings.
    """

    name = "abstract"

    def fft(self, a: np.ndarray, *, axis: int = -1, workers: int = 1) -> np.ndarray:
        """Complex DFT of ``a`` along ``axis``.

        ``workers`` is the intra-call thread fan-out for backends that
        support it (scipy/pyfftw); backends without threading accept and
        ignore it so callers never need to special-case.
        """
        raise NotImplementedError

    def ifft(self, a: np.ndarray, *, axis: int = -1, workers: int = 1) -> np.ndarray:
        """Inverse complex DFT of ``a`` along ``axis`` (same contract)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FftBackend {self.name}>"


class _NumpyBackend(FftBackend):
    """:func:`numpy.fft.fft` — the always-available default."""

    name = "numpy"

    def fft(self, a: np.ndarray, *, axis: int = -1, workers: int = 1) -> np.ndarray:
        return np.fft.fft(a, axis=axis)

    def ifft(self, a: np.ndarray, *, axis: int = -1, workers: int = 1) -> np.ndarray:
        return np.fft.ifft(a, axis=axis)


class _ScipyBackend(FftBackend):
    """:func:`scipy.fft.fft` with ``workers=`` batch fan-out."""

    name = "scipy"

    def __init__(self) -> None:
        import scipy.fft as _sfft  # raises ImportError when absent

        self._fft = _sfft.fft
        self._ifft = _sfft.ifft

    def fft(self, a: np.ndarray, *, axis: int = -1, workers: int = 1) -> np.ndarray:
        return self._fft(a, axis=axis, workers=max(1, int(workers)))

    def ifft(self, a: np.ndarray, *, axis: int = -1, workers: int = 1) -> np.ndarray:
        return self._ifft(a, axis=axis, workers=max(1, int(workers)))


class _PyfftwBackend(FftBackend):
    """FFTW via :mod:`pyfftw` with the interface plan cache (wisdom) on."""

    name = "pyfftw"

    def __init__(self) -> None:
        import pyfftw  # raises ImportError when absent
        import pyfftw.interfaces.numpy_fft as _fftw_fft

        # The interface cache keeps FFTW plans alive between calls, so the
        # first transform of a shape pays planning and the rest reuse it —
        # the same wisdom economics as our own SfftPlan cache.
        pyfftw.interfaces.cache.enable()
        pyfftw.interfaces.cache.set_keepalive_time(60.0)
        self._fft = _fftw_fft.fft
        self._ifft = _fftw_fft.ifft

    def fft(self, a: np.ndarray, *, axis: int = -1, workers: int = 1) -> np.ndarray:
        return self._fft(a, axis=axis, threads=max(1, int(workers)))

    def ifft(self, a: np.ndarray, *, axis: int = -1, workers: int = 1) -> np.ndarray:
        return self._ifft(a, axis=axis, threads=max(1, int(workers)))


_lock = threading.Lock()
_factories: dict[str, Callable[[], FftBackend]] = {
    "numpy": _NumpyBackend,
    "scipy": _ScipyBackend,
    "pyfftw": _PyfftwBackend,
}
_instances: dict[str, FftBackend] = {}
_default_name: str | None = None


def register_backend(
    name: str, factory: Callable[[], FftBackend], *, replace: bool = False
) -> None:
    """Register a backend factory under ``name``.

    ``factory`` is called lazily on first :func:`get_backend` resolution;
    it may raise ``ImportError`` to signal a missing optional dependency
    (the registry then falls back to ``numpy``).  Re-registering an
    existing name raises :class:`~repro.errors.ParameterError` unless
    ``replace=True`` (tests swap in instrumented backends that way).
    """
    if not name or not isinstance(name, str):
        raise ParameterError(f"backend name must be a non-empty string, got {name!r}")
    with _lock:
        if name in _factories and not replace:
            raise ParameterError(
                f"FFT backend {name!r} is already registered "
                f"(pass replace=True to override)"
            )
        _factories[name] = factory
        _instances.pop(name, None)


def registered_backends() -> list[str]:
    """Every registered backend name (installable or not), sorted."""
    with _lock:
        return sorted(_factories)


def available_backends() -> list[str]:
    """Registered backends whose dependencies import on this machine."""
    names = []
    for name in registered_backends():
        if _instantiate(name) is not None:
            names.append(name)
    return names


def _instantiate(name: str) -> FftBackend | None:
    """Backend instance for a *registered* name, or ``None`` if unavailable."""
    with _lock:
        inst = _instances.get(name)
        factory = _factories.get(name)
    if inst is not None:
        return inst
    if factory is None:
        return None
    try:
        inst = factory()
    except ImportError:
        return None
    with _lock:
        _instances.setdefault(name, inst)
        return _instances[name]


def set_default_backend(name: str | None) -> str:
    """Set (or with ``None`` clear) the process-default backend.

    Returns the *resolved* backend name — the requested one, or ``numpy``
    when the requested backend's dependency is missing (with a logged
    warning), so callers can echo what will actually run.
    """
    global _default_name
    if name is None:
        _default_name = None
        return get_backend().name
    if name not in registered_backends():
        raise ParameterError(
            f"unknown FFT backend {name!r}; registered: "
            f"{', '.join(registered_backends())}"
        )
    _default_name = name
    return get_backend().name


def default_backend_name() -> str:
    """The name :func:`get_backend` would resolve with no arguments."""
    return get_backend().name


def get_backend(name: str | None = None) -> FftBackend:
    """Resolve a backend: explicit name > process default > env var > numpy.

    An explicit unknown ``name`` raises
    :class:`~repro.errors.ParameterError`.  A known-but-unavailable backend
    (missing optional dependency), or an unknown name arriving via the
    environment variable, logs a warning and resolves to ``numpy``.
    """
    explicit = name is not None
    if not explicit:
        name = _default_name or os.environ.get(ENV_VAR) or "numpy"
    # Fast path: a name resolved before (the registry only holds
    # instances of registered, importable backends).
    inst = _instances.get(name)
    if inst is not None:
        return inst
    if name not in registered_backends():
        if explicit:
            raise ParameterError(
                f"unknown FFT backend {name!r}; registered: "
                f"{', '.join(registered_backends())}"
            )
        _log.warning(
            "%s=%r is not a registered FFT backend (registered: %s); "
            "using numpy", ENV_VAR, name, ", ".join(registered_backends()),
        )
        name = "numpy"
    inst = _instantiate(name)
    if inst is None:
        _log.warning(
            "FFT backend %r is registered but unavailable "
            "(optional dependency not installed); falling back to numpy",
            name,
        )
        inst = _instantiate("numpy")
        assert inst is not None  # numpy is always importable here
    return inst
