"""Flat-window construction (paper Section III, step 2).

A base window (Gaussian or Dolph-Chebyshev) concentrates energy both in time
(support ``w``) and in frequency (main lobe of half-width ``lobefrac * n``
bins, side lobes below ``delta``).  Convolving its *spectrum* with a width-
``b`` boxcar turns the single lobe into a flat plateau — and by the
convolution theorem that costs nothing in time-domain support, because it is
just a pointwise multiplication of the taps by the Dirichlet kernel

    ``D_b(t) = sin(pi*b*t/n) / sin(pi*t/n)``.

The defaults tie the geometry to the bucket width ``n/B``:

* boxcar half-width ``b2 = 0.75 * n/B``  (box width ``b = 2*b2 + 1``),
* window main lobe ``lobefrac = 0.25 / B``  (i.e. ``0.25 * n/B`` bins),

so the response is ~1 for all offsets a coefficient can have inside its own
bucket (``|o| <= n/(2B) = b2 - lobe``) and ~0 beyond one bucket spacing
(``|o| >= n/B = b2 + lobe``).  Estimation divides bucket values by the
*measured* response, so the plateau only needs to stay well away from zero,
not be exactly 1.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.fft_backend import get_backend
from ..errors import FilterDesignError
from .base import FlatFilter
from .dolph_chebyshev import chebyshev_support, dolph_chebyshev_window
from .gaussian import gaussian_support, gaussian_window

__all__ = ["make_flat_window", "dirichlet_kernel"]

_WINDOWS = ("dolph-chebyshev", "gaussian")


def dirichlet_kernel(t: np.ndarray, b: int, n: int) -> np.ndarray:
    """Dirichlet kernel ``sum_{d=-b2}^{b2} exp(2j*pi*d*t/n)`` for odd ``b``.

    Evaluates the closed form ``sin(pi*b*t/n)/sin(pi*t/n)`` with the
    removable singularities at multiples of ``n`` filled in with ``b``.
    Real-valued because the boxcar is symmetric.
    """
    if b % 2 == 0 or b < 1:
        raise FilterDesignError(f"boxcar width must be odd and >= 1, got {b}")
    t = np.asarray(t, dtype=np.float64)
    phase = np.pi * t / n
    denom = np.sin(phase)
    out = np.full(t.shape, float(b))
    ok = np.abs(denom) > 1e-12
    out[ok] = np.sin(b * phase[ok]) / denom[ok]
    return out


def make_flat_window(
    n: int,
    B: int,
    *,
    window: str = "dolph-chebyshev",
    tolerance: float = 1e-8,
    lobefrac: float | None = None,
    box_halfwidth: int | None = None,
    pad_to_multiple: int | None = None,
    fft_backend: str | None = None,
) -> FlatFilter:
    """Build a :class:`FlatFilter` binning an ``n``-point spectrum into ``B`` buckets.

    Parameters
    ----------
    n:
        Signal size (positive; power of two not required here, but the sFFT
        planner only calls with powers of two).
    B:
        Number of buckets; ``2 <= B`` and ``B`` must divide ``n``.
    window:
        ``"dolph-chebyshev"`` (default, minimal support) or ``"gaussian"``.
    tolerance:
        Stop-band leakage target ``delta``.
    lobefrac:
        Main-lobe half-width as a fraction of ``n``; default ``0.25 / B``.
    box_halfwidth:
        Boxcar half-width in bins; default ``round(0.75 * n / B)``.
    pad_to_multiple:
        Zero-pad the taps so their count is a multiple of this (the GPU
        loop-partition kernel wants ``w`` divisible by ``B``).
    fft_backend:
        FFT backend the frequency response is computed through (``None``:
        the process default).

    Notes
    -----
    If the spec demands more taps than ``n``, the support is capped at ``n``
    (whole-signal filter); the effective main lobe then widens and the
    recorded ``lobefrac`` reflects the achieved value, not the request.
    """
    n = int(n)
    B = int(B)
    if n < 4:
        raise FilterDesignError(f"n must be >= 4, got {n}")
    if B < 2 or n % B != 0:
        raise FilterDesignError(f"B must be >= 2 and divide n; got B={B}, n={n}")
    if window not in _WINDOWS:
        raise FilterDesignError(f"unknown window {window!r}; choose from {_WINDOWS}")
    if not 0 < tolerance < 1:
        raise FilterDesignError(f"tolerance must be in (0, 1), got {tolerance}")

    n_div_b = n // B
    if lobefrac is None:
        lobefrac = 0.25 / B
    if not 0 < lobefrac < 0.5:
        raise FilterDesignError(f"lobefrac must be in (0, 0.5), got {lobefrac}")
    if box_halfwidth is None:
        box_halfwidth = max(1, round(0.75 * n_div_b))
    box_width = 2 * int(box_halfwidth) + 1

    if window == "gaussian":
        w = gaussian_support(lobefrac, tolerance)
    else:
        w = chebyshev_support(lobefrac, tolerance)
    if w > n:
        # Whole-signal filter: cap support and record the achieved lobe width.
        w = n if n % 2 == 1 else n - 1
        if window == "gaussian":
            lobefrac = 2.0 * math.log(1.0 / tolerance) / (math.pi * w)
        else:
            m = w - 1
            beta = math.cosh(math.acosh(1.0 / tolerance) / m)
            lobefrac = math.acos(min(1.0, 1.0 / beta)) / math.pi
    if w % 2 == 0:
        w += 1

    if window == "gaussian":
        base = gaussian_window(w, lobefrac, tolerance)
    else:
        base = dolph_chebyshev_window(w, tolerance)

    # Flatten the passband: multiply the centred taps by the Dirichlet kernel
    # (== boxcar convolution of the spectrum), normalizing the kernel peak.
    centre = (w - 1) // 2
    tc = np.arange(w, dtype=np.float64) - centre
    taps = base.astype(np.complex128) * (dirichlet_kernel(tc, box_width, n) / box_width)

    if pad_to_multiple is not None and pad_to_multiple > 0:
        target = -(-w // pad_to_multiple) * pad_to_multiple
        target = min(target, n - (n % pad_to_multiple or pad_to_multiple) + pad_to_multiple)
        if target > n:
            target -= pad_to_multiple
        if target >= w:
            taps = np.concatenate([taps, np.zeros(target - w, dtype=np.complex128)])

    # Exact frequency response of the (truncated, padded) taps: this is the
    # array estimation divides by, so it must match `taps` bit-for-bit.
    padded = np.zeros(n, dtype=np.complex128)
    padded[: taps.size] = taps
    freq = get_backend(fft_backend).fft(padded)
    peak = np.abs(freq).max()
    if peak <= 0:
        raise FilterDesignError("flat window has zero frequency response")
    taps = taps / peak
    freq = freq / peak

    return FlatFilter(
        n=n,
        time=taps,
        freq=freq,
        window_name=window,
        lobefrac=float(lobefrac),
        tolerance=float(tolerance),
        box_width=box_width,
    )
