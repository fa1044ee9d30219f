"""Flat-window filter container.

A *flat window* is the signal-processing heart of sFFT: a filter ``G`` whose
time-domain support is a short ``w ≪ n`` taps while its frequency response is
approximately 1 over a "pass region" of about one bucket width ``n/B`` and
approximately 0 (below a design tolerance ``delta``) outside roughly twice
that region.  Multiplying the permuted signal by ``G`` and folding into ``B``
buckets therefore bins each spectral coefficient into one bucket with
negligible leakage — in only ``O(w)`` time.

The container keeps the time taps and the *exact* ``n``-point frequency
response of those (truncated) taps, so downstream estimation — which divides
a bucket value by ``G_hat`` at the coefficient's offset — is unbiased by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import FilterDesignError

__all__ = ["FlatFilter"]


@dataclass(frozen=True)
class FlatFilter:
    """A flat-window filter for binning spectra into ``B`` buckets.

    Attributes
    ----------
    n:
        Signal size the filter was designed for.
    time:
        Complex time-domain taps, length ``w`` (possibly zero-padded at the
        tail so ``w`` is a multiple of ``B`` — see
        :func:`~repro.filters.flat_window.make_flat_window`).  The binning
        step computes ``y[i] = x[(sigma*i + tau) % n] * time[i]``.
    freq:
        Exact length-``n`` DFT of the taps placed at positions ``0..w-1`` of
        a length-``n`` array.  ``freq[d]`` is the response a coefficient
        picks up when it sits ``d`` bins *below* the sampled bucket center
        (estimation divides by ``freq[(-offset) % n]``).
    window_name:
        Which base window built this filter (``"gaussian"`` or
        ``"dolph-chebyshev"``).
    lobefrac:
        Design half-width of the base window's spectral main lobe as a
        fraction of ``n``.
    tolerance:
        Design stop-band leakage level ``delta``.
    box_width:
        Width (in bins) of the frequency-domain boxcar that flattens the
        passband.
    """

    n: int
    time: np.ndarray
    freq: np.ndarray
    window_name: str
    lobefrac: float
    tolerance: float
    box_width: int

    def __post_init__(self) -> None:
        if self.time.ndim != 1 or self.freq.ndim != 1:
            raise FilterDesignError("filter arrays must be 1-D")
        if self.freq.size != self.n:
            raise FilterDesignError(
                f"freq length {self.freq.size} != n={self.n}"
            )
        if self.time.size > self.n:
            raise FilterDesignError(
                f"filter support {self.time.size} exceeds signal size {self.n}"
            )

    @cached_property
    def _freq_abs(self) -> np.ndarray:
        """``|freq|``, built on first use: only the filter analysis reads
        it, and it is a length-``n`` array."""
        return np.abs(self.freq)

    @property
    def width(self) -> int:
        """Time-domain support ``w`` (number of taps, including padding)."""
        return self.time.size

    def response_at(self, offsets: np.ndarray) -> np.ndarray:
        """Frequency response at (possibly negative) bin offsets.

        ``offsets`` are reduced modulo ``n``; the return has the same shape.
        """
        idx = np.mod(np.asarray(offsets, dtype=np.int64), self.n)
        return self.freq[idx]

    def passband_halfwidth(self) -> int:
        """Half-width (bins) of the region where ``|freq|`` stays above 1/2.

        Measured from the actual response rather than the design spec, so
        tests can assert the construction met its contract.
        """
        half = self.n // 2
        mags = self._freq_abs
        # Walk outward from DC until the response first drops below 0.5.
        for d in range(1, half):
            if mags[d] < 0.5:
                return d - 1
        return half - 1

    def stopband_leakage(self, beyond: int) -> float:
        """Max ``|freq|`` at offsets with ``beyond <= |offset| <= n/2``."""
        if beyond >= self.n // 2:
            return 0.0
        mags = self._freq_abs
        hi = self.n - beyond
        return float(max(mags[beyond : self.n // 2 + 1].max(), mags[self.n // 2 : hi + 1].max()))
