"""Magnitude reconstruction — paper step 6 / GPU Algorithm 5.

For a recovered frequency ``f`` and loop ``r`` with permutation
``(sigma_r, tau_r)``:

* its permuted position is ``p = sigma_r * f mod n``;
* it hashed to the *nearest* bucket ``m = round(p / (n/B)) mod B`` with a
  signed offset ``o = p - m*(n/B)`` (``|o| <= n/(2B)``, inside the filter's
  flat passband by design);
* the frequency-domain bucket value satisfies
  ``Z_r[m] ≈ (1/n) * x_hat[f] * exp(2j*pi*tau_r*f/n) * G_hat[-o]``,

so each loop yields the unbiased estimate

    ``est_r = n * Z_r[m] / G_hat[(-o) mod n] * exp(-2j*pi*tau_r*f/n)``.

The final value is the coordinate-wise median (real and imaginary parts
separately — exactly the paper's step 6) over the ``L`` loops, which rejects
the occasional loop where ``f`` collided with another coefficient.

Two CPU choices keep this cheap on hit-heavy stacks (thousands of hits per
signal on noisy input):

* the phase ``exp(-2j*pi*tau_r*f/n)`` is reduced exactly in integers and
  read from two ``~sqrt(n)``-entry unit-root tables built per call (see
  :func:`_phase`), with no complex ``np.exp`` per ``(hit, loop)``; it is
  within a few ulps of the exactly reduced phase at every ``n <= 2^31``;
* the median is one sort per component (:func:`_sorted_median`), equal to
  ``np.median`` bit for bit, NaN rows included, so overflow still surfaces.
"""

from __future__ import annotations

import numpy as np

from ..analysis.staticcheck.contracts import shape_contract
from ..errors import ParameterError
from ..filters.base import FlatFilter
from .permutation import Permutation

__all__ = [
    "loop_estimates",
    "estimate_values",
    "estimate_values_stack",
    "componentwise_median",
    "clean_loop_counts",
    "median_reliable",
]


def _phase(freqs: np.ndarray, taus: np.ndarray, n: int) -> np.ndarray:
    """``exp(-2j*pi*tau*f/n)`` per (hit, loop), shape ``(F, L)``.

    The exponent is reduced exactly in integers, ``m = tau*f mod n``, and
    ``exp(-2j*pi*m/n)`` is the product of two table entries split at bit
    ``h``: ``hi[m >> h] * lo[m & (2^h - 1)]``.  Each table holds about
    ``sqrt(n)`` unit roots, so building them per call is cheaper than one
    complex ``np.exp`` per element, and the result is within a few ulps
    of the exactly reduced phase at every ``n``, where a float
    ``tau*f/n`` carries an argument error that grows with ``tau*f``.
    """
    m = freqs[:, None] * taus[None, :]
    m %= n
    h = n.bit_length() // 2
    lo = np.exp(-2j * np.pi * np.arange(1 << h) / n)
    hi = np.exp(-2j * np.pi * np.arange(0, n, 1 << h) / n)
    out = hi[m >> h]
    out *= lo[m & ((1 << h) - 1)]
    return out


@shape_contract("frequencies:(F,), bucket_rows:(L, B):complex128 -> (F, L)",
                dtype="complex128", bind={"B": "B"})
def loop_estimates(
    frequencies: np.ndarray,
    bucket_rows: np.ndarray,
    permutations: list[Permutation],
    filt: FlatFilter,
    B: int,
) -> np.ndarray:
    """Per-loop estimates, shape ``(len(frequencies), L)``.

    ``bucket_rows`` is the ``(L, B)`` array of frequency-domain buckets (the
    batched FFT output).  Vectorized over both hits and loops — the direct
    translation of Algorithm 5's per-``(tid, j)`` body.
    """
    freqs = np.asarray(frequencies, dtype=np.int64)
    rows = np.asarray(bucket_rows)
    if rows.ndim != 2 or rows.shape[1] != B:
        raise ParameterError(f"bucket_rows must be (L, B), got {rows.shape}")
    L = rows.shape[0]
    if len(permutations) != L:
        raise ParameterError(f"{len(permutations)} permutations for L={L} rows")
    n = filt.n
    if n > 1 << 31:
        raise ParameterError(f"n={n} exceeds 2^31: the int64 products "
                             "f*sigma and f*tau would overflow")
    n_div_b = n // B
    if freqs.size == 0:
        return np.empty((0, L), dtype=np.complex128)
    if np.any((freqs < 0) | (freqs >= n)):
        raise ParameterError("frequencies out of range")

    sigmas = np.array([p.sigma for p in permutations], dtype=np.int64)
    taus = np.array([p.tau for p in permutations], dtype=np.int64)

    # permuted position per (hit, loop); int64 is safe: f, sigma < n <= 2^31.
    # In place throughout, with the bits of ``n * z / g * phase``, so few
    # (F, L) temporaries are alive at once: this is the voting route's peak.
    p = freqs[:, None] * sigmas[None, :]
    p %= n
    c = p + n_div_b // 2
    c //= n_div_b          # nearest bucket centre, before wrapping
    p -= c * n_div_b       # signed offset o
    c %= B                 # hashed bucket
    z = rows[np.arange(L)[None, :], c]
    del c
    np.negative(p, out=p)
    p %= n
    g = filt.freq[p]
    del p
    z *= n
    z /= g
    del g
    z *= _phase(freqs, taus, n)
    return z


def clean_loop_counts(
    frequencies: np.ndarray,
    permutations: list[Permutation],
    n: int,
    B: int,
) -> np.ndarray:
    """How many loops estimate each frequency free of cross-contamination.

    A loop is *clean* for frequency ``f`` when no other frequency in
    ``frequencies`` permutes to within one bucket width ``n/B`` of ``f``'s
    bucket center.  Inside that window a neighbor either hashes to the
    same bucket (circular distance ``<= n/(2B)``) or sits in the filter's
    transition band, where ``G_hat`` has decayed from the flat passband
    but not yet to the stop-band floor — both bias that loop's estimate
    for ``f`` far beyond the design tolerance.

    The returned counts ground a deterministic reliability predicate for
    the componentwise median (see :func:`median_reliable`): the loop
    schedule is fixed at plan time, so whether a given support is
    vulnerable is a pure function of ``(locations, permutations, n, B)``
    — no randomness at execution time.
    """
    freqs = np.asarray(frequencies, dtype=np.int64)
    L = len(permutations)
    if freqs.size == 0:
        return np.empty(0, dtype=np.int64)
    if np.any((freqs < 0) | (freqs >= n)):
        raise ParameterError("frequencies out of range")
    w = n // B
    sigmas = np.array([p.sigma for p in permutations], dtype=np.int64)
    p = (freqs[:, None] * sigmas[None, :]) % n  # (F, L)
    centers = (((p + w // 2) // w) * w) % n
    # Circular distance of every frequency's permuted position from every
    # *other* frequency's bucket center, per loop: (F_center, F_other, L).
    d = (p[None, :, :] - centers[:, None, :]) % n
    d = np.minimum(d, n - d)
    near = d < w
    idx = np.arange(freqs.size)
    near[idx, idx, :] = False  # a frequency never contaminates itself
    dirty = near.any(axis=1)  # (F, L)
    return np.asarray(L - dirty.sum(axis=1), dtype=np.int64)


def median_reliable(
    frequencies: np.ndarray,
    permutations: list[Permutation],
    n: int,
    B: int,
) -> np.ndarray:
    """Whether the median estimate of each frequency is collision-proof.

    ``True`` where a strict majority of loops are clean (see
    :func:`clean_loop_counts`): the componentwise median of ``L`` loop
    estimates then falls on or between clean samples in each component,
    so it inherits the design accuracy.  Where this returns ``False`` the
    median can be dragged by contaminated loops — the documented
    probabilistic failure mode of the paper's step 6, not an estimator
    bug — and only a loose accuracy bound holds.
    """
    counts = clean_loop_counts(frequencies, permutations, n, B)
    return counts > len(permutations) // 2


def _sorted_median(values: np.ndarray) -> np.ndarray:
    """``np.median(values, axis=-1)`` of a real array, by one sort.

    The middle element for odd ``L``, the mean of the two middle ones for
    even ``L``, computed as ``np.median`` does, so the bits match.  Sorting
    puts NaNs last, so a row holding any NaN is set to NaN as
    ``np.median`` returns it.
    """
    s = np.sort(values, axis=-1)
    mid = s.shape[-1] // 2
    med = s[..., mid] if s.shape[-1] % 2 else (s[..., mid - 1] + s[..., mid]) / 2
    return np.where(np.isnan(s[..., -1]), np.nan, med)


def componentwise_median(estimates: np.ndarray) -> np.ndarray:
    """Median of real and imaginary parts separately along the last axis."""
    est = np.asarray(estimates)
    if est.size == 0:
        return np.empty(est.shape[:-1], dtype=np.complex128)
    return _sorted_median(est.real) + 1j * _sorted_median(est.imag)


@shape_contract("frequencies:(F,), bucket_rows:(L, B):complex128 -> (F,)",
                dtype="complex128", bind={"B": "B"})
def estimate_values(
    frequencies: np.ndarray,
    bucket_rows: np.ndarray,
    permutations: list[Permutation],
    filt: FlatFilter,
    B: int,
) -> np.ndarray:
    """Final coefficient estimates for ``frequencies`` (median over loops)."""
    return componentwise_median(
        loop_estimates(frequencies, bucket_rows, permutations, filt, B)
    )


@shape_contract("hits_per_signal:*, bucket_rows_stack:(S, L, B):complex128"
                " -> *",
                bind={"S": "len(hits_per_signal)", "B": "B"})
def estimate_values_stack(
    hits_per_signal: list[np.ndarray],
    bucket_rows_stack: np.ndarray,
    permutations: list[Permutation],
    filt: FlatFilter,
    B: int,
) -> list[np.ndarray]:
    """Step 6 for a whole signal stack: :func:`estimate_values` per signal.

    ``bucket_rows_stack`` is the ``(S, L, B)`` frequency-domain bucket tensor
    of the pipeline engine; the result holds one value array per signal.
    """
    stack = np.asarray(bucket_rows_stack)
    if stack.ndim != 3:
        raise ParameterError(
            f"bucket_rows_stack must be (S, L, B), got {stack.shape}"
        )
    if len(hits_per_signal) != stack.shape[0]:
        raise ParameterError(
            f"{len(hits_per_signal)} hit sets for a stack of "
            f"{stack.shape[0]} signals"
        )
    return [
        estimate_values(hits, rows, permutations, filt, B)
        for hits, rows in zip(hits_per_signal, stack)
    ]
