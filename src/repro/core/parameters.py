"""sFFT parameter derivation (bucket counts, loop counts, filter spec).

The paper fixes the asymptotics — ``B = O(sqrt(n*k / log n))`` buckets,
``L = O(log n)`` location loops, vote threshold ``> L/2`` — and leaves the
constants to tuning.  :func:`derive_parameters` encodes defaults that give
exact recovery on well-separated inputs while keeping the per-loop work
(`w` filter taps + a ``B``-point FFT + ``k * n/B`` candidate votes) balanced,
mirroring the reference implementation's ``Bcst`` knob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ParameterError
from ..utils.modmath import ilog2, next_power_of_two
from ..utils.validation import check_positive_int, check_power_of_two

__all__ = ["SfftParameters", "derive_parameters"]


@dataclass(frozen=True)
class SfftParameters:
    """Fully resolved parameter set for one sparse transform.

    Attributes
    ----------
    n, k:
        Signal size (power of two) and target sparsity.
    B:
        Bucket count; a power of two dividing ``n``.
    loops:
        Number of inner (location+estimation) loops ``L``.
    vote_threshold:
        Minimum number of loops in which a candidate location must be
        selected — the paper keeps ``s_i > L/2``.
    select_count:
        Buckets kept by the cutoff per loop (``2k`` by default: one bucket
        can hold a collided pair, and noise occasionally promotes a bucket).
    loc_loops:
        Loops that participate in location voting (the reference
        implementation's location/estimation loop split: only the first
        ``loc_loops`` loops run cutoff + reverse-hash; *all* loops feed
        magnitude estimation).  ``None`` (default) votes in every loop —
        more robust, more recovery work.
    window:
        Base window name for the flat filter.
    tolerance:
        Filter stop-band leakage ``delta``.
    lobefrac:
        Filter main-lobe half-width as a fraction of ``n``.
    """

    n: int
    k: int
    B: int
    loops: int
    vote_threshold: int
    select_count: int
    window: str
    tolerance: float
    lobefrac: float
    loc_loops: int | None = None

    def __post_init__(self) -> None:
        check_power_of_two(self.n, "n")
        check_positive_int(self.k, "k")
        check_power_of_two(self.B, "B")
        if self.k >= self.n:
            raise ParameterError(f"k={self.k} must be < n={self.n}")
        if self.B < 2 or self.B > self.n // 2:
            raise ParameterError(f"B={self.B} must be in [2, n/2={self.n // 2}]")
        if self.n % self.B != 0:
            raise ParameterError(f"B={self.B} must divide n={self.n}")
        if self.loops < 1:
            raise ParameterError(f"loops must be >= 1, got {self.loops}")
        if not 1 <= self.vote_threshold <= self.loops:
            raise ParameterError(
                f"vote_threshold={self.vote_threshold} must be in [1, loops={self.loops}]"
            )
        if self.select_count < 1 or self.select_count > self.B:
            raise ParameterError(
                f"select_count={self.select_count} must be in [1, B={self.B}]"
            )
        if self.loc_loops is not None:
            if not 1 <= self.loc_loops <= self.loops:
                raise ParameterError(
                    f"loc_loops={self.loc_loops} must be in [1, loops={self.loops}]"
                )
            if self.vote_threshold > self.loc_loops:
                raise ParameterError(
                    f"vote_threshold={self.vote_threshold} exceeds "
                    f"loc_loops={self.loc_loops}"
                )

    @property
    def n_div_B(self) -> int:
        """Bucket width in frequency bins."""
        return self.n // self.B

    @property
    def voting_loops(self) -> int:
        """Loops that actually vote (``loc_loops`` or all of them)."""
        return self.loops if self.loc_loops is None else self.loc_loops

    def describe(self) -> str:
        """One-line human-readable summary (used by the harness logs)."""
        return (
            f"n=2^{ilog2(self.n)} k={self.k} B={self.B} loops={self.loops} "
            f"thresh={self.vote_threshold} select={self.select_count} "
            f"window={self.window} delta={self.tolerance:g}"
        )


#: Filter design profiles.  ``fast`` (the default) matches the reference
#: implementation's economics (support ~10*B taps, ~1e-6 leakage): exactly
#: sparse input is located by phase and its values solved against the
#: exact filter coupling (:mod:`repro.core.phase`), so a flatter filter buys
#: it nothing.  ``accurate`` buys ~1e-8 leakage for voted (noisy) input with
#: a wider filter (support ~25*B taps) and must be asked for.  A profile
#: sets both routes' filters: the phase plan
#: (:func:`~repro.core.plan.phase_parameters`) keeps its tolerance and its
#: lobe per bucket at ``B_phase`` buckets.
PROFILES = {
    "accurate": {"lobefrac_times_B": 0.25, "tolerance": 1e-8},
    "fast": {"lobefrac_times_B": 0.5, "tolerance": 1e-6},
}


def derive_parameters(
    n: int,
    k: int,
    *,
    bucket_constant: float = 2.0,
    loops: int | None = None,
    vote_threshold: int | None = None,
    select_count: int | None = None,
    loc_loops: int | None = None,
    window: str = "dolph-chebyshev",
    profile: str = "fast",
    tolerance: float | None = None,
    lobefrac: float | None = None,
    B: int | None = None,
) -> SfftParameters:
    """Derive a consistent :class:`SfftParameters` for an ``(n, k)`` problem.

    ``B`` targets ``bucket_constant * sqrt(n*k / log2 n)`` rounded to a power
    of two, clamped to ``[4k rounded up, n/2]`` so each loop has enough
    buckets to isolate coefficients, and never below 4.  ``profile`` picks
    the filter-design trade-off (see :data:`PROFILES`; the default is
    ``fast``, lobe 0.5/B and tolerance 1e-6); explicit
    ``tolerance`` / ``lobefrac`` override it.  Any field can be overridden
    explicitly; overrides are validated together.
    """
    n = check_power_of_two(n, "n")
    k = check_positive_int(k, "k")
    if k >= n:
        raise ParameterError(f"k={k} must be < n={n}")
    if profile not in PROFILES:
        raise ParameterError(
            f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"
        )

    if B is None:
        logn = max(1.0, math.log2(n))
        target = bucket_constant * math.sqrt(n * k / logn)
        B_val = next_power_of_two(max(4, int(round(target))))
        # Enough buckets that collisions are rare (>= ~4k), but at most n/2
        # so the bucket width n/B stays >= 2 bins.
        B_val = max(B_val, min(next_power_of_two(4 * k), n // 2))
        B_val = min(B_val, n // 2)
        B_val = max(B_val, 2)
    else:
        B_val = int(B)

    if loops is None:
        loops = max(4, min(10, round(math.log2(n) / 3) + 3))
    if vote_threshold is None:
        vote_threshold = (loc_loops if loc_loops is not None else loops) // 2 + 1
    if select_count is None:
        select_count = min(B_val, 2 * k)

    prof = PROFILES[profile]
    if tolerance is None:
        tolerance = prof["tolerance"]
    if lobefrac is None:
        lobefrac = prof["lobefrac_times_B"] / B_val

    return SfftParameters(
        n=n,
        k=k,
        B=B_val,
        loops=int(loops),
        vote_threshold=int(vote_threshold),
        select_count=int(select_count),
        window=window,
        tolerance=float(tolerance),
        lobefrac=float(lobefrac),
        loc_loops=loc_loops,
    )
