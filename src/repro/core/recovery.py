"""Location recovery — reverse the hash, vote across loops (paper step 5).

Each selected bucket ``J`` of a loop covers the permuted spectral positions
within half a bucket width of its centre, ``p in [ceil((J-0.5)*n/B),
ceil((J+0.5)*n/B))``.  Undoing the permutation (multiply by ``sigma^{-1}``)
turns those into candidate *original* frequencies; a frequency that is truly
large falls in a selected bucket of (almost) every loop, while noise
candidates repeat rarely.  Keeping candidates with at least
``vote_threshold`` votes across the ``L`` loops is the paper's
``I' = { i : s_i > L/2 }``.

The GPU kernel (Algorithm 4) does this with one thread per selected bucket
and ``atomicAdd`` on a dense length-``n`` score array.  A CPU copy of that
design pays ``Theta(n)`` per signal just to zero and scan the scores, and
its scatter-add misses cache on every vote.  Here votes are counted by
sorting instead: the bucket ranges of one loop tile ``Z_n`` and
``sigma^{-1}`` is a bijection, so distinct buckets yield distinct
candidates and each loop votes at most once per frequency.  Concatenating
one signal's ``L`` candidate blocks and sorting them once turns every
frequency's votes into a run of equal keys: the run start is the hit, the
run length its vote count.  The work is ``L * select_count * n/B`` keys —
the term the sFFT analyses price voting at — with no length-``n`` array.

Keys use masked unsigned arithmetic: ``n`` is a power of two, so ``n``
divides ``2^32`` whenever it fits in 32 bits, wraparound is harmless, and
``& (n-1)`` replaces the ``%`` reduction.
"""

from __future__ import annotations

import numpy as np

from ..analysis.staticcheck.contracts import shape_contract
from ..errors import ParameterError
from .permutation import Permutation

__all__ = [
    "candidate_frequencies",
    "recover_locations",
    "recover_locations_stack",
]


def _key_dtype(n: int, B: int) -> type:
    """Candidate-key dtype for size ``n``; validates the ``(n, B)`` geometry."""
    if n < 1 or n & (n - 1):
        raise ParameterError(f"n={n} must be a power of two")
    if B < 1 or n % B != 0:
        raise ParameterError(f"B={B} must divide n={n}")
    return np.uint32 if n <= 1 << 32 else np.uint64


def _buckets(selected: np.ndarray, B: int) -> np.ndarray:
    """One loop's selected bucket indices as validated 1-D int64."""
    J = np.asarray(selected, dtype=np.int64)
    if J.ndim != 1:
        raise ParameterError(f"selected buckets must be 1-D, got shape {J.shape}")
    if J.size and (J.min() < 0 or J.max() >= B):
        raise ParameterError("bucket indices out of range")
    return J


def _candidate_keys(
    J: np.ndarray, sigma_inv: np.ndarray, n: int, B: int
) -> np.ndarray:
    """``(len(J), n/B)`` candidate frequencies of buckets ``J``.

    ``sigma_inv`` holds one inverse stride per bucket and sets the key
    dtype.  Mirrors Algorithm 4's ``low``/``high`` region and
    ``loc = (low + j) * a % n`` walk in closed form:
    ``ceil((J - 0.5) * n/B) == J*n/B - n/(2B)`` exactly, since ``n/B`` is a
    power of two.
    """
    dtype = sigma_inv.dtype.type
    n_div_b = n // B
    low = (J * n_div_b - n_div_b // 2).astype(dtype)
    keys = low[:, None] + np.arange(n_div_b, dtype=dtype)
    keys *= sigma_inv[:, None]
    keys &= dtype(n - 1)
    return keys


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Boolean mask of the first element of each run in sorted 1-D ``a``."""
    starts = np.empty(a.size, dtype=bool)
    starts[:1] = True
    np.not_equal(a[1:], a[:-1], out=starts[1:])
    return starts


def _vote(
    selected_per_loop: list[np.ndarray],
    sigma_inv: np.ndarray,
    n: int,
    B: int,
    threshold: int,
    mask: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sort-count voting for one signal: ``(hits, votes)``, both ``int64``.

    ``sigma_inv[r]`` is loop ``r``'s inverse stride.  Duplicate bucket
    indices within a loop vote once: the ``(loop, bucket)`` pairs are
    sorted and made distinct before any candidate is generated.
    """
    empty = np.empty(0, dtype=np.int64)
    loops = [_buckets(sel, B) for sel in selected_per_loop]
    sizes = [J.size for J in loops]
    pairs = np.sort(
        np.repeat(np.arange(len(loops)) * B, sizes) + np.concatenate(loops)
    )
    pairs = pairs[_run_starts(pairs)]
    keys = _candidate_keys(pairs % B, sigma_inv[pairs // B], n, B).ravel()
    if mask is not None:
        keys = keys[mask[keys % mask.size]]
    if keys.size < threshold:
        return empty, empty
    keys.sort()
    # A run of c >= threshold equal keys starting at i has keys[j] ==
    # keys[j + threshold - 1] for exactly its first c - threshold + 1
    # positions j, so only the (few) hits are ever counted.
    reach = threshold - 1
    vals = keys[np.flatnonzero(keys[reach:] == keys[:keys.size - reach])]
    if vals.size == 0:
        return empty, empty
    first = np.flatnonzero(_run_starts(vals))
    votes = np.diff(np.append(first, vals.size)) + reach
    return vals[first].astype(np.int64), votes.astype(np.int64)


def _loop_strides(
    permutations: list[Permutation], B: int, vote_threshold: int
) -> tuple[int, np.ndarray]:
    """Validate the shared voting inputs; ``(n, sigma_inv per loop)``."""
    if not permutations:
        raise ParameterError("at least one loop is required")
    if vote_threshold < 1:
        raise ParameterError(f"threshold must be >= 1, got {vote_threshold}")
    n = permutations[0].n
    sigma_inv = np.array([p.sigma_inv for p in permutations],
                         dtype=_key_dtype(n, B))
    return n, sigma_inv


@shape_contract("selected_buckets:*, perm:* -> *", dtype="int64")
def candidate_frequencies(
    selected_buckets: np.ndarray, perm: Permutation, B: int
) -> np.ndarray:
    """Original-domain candidate frequencies for the selected buckets.

    Returns a flat int64 array of ``len(selected) * (n//B)`` candidates,
    bucket by bucket.  Distinct buckets give distinct candidates (their
    ranges tile ``Z_n``); a repeated bucket repeats its block.
    """
    n = perm.n
    dtype = _key_dtype(n, B)
    J = _buckets(selected_buckets, B)
    sigma_inv = np.full(J.size, perm.sigma_inv, dtype=dtype)
    return _candidate_keys(J, sigma_inv, n, B).ravel().astype(np.int64)


def recover_locations(
    selected_per_loop: list[np.ndarray],
    permutations: list[Permutation],
    B: int,
    vote_threshold: int,
    *,
    residue_filter: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run voting over all loops; return ``(hit_frequencies, their_votes)``.

    Hits are ascending ``int64`` frequencies with at least
    ``vote_threshold`` votes; votes are ``int64`` counts aligned with them.
    ``residue_filter`` is the optional sFFT-2.0 Comb screen (see
    :mod:`repro.core.comb`): a boolean mask of length ``W`` — candidates
    whose residue ``f mod W`` is not approved never enter the vote.
    """
    if len(selected_per_loop) != len(permutations):
        raise ParameterError("one selected-bucket set per permutation required")
    n, sigma_inv = _loop_strides(permutations, B, vote_threshold)
    mask = None
    if residue_filter is not None:
        mask = np.asarray(residue_filter, dtype=bool)
        if mask.ndim != 1 or mask.size < 1:
            raise ParameterError("residue_filter must be a 1-D boolean mask")
    return _vote(selected_per_loop, sigma_inv, n, B, vote_threshold, mask)


def recover_locations_stack(
    selected: list[list[np.ndarray]],
    permutations: list[Permutation],
    B: int,
    vote_threshold: int,
    *,
    residue_filters: np.ndarray | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Voting for a whole signal stack — the batched engine's step 5.

    ``selected[s][r]`` holds signal ``s``'s selected buckets in loop ``r``
    (the loops share one permutation schedule — that is what "one plan"
    means).  Each signal votes with its own sort: one signal's keys stay
    cache-sized, where one sort over the whole stack would not.

    ``residue_filters`` is the optional per-signal Comb screen, one boolean
    mask row per signal (masks are data-dependent, so they cannot be shared
    across the stack).  Returns per-signal ``(hits, votes)`` lists matching
    :func:`recover_locations` signal for signal.
    """
    S = len(selected)
    if S < 1:
        raise ParameterError("at least one signal is required")
    n, sigma_inv = _loop_strides(permutations, B, vote_threshold)
    for rows in selected:
        if len(rows) != len(permutations):
            raise ParameterError(
                "one selected-bucket set per (signal, permutation) required"
            )
    masks = None
    if residue_filters is not None:
        masks = np.asarray(residue_filters, dtype=bool)
        if masks.ndim != 2 or masks.shape[0] != S or masks.shape[1] < 1:
            raise ParameterError(
                f"residue_filters must be (S, W) boolean, got {masks.shape}"
            )
    hits, votes = [], []
    for s in range(S):
        h, v = _vote(selected[s], sigma_inv, n, B, vote_threshold,
                     None if masks is None else masks[s])
        hits.append(h)
        votes.append(v)
    return hits, votes
