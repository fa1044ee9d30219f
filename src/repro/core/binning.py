"""Permutation + filtering + folding into buckets (paper steps 1-2).

Three formulations of the same computation, kept deliberately separate:

* :func:`bin_serial` — the paper's Algorithm 1, a literal serial loop with
  the ``index`` recurrence.  Reference semantics; used by tests only.
* :func:`bin_vectorized` — index mapping (Figure 3) plus a reshape-sum fold,
  one loop at a time.  The pipeline runs the same fold for all loops at
  once through :meth:`~repro.core.workspace.PlanWorkspace.bin_fused`.
* :func:`bin_loop_partition` — the paper's Algorithm 2: outer loop over the
  ``B`` buckets (one CUDA thread each), inner loop over ``w/B`` rounds.
  Collision-free by construction (within a round, bucket indices are the
  distinct ``0..B-1``), so no atomics and no per-thread sub-histograms.
  The NumPy realization iterates rounds and vectorizes across "threads",
  mirroring the kernel's access pattern round-for-round.  A test oracle
  and the model of the GPU kernel.

All three produce identical buckets:
``buckets[j] = sum_{i ≡ j (mod B)} x[(sigma*i + tau) % n] * filter[i]``.
The B-point FFT of those buckets equals the length-``n`` spectrum of the
filtered permuted signal subsampled at multiples of ``n/B`` (tested as the
"fold-subsample identity").
"""

from __future__ import annotations

import numpy as np

from ..analysis.staticcheck.contracts import shape_contract
from ..errors import ParameterError
from ..filters.base import FlatFilter
from .permutation import Permutation, permuted_indices

__all__ = ["bin_serial", "bin_vectorized", "bin_loop_partition"]


def _check_args(x: np.ndarray, filt: FlatFilter, B: int, perm: Permutation) -> None:
    if x.size != filt.n or x.size != perm.n:
        raise ParameterError(
            f"signal length {x.size} inconsistent with filter n={filt.n} / perm n={perm.n}"
        )
    if B < 1 or filt.n % B != 0:
        raise ParameterError(f"B={B} must divide n={filt.n}")


@shape_contract("x:(n,) -> (B,)", dtype="complex128",
                bind={"n": "perm.n", "B": "B"})
def bin_serial(
    x: np.ndarray, filt: FlatFilter, B: int, perm: Permutation
) -> np.ndarray:
    """Algorithm 1 verbatim: serial loop with the loop-carried ``index``.

    O(w) Python-level iterations — use only for small test cases.
    """
    _check_args(x, filt, B, perm)
    n = x.size
    buckets = np.zeros(B, dtype=np.complex128)
    index = perm.tau % n
    for i in range(filt.width):
        buckets[i % B] += x[index] * filt.time[i]
        index = (index + perm.sigma) % n
    return buckets


@shape_contract("x:(n,) -> (B,)", dtype="complex128",
                bind={"n": "perm.n", "B": "B"})
def bin_vectorized(
    x: np.ndarray, filt: FlatFilter, B: int, perm: Permutation
) -> np.ndarray:
    """Index-mapped gather + reshape-sum fold.  Production CPU path.

    ``w`` need not be a multiple of ``B``, but plans always pad taps to one
    (``pad_to_multiple=B``), so the production case folds the gather output
    in place — the zero-tail copy only runs for ad-hoc unpadded filters.
    """
    _check_args(x, filt, B, perm)
    w = filt.width
    y = x[permuted_indices(perm, w)]
    y *= filt.time
    rounds = -(-w // B)
    if rounds * B != w:
        y = np.concatenate([y, np.zeros(rounds * B - w, dtype=np.complex128)])
    return y.reshape(rounds, B).sum(axis=0)


@shape_contract("x:(n,) -> (B,)", dtype="complex128",
                bind={"n": "perm.n", "B": "B"})
def bin_loop_partition(
    x: np.ndarray, filt: FlatFilter, B: int, perm: Permutation
) -> np.ndarray:
    """Algorithm 2 structure: one "thread" per bucket, ``w/B`` rounds each.

    Follows the kernel loop shape exactly (round-major accumulation into a
    per-thread register ``myBucket``); each round ``j`` reads signal indices
    ``((tid + B*j)*sigma + tau) % n`` for all ``tid`` — the strided pattern
    the asynchronous layout transformation later coalesces.
    """
    _check_args(x, filt, B, perm)
    w = filt.width
    rounds = -(-w // B)
    tid = np.arange(B, dtype=np.int64)
    my_bucket = np.zeros(B, dtype=np.complex128)
    if rounds * B == w:
        # Plans pad taps to a multiple of B: every round is full, so the
        # whole tap schedule is one reshape — no per-round mask or zeros.
        tap_rounds = filt.time.reshape(rounds, B)
        for j in range(rounds):
            idx = ((tid + B * j) * perm.sigma + perm.tau) % perm.n
            my_bucket += x[idx] * tap_rounds[j]
        return my_bucket
    for j in range(rounds):
        off = tid + B * j
        live = off < w
        idx = (off * perm.sigma + perm.tau) % perm.n
        taps = np.zeros(B, dtype=np.complex128)
        taps[live] = filt.time[off[live]]
        my_bucket += x[idx] * taps
    return my_bucket
