"""Symbolic index-expression analyzer for affine store schedules.

The trace checker (:mod:`.races`) clears a kernel at the sizes it ran; it
cannot speak for other launch geometries.  For the index expressions GPU
kernels actually use — affine forms ``(a*tid + b) mod n`` — injectivity
has a closed form, so collision-freedom can be *proved* for every thread
count at once:

    ``t1 != t2`` collide  iff  ``a*(t1 - t2) ≡ 0 (mod n)``
                          iff  ``(t1 - t2)`` is a multiple of
                               ``n / gcd(a, n)``.

Hence ``(a*tid + b) mod n`` is injective over ``tid in [0, T)`` exactly
when ``T <= n // gcd(a, n)``.

The payoff is the paper's Algorithm 2: the loop-partition binner's store
schedule is ``buckets[tid]`` for ``tid in [0, B)`` — scale 1, and
``gcd(1, B) == 1`` for *every* ``B`` — so
:func:`prove_loop_partition_binner` certifies the kernel collision-free
for all bucket counts, all round counts, and all ``(n, sigma, tau)``
without tracing a single one.  A data-dependent store (the naive
histogram's ``buckets[key[tid]]``) has no affine form; :func:`fit_affine`
returns ``None`` on its trace and the prover correctly refuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ...errors import ParameterError

__all__ = [
    "AffineIndex",
    "Proof",
    "binner_store_index",
    "binner_load_index",
    "fit_affine",
    "prove_injective",
    "prove_loop_partition_binner",
]


@dataclass(frozen=True)
class AffineIndex:
    """The index expression ``(scale * tid + offset) % modulus``."""

    scale: int
    offset: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ParameterError(f"modulus must be >= 1, got {self.modulus}")

    def evaluate(self, tids: np.ndarray) -> np.ndarray:
        """Concrete indices for the given thread ids."""
        tids = np.asarray(tids, dtype=np.int64)
        return (self.scale * tids + self.offset) % self.modulus


@dataclass(frozen=True)
class Proof:
    """Outcome of a symbolic collision-freedom check.

    ``universal`` distinguishes a theorem over all launch geometries from
    a fact about one concrete ``(expression, threads)`` pair; ``reason``
    is the one-line derivation shown in lint output and docs.
    """

    collision_free: bool
    universal: bool
    reason: str


def prove_injective(index: AffineIndex, threads: int) -> Proof:
    """Decide injectivity of an affine index over ``tid in [0, threads)``.

    Exact, not sampled: uses the gcd criterion in the module docstring.
    """
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    # gcd(0, m) == m, so a scale ≡ 0 (mod m) degenerates to limit 1:
    # every thread hits `offset`, which is injective only solo.
    g = math.gcd(index.scale % index.modulus, index.modulus)
    limit = index.modulus // g
    if threads <= limit:
        return Proof(
            collision_free=True, universal=False,
            reason=(
                f"({index.scale}*tid + {index.offset}) mod {index.modulus} "
                f"is injective for tid < {threads}: threads <= "
                f"modulus/gcd(scale, modulus) = {limit}"
            ),
        )
    collider = limit  # tid=0 and tid=limit map to the same element
    return Proof(
        collision_free=False, universal=False,
        reason=(
            f"threads 0 and {collider} collide: "
            f"{index.scale}*{collider} ≡ 0 (mod {index.modulus})"
        ),
    )


def binner_store_index(B: int) -> AffineIndex:
    """Algorithm 2's store schedule: thread ``tid`` writes ``buckets[tid]``."""
    return AffineIndex(scale=1, offset=0, modulus=B)


def binner_load_index(
    *, B: int, j: int, sigma: int, tau: int, n: int
) -> AffineIndex:
    """Round ``j``'s signal-gather schedule: ``((tid + B*j)*sigma + tau) % n``.

    Loads never race, but per-round injectivity (``gcd(sigma, n) == 1``)
    is what keeps bucket contents from double-counting any signal sample —
    the same coprimality the permutation already guarantees.
    """
    return AffineIndex(scale=sigma, offset=(B * j * sigma + tau) % n,
                       modulus=n)


def prove_loop_partition_binner(B: int | None = None) -> Proof:
    """The Algorithm-2 theorem: the binner's stores are collision-free.

    With ``B=None`` the proof is *universal* — it holds for every bucket
    count, because the store schedule ``buckets[tid]`` has scale 1 and
    ``gcd(1, B) == 1`` identically, making the injectivity bound
    ``B // gcd(1, B) == B`` exactly the thread count.  No atomics, no
    per-thread sub-histograms: the property Section IV-C's loop partition
    was designed to buy.  A concrete ``B`` re-derives the same bound
    through :func:`prove_injective` (used by tests to tie the theorem to
    traced runs).
    """
    if B is not None:
        proof = prove_injective(binner_store_index(B), threads=B)
        if not proof.collision_free:  # unreachable; kept as a hard check
            return proof
        return Proof(
            collision_free=True, universal=False,
            reason=f"loop-partition binner, B={B}: {proof.reason}",
        )
    return Proof(
        collision_free=True, universal=True,
        reason=(
            "loop-partition binner stores are buckets[tid] for tid in "
            "[0, B): scale 1 gives gcd(1, B) == 1 for every B, so the "
            "injectivity bound B//gcd == B covers all B threads — "
            "collision-free for all bucket counts without atomics"
        ),
    )


def fit_affine(
    tids: np.ndarray, indices: np.ndarray, modulus: int
) -> AffineIndex | None:
    """Fit ``(a*tid + b) % modulus`` to a traced store schedule, or ``None``.

    The bridge from trace to theorem: fit the affine form at one traced
    size, then :func:`prove_injective` generalizes over thread counts.  A
    data-dependent schedule (naive histogram) fails the verification pass
    and yields ``None`` — precisely the kernels the symbolic engine must
    refuse to certify.
    """
    tids = np.asarray(tids, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if tids.shape != indices.shape or tids.ndim != 1:
        raise ParameterError("tids and indices must be matching 1-D arrays")
    if tids.size == 0:
        return None
    order = np.argsort(tids)
    tids, indices = tids[order], indices[order] % modulus
    if np.unique(tids).size != tids.size:
        # A thread storing to two different elements has no single (a, b).
        first = tids[np.concatenate(([False], np.diff(tids) == 0))]
        dup = int(first[0])
        mask = tids == dup
        if np.unique(indices[mask]).size > 1:
            return None
        keep = np.concatenate(([True], np.diff(tids) != 0))
        tids, indices = tids[keep], indices[keep]
    if tids.size == 1:
        candidate = AffineIndex(0, int(indices[0]), modulus)
    else:
        dt = int(tids[1] - tids[0])
        di = int((indices[1] - indices[0]) % modulus)
        # Solve a*dt ≡ di (mod modulus) by trial over the dt divisors —
        # dt is 1 for contiguous thread ids, the common case.
        scale = None
        for a in range(modulus):
            if (a * dt) % modulus == di:
                scale = a
                break
        if scale is None:
            return None
        offset = int((indices[0] - scale * tids[0]) % modulus)
        candidate = AffineIndex(scale, offset, modulus)
    if np.array_equal(candidate.evaluate(tids), indices):
        return candidate
    return None
