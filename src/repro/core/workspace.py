"""Per-plan execution workspaces — derive once, transform many times.

A :class:`~repro.core.plan.SfftPlan` holds everything that is *logically*
reusable across executions (filter, permutation schedule); this module holds
everything that is *physically* reusable: the derived index and tap
matrices the hot path would otherwise rebuild per call.

For one plan the workspace precomputes

* the ``(L, w)`` **gather-index matrix** — each row is the permuted signal
  index stream ``(i*sigma_r + tau_r) mod n`` of loop ``r``, the closed-form
  index mapping of the paper's Figure 3 materialized for all loops at once;
* the **padded tap matrix** — the filter taps zero-extended to ``rounds*B``
  and reshaped ``(rounds, B)``, the exact layout Algorithm 2's loop-partition
  kernel reads round by round.

With those in place, :meth:`PlanWorkspace.bin_fused` performs the paper's
steps 1-2 for *all* ``L`` loops as one fancy-indexed gather plus one
reshape-sum — no Python-level loop over loops — and
:meth:`PlanWorkspace.bin_fused_stack` applies it to each row of an
``(S, n)`` stack for the pipeline engine (:mod:`repro.core.batch`).

This is the CPU analog of ``cusim``'s
:class:`~repro.cusim.memory_pool.DeviceMemoryPool`: device codes keep
per-plan index arrays resident between launches for the same reason.

Workspaces are cached on their plan (see
:meth:`repro.core.plan.SfftPlan.workspace`) and hold no mutable state on
the hot path: the derived arrays are written once, and every call
allocates its own output.  Any number of threads may therefore execute
one cached plan — including the plan cache's shared plans — concurrently.
:meth:`PlanWorkspace.clone` exists to bind a different FFT backend while
sharing the derived arrays.  :meth:`SfftPlan.reseeded` returns a *new*
plan object, so a reseeded schedule never sees a stale gather matrix.

Taking the :data:`GATHER_ELEMENT_CAP` fallback (regenerating gather rows on
the fly instead of materializing the index matrix) is visible as the
``sfft.workspace.gather_cap_fallback`` counter in the global metrics
registry — the path trades speed for footprint and should never engage
silently.
"""

from __future__ import annotations

import numpy as np

from ..analysis.staticcheck.contracts import shape_contract
from ..errors import ParameterError
from .permutation import permuted_indices
from .subsampled import bucket_fft as _dispatch_bucket_fft

__all__ = ["PlanWorkspace", "GATHER_ELEMENT_CAP"]

#: Above this many gather-matrix elements (``L * w``) the workspace stops
#: materializing the ``(L, w)`` index matrix and regenerates rows on the
#: fly instead — the asymptotic regime where the index matrix would rival
#: the signal itself in footprint (int64 gather entries are 8 bytes each).
GATHER_ELEMENT_CAP = 1 << 25


class PlanWorkspace:
    """Precomputed gather indices and tap layout for one plan.

    Parameters
    ----------
    plan:
        The :class:`~repro.core.plan.SfftPlan` to execute.  The workspace
        snapshots the plan's permutations and filter at construction; it
        must be rebuilt for a reseeded plan (``plan.reseeded()`` returns a
        fresh plan whose :meth:`~repro.core.plan.SfftPlan.workspace` does
        exactly that).
    gather_cap:
        Override for :data:`GATHER_ELEMENT_CAP` (tests exercise the
        fallback path without paying for a huge plan).
    fft_backend:
        Name of the FFT backend :meth:`bucket_fft` resolves (``None`` =
        process default); ``fft_workers`` is its intra-call thread fan-out.
    """

    def __init__(
        self,
        plan,
        *,
        gather_cap: int | None = None,
        fft_backend: str | None = None,
        fft_workers: int = 1,
    ):
        params = plan.params
        self.plan = plan
        self.n = params.n
        self.B = params.B
        self.loops = params.loops
        self.width = plan.filt.width
        self.rounds = plan.rounds
        self._padded = self.rounds * self.B
        self._gather_cap = GATHER_ELEMENT_CAP if gather_cap is None \
            else int(gather_cap)
        self._materialize_gather = (
            self.loops * self._padded <= self._gather_cap
        )
        if not self._materialize_gather:
            # Regenerating rows on the fly is a graceful degradation, not a
            # silent one: surface it in the shared metrics registry.
            from ..obs import global_registry

            global_registry().counter(
                "sfft.workspace.gather_cap_fallback"
            ).inc()
        self.fft_backend = fft_backend
        self.fft_workers = int(fft_workers)
        self._gather: np.ndarray | None = None
        self._taps_flat: np.ndarray | None = None
        self._taps_matrix: np.ndarray | None = None

    # -- derived arrays (lazy) ---------------------------------------------

    @property
    def taps_flat(self) -> np.ndarray:
        """Filter taps zero-extended to ``rounds * B`` (often a no-copy view)."""
        if self._taps_flat is None:
            time = self.plan.filt.time
            if time.size == self._padded:
                self._taps_flat = time
            else:
                padded = np.zeros(self._padded, dtype=np.complex128)
                padded[: time.size] = time
                self._taps_flat = padded
        return self._taps_flat

    @property
    def taps_matrix(self) -> np.ndarray:
        """The padded taps reshaped ``(rounds, B)`` — Algorithm 2's layout."""
        if self._taps_matrix is None:
            self._taps_matrix = self.taps_flat.reshape(self.rounds, self.B)
        return self._taps_matrix

    @property
    def gather(self) -> np.ndarray | None:
        """The ``(L, rounds*B)`` gather-index matrix, or ``None`` above cap.

        Row ``r`` holds ``(i*sigma_r + tau_r) mod n`` for ``i`` in
        ``range(rounds*B)``; entries past the true filter width ``w`` are
        still valid indices but meet zero taps, so their gathers contribute
        nothing.
        """
        if self._gather is None and self._materialize_gather:
            self._gather = np.stack(
                [self._gather_row(r) for r in range(self.loops)]
            )
        return self._gather

    @shape_contract(
        "r:* -> (rounds*B,)", dtype="int64",
        bind={"rounds": "self.rounds", "B": "self.B"},
        attrs={"self._padded": "rounds*B"},
    )
    def _gather_row(self, r: int) -> np.ndarray:
        return permuted_indices(self.plan.permutations[r], self._padded)

    # -- memory accounting -------------------------------------------------

    def memory_breakdown(self) -> dict[str, int]:
        """Current footprint in bytes, split the way :meth:`clone` shares.

        Counts only *materialized* arrays (the lazy gather/tap properties
        stay at zero until first touched, so accounting never forces an
        allocation).  ``gather_bytes`` and ``tap_bytes`` are the immutable
        arrays clones share.  ``tap_bytes`` is 0 when :attr:`taps_flat`
        resolved to a no-copy view of the plan's own filter (the plan
        already owns those bytes); the reshaped :attr:`taps_matrix` is
        always a view and never counted.
        """
        gather_bytes = 0 if self._gather is None else int(self._gather.nbytes)
        tap_bytes = 0
        if self._taps_flat is not None \
                and self._taps_flat is not self.plan.filt.time:
            tap_bytes = int(self._taps_flat.nbytes)
        return {
            "gather_bytes": gather_bytes,
            "tap_bytes": tap_bytes,
            "total_bytes": gather_bytes + tap_bytes,
        }

    # -- sharing -----------------------------------------------------------

    def clone(
        self,
        *,
        fft_backend: str | None = None,
        fft_workers: int | None = None,
    ) -> "PlanWorkspace":
        """A twin bound to another FFT backend, sharing the derived arrays.

        The derived arrays (gather matrix, padded taps) are immutable on
        the hot path, so the clone *shares* them — an N-worker pool pays
        index precomputation once.  ``fft_backend`` / ``fft_workers``
        override the parent's FFT dispatch for this clone.
        """
        if self._materialize_gather:
            _ = self.gather  # build once here, before sharing
        _ = self.taps_flat
        twin = PlanWorkspace(
            self.plan,
            gather_cap=self._gather_cap,
            fft_backend=self.fft_backend if fft_backend is None
            else fft_backend,
            fft_workers=self.fft_workers if fft_workers is None
            else fft_workers,
        )
        twin._gather = self._gather
        twin._taps_flat = self._taps_flat
        twin._taps_matrix = self._taps_matrix
        return twin

    def adopt_shared(
        self,
        *,
        taps_flat: np.ndarray,
        gather: np.ndarray | None = None,
    ) -> None:
        """Adopt externally shared derived arrays (process-pool workers).

        The process execution mode (:mod:`repro.core.executor`,
        ``mode="process"``) places the immutable derived arrays in
        shared memory; worker processes rebuild their workspace around
        read-only views of those segments instead of recomputing them —
        the cross-process twin of what :meth:`clone` does for threads.

        ``gather=None`` leaves the gather matrix unmaterialized (the
        above-cap regime, where rows regenerate on the fly); shapes and
        dtypes are validated against this workspace's plan so a stale
        descriptor fails loudly instead of corrupting the transform.
        """
        expected = (self._padded,)
        if taps_flat.shape != expected or taps_flat.dtype != np.complex128:
            raise ParameterError(
                f"shared taps_flat must be complex128 {expected}, got "
                f"{taps_flat.dtype} {taps_flat.shape}"
            )
        self._taps_flat = taps_flat
        self._taps_matrix = taps_flat.reshape(self.rounds, self.B)
        if gather is not None:
            gshape = (self.loops, self._padded)
            if gather.shape != gshape or gather.dtype != np.int64:
                raise ParameterError(
                    f"shared gather matrix must be int64 {gshape}, got "
                    f"{gather.dtype} {gather.shape}"
                )
            self._gather = gather
            self._materialize_gather = True

    # -- bucket FFT dispatch -----------------------------------------------

    @shape_contract("buckets:(M, K) -> (M, K)", dtype="complex128")
    def bucket_fft(self, buckets: np.ndarray) -> np.ndarray:
        """Step 3 through this workspace's FFT backend binding.

        Same transform as :func:`repro.core.subsampled.bucket_fft`, with
        the backend/worker fan-out chosen at workspace construction (the
        sharded executor binds them per worker).
        """
        return _dispatch_bucket_fft(
            buckets, backend=self.fft_backend, workers=self.fft_workers
        )

    # -- fused binning -----------------------------------------------------

    @shape_contract(
        "x:(n,) -> (L, B)", dtype="complex128",
        bind={"n": "self.n", "L": "self.loops", "B": "self.B",
              "rounds": "self.rounds"},
        attrs={"self.gather": "(L, rounds*B):int64",
               "self.taps_flat": "(rounds*B,):complex128",
               "self._padded": "rounds*B"},
    )
    def bin_fused(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Steps 1-2 for all ``L`` loops at once: gather, tap, fold.

        One ``(L, rounds*B)`` fancy-indexed gather replaces the per-loop
        binner calls; the reshape-sum fold produces the same ``(L, B)``
        bucket matrix as ``L`` :func:`~repro.core.binning.bin_vectorized`
        calls (row for row).  With ``out`` omitted every call returns a
        fresh array, so concurrent callers of one plan never share output.
        """
        if x.size != self.n:
            raise ParameterError(
                f"signal length {x.size} != plan n={self.n}"
            )
        if out is None:
            buckets = np.empty((self.loops, self.B), dtype=np.complex128)
        else:
            buckets = out
        if buckets.shape != (self.loops, self.B):
            raise ParameterError(
                f"out must have shape {(self.loops, self.B)}, got {buckets.shape}"
            )
        gather = self.gather
        if gather is not None:
            y = x[gather]
            y *= self.taps_flat
            np.sum(y.reshape(self.loops, self.rounds, self.B), axis=1,
                   out=buckets)
        else:
            taps = self.taps_flat
            for r in range(self.loops):
                y = x[self._gather_row(r)]
                y *= taps
                np.sum(y.reshape(self.rounds, self.B), axis=0,
                       out=buckets[r])
        return buckets

    @shape_contract(
        "X:(S, n) -> (S, L, B)", dtype="complex128",
        bind={"n": "self.n", "L": "self.loops", "B": "self.B",
              "rounds": "self.rounds"},
        attrs={"self.gather": "(L, rounds*B):int64",
               "self.taps_flat": "(rounds*B,):complex128",
               "self._padded": "rounds*B"},
    )
    def bin_fused_stack(self, X: np.ndarray) -> np.ndarray:
        """Fused binning over an ``(S, n)`` signal stack -> ``(S, L, B)``.

        Row ``s`` is :meth:`bin_fused` on ``X[s]``, written in place.  One
        signal at a time keeps each gather a single fancy-indexed read of
        a 1-D signal, which measured no slower than a 2-D gather over
        several rows at n = 2^10-2^20, and up to 5x faster at small n.
        """
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ParameterError(
                f"signal stack must be (S, {self.n}), got {X.shape}"
            )
        out = np.empty((X.shape[0], self.loops, self.B), dtype=np.complex128)
        for s, x in enumerate(X):
            self.bin_fused(x, out=out[s])
        return out

    @shape_contract(
        "x:(n,) -> (L, B)", dtype="complex128",
        bind={"n": "self.n", "L": "self.loops", "B": "self.B",
              "rounds": "self.rounds"},
        attrs={"self.gather": "(L, rounds*B):int64",
               "self.taps_flat": "(rounds*B,):complex128"},
        expect_violation=True,
    )
    def _selfcheck_transposed_fold(self, x: np.ndarray) -> np.ndarray:
        """Negative control for the shape checker — never call this.

        A deliberately transposed fold: the reshape conserves elements
        (so reshape-conservation alone cannot catch it) but the result is
        ``(B, L)`` where the contract — and every real consumer — demands
        ``(L, B)``.  The static checker must flag the return or
        ``shape-checker-selfcheck`` fires, exactly as the naive histogram
        keeps the race detector honest.  Runtime enforcement rejects it
        too: under ``REPRO_CHECK_CONTRACTS=1`` calling this raises
        :class:`~repro.errors.ContractError`.
        """
        y = x[self.gather]
        y *= self.taps_flat
        folded = np.sum(y.reshape(self.loops, self.rounds, self.B), axis=1)
        return folded.reshape(self.B, self.loops)
