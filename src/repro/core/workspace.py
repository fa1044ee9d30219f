"""Per-plan execution workspaces — derive once, transform many times.

A :class:`~repro.core.plan.SfftPlan` holds everything that is *logically*
reusable across executions (filters, permutation schedule); this module holds
everything that is *physically* reusable: the derived index and tap
matrices the hot path would otherwise rebuild per call.

A workspace executes one route plan — the phase plan or the voting plan
(:mod:`repro.core.plan`) — and for it precomputes

* the ``(L, w)`` **gather-index matrix** — each row is the permuted signal
  index stream ``(i*sigma_r + tau_r) mod n`` of loop ``r``, the closed-form
  index mapping of the paper's Figure 3 materialized for all loops at once;
* the **padded tap matrix** — the filter taps zero-extended to ``rounds*B``
  and reshaped ``(rounds, B)``, the exact layout Algorithm 2's loop-partition
  kernel reads round by round.

:meth:`SfftPlan.workspace` is the phase route's workspace, where every
call starts.  The phase-first location (:mod:`repro.core.batch`,
:mod:`repro.core.phase`) works one loop at a time on it:
:meth:`PlanWorkspace.window` gathers a loop's samples once,
:meth:`PlanWorkspace.fold` folds them plain, and
:meth:`PlanWorkspace.fold_shifted` folds the same samples one position on
only for the signals that need it.  :attr:`PlanWorkspace.voting` reaches
the voting route's workspace with the same FFT binding, built when a
signal first votes (``self`` when both routes share one plan); there
:meth:`PlanWorkspace.bin_fused` performs the paper's steps 1-2 for all
``L`` loops of one signal (or the loops from ``first`` on).

This is the CPU analog of ``cusim``'s
:class:`~repro.cusim.memory_pool.DeviceMemoryPool`: device codes keep
per-plan index arrays resident between launches for the same reason.

Workspaces are cached on their plan and hold no mutable state on the hot
path: the derived arrays are written once, and every call allocates its
own output.  Any number of threads may therefore execute one cached plan —
including the plan cache's shared plans — concurrently; concurrent first
votes may each build the voting workspace, with the same bits.
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
from .fft_backend import FftBackend, get_backend

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
        The :class:`~repro.core.plan.SfftPlan` to execute, with its own
        ``B``, filter and permutations.  The workspace snapshots them at
        construction; it must be rebuilt for a reseeded plan
        (``plan.reseeded()`` returns a fresh plan whose
        :meth:`~repro.core.plan.SfftPlan.workspace` does exactly that).
    gather_cap:
        Override for :data:`GATHER_ELEMENT_CAP` (tests exercise the
        fallback path without paying for a huge plan).
    fft_backend:
        Name of the FFT backend :meth:`bucket_fft` resolves (``None`` =
        process default); ``fft_workers`` is its intra-call thread fan-out.
    voting_plan:
        The plan whose voting route :attr:`voting` reaches, when it is
        not ``plan`` (the phase workspace of a plan with two routes).
    """

    def __init__(
        self,
        plan,
        *,
        gather_cap: int | None = None,
        fft_backend: str | None = None,
        fft_workers: int = 1,
        voting_plan=None,
    ):
        params = plan.params
        self.plan = plan
        self.voting_plan = plan if voting_plan is None else voting_plan
        self._voting: PlanWorkspace | None = None
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

    def build(self) -> "PlanWorkspace":
        """Materialize the lazy derived arrays now (the gather matrix
        unless above the cap, and the padded taps); returns ``self``."""
        if self._materialize_gather:
            _ = self.gather
        _ = self.taps_flat
        return self

    @shape_contract(
        "r:* -> (rounds*B,)", dtype="int64",
        bind={"rounds": "self.rounds", "B": "self.B"},
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
        self.build()  # once here, before sharing
        twin = PlanWorkspace(
            self.plan,
            gather_cap=self._gather_cap,
            fft_backend=self.fft_backend if fft_backend is None
            else fft_backend,
            fft_workers=self.fft_workers if fft_workers is None
            else fft_workers,
            voting_plan=self.voting_plan,
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

    @property
    def voting(self) -> "PlanWorkspace":
        """The voting route's workspace with this one's FFT binding:
        ``self`` when :attr:`voting_plan` is :attr:`plan`, else built on
        first call (the voting plan's filter and gather matrix with it) and
        shared by every workspace of the plan."""
        plan = self.voting_plan
        if plan is self.plan:
            return self
        if self._voting is None:
            base = plan._voting_workspace
            if base is None:
                base = PlanWorkspace(plan, gather_cap=self._gather_cap)
                object.__setattr__(plan, "_voting_workspace", base)
            self._voting = base.clone(fft_backend=self.fft_backend,
                                      fft_workers=self.fft_workers)
        return self._voting

    # -- bucket FFT dispatch -----------------------------------------------

    def backend(self) -> FftBackend:
        """This workspace's FFT backend binding, resolved now (``None``
        binds the process default in force at the call)."""
        return get_backend(self.fft_backend)

    @shape_contract("buckets:(M, K) -> (M, K)", dtype="complex128")
    def bucket_fft(self, buckets: np.ndarray,
                   backend: FftBackend | None = None) -> np.ndarray:
        """Step 3: the batched ``B``-point FFT of ``(M, B)`` bucket rows.

        Runs on this workspace's FFT backend binding: ``backend`` is its
        :meth:`backend` already resolved by the caller (the engine
        resolves it once per call), else it is resolved here.  The worker
        fan-out is the one chosen at workspace construction (the sharded
        executor binds both per worker).
        """
        if backend is None:
            backend = self.backend()
        return backend.fft(buckets, axis=-1, workers=self.fft_workers)

    # -- fused binning -----------------------------------------------------

    @shape_contract(
        "x:(n,) -> (M, B)", dtype="complex128",
        bind={"n": "self.n", "B": "self.B"},
    )
    def bin_fused(
        self,
        x: np.ndarray,
        out: np.ndarray | None = None,
        *,
        first: int = 0,
    ) -> np.ndarray:
        """Steps 1-2 for loops ``first..L-1``: gather, tap, fold.

        Each loop is one :meth:`window` gather, tapped in place and
        reshape-summed into its row, so only one loop's ``rounds*B``
        samples are alive at a time (a stack-wide voting fold gathered all
        of a signal's loops at once, the voting route's largest
        transient); the rows are the same ``(L, B)`` bucket matrix as ``L``
        :func:`~repro.core.binning.bin_vectorized` calls (row for row).
        ``first`` skips loops already binned: row ``i`` is then loop
        ``first + i``, bit for bit the row a full call returns, and bit for
        bit ``fold(window(x, first + i))``.  With ``out`` omitted every call
        returns a fresh array, so concurrent callers of one plan never
        share output.
        """
        if x.size != self.n:
            raise ParameterError(
                f"signal length {x.size} != plan n={self.n}"
            )
        if not 0 <= first < self.loops:
            raise ParameterError(
                f"first={first} must be in [0, loops={self.loops})"
            )
        shape = (self.loops - first, self.B)
        buckets = np.empty(shape, dtype=np.complex128) if out is None else out
        if buckets.shape != shape:
            raise ParameterError(
                f"out must have shape {shape}, got {buckets.shape}"
            )
        for i, r in enumerate(range(first, self.loops)):
            y = self.window(x, r)
            y *= self.taps_flat
            np.add.reduce(y.reshape(self.rounds, self.B), axis=0,
                          out=buckets[i])
            del y  # else it outlives the next loop's gather
        return buckets

    # -- one loop at a time (phase-first location) --------------------------

    def window(self, x: np.ndarray, r: int) -> np.ndarray:
        """Loop ``r``'s gathered samples ``x[(i*sigma_r + tau_r) mod n]``
        for ``i < rounds*B``: one ``np.take``."""
        gather = self.gather
        return np.take(x, self._gather_row(r) if gather is None
                       else gather[r])

    def fold(self, samples: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
        """The plain fold of one loop's :meth:`window`: tap multiply and
        reshape-sum into ``B`` buckets."""
        y = samples * self.taps_flat
        return np.add.reduce(y.reshape(self.rounds, self.B), axis=0, out=out)

    def fold_shifted(self, x: np.ndarray, r: int, samples: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
        """Loop ``r`` folded one position on, ``x[(i+1)*sigma_r + tau_r]``,
        from its :meth:`window` ``samples`` and the one sample past it:
        with the plain fold, ``w + 1`` reads in all."""
        taps = self.taps_flat
        perm = self.plan.permutations[r]
        y = np.empty(self._padded, dtype=np.complex128)
        np.multiply(samples[1:], taps[:-1], out=y[:-1])
        y[-1] = x[(self._padded * perm.sigma + perm.tau) % self.n] * taps[-1]
        return np.add.reduce(y.reshape(self.rounds, self.B), axis=0, out=out)
