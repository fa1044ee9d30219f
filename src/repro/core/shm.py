"""Shared-memory plumbing for the process-pool executor.

The process execution mode (:mod:`repro.core.executor`, ``mode="process"``)
ships work to a pool of worker *processes*, so nothing can be handed over
by reference.  Copying the inputs into every worker would erase the win —
the signal stack and the plan's derived arrays (gather-index matrix, padded
tap matrix) dwarf everything else the pipeline touches.  This module keeps
the hand-off zero-copy: the parent packs those arrays into
``multiprocessing.shared_memory`` segments **once**, and workers attach to
the same physical pages and reconstruct NumPy views over them.

What crosses the process boundary is therefore *descriptors*, not bytes:

* :class:`SharedArraySpec` — one array's address inside a segment
  (segment name, shape, dtype, byte offset); picklable and tiny.
* :class:`SegmentBundle` — the parent-side owner of one segment holding
  several arrays.  Creation copies each array in at a 64-byte-aligned
  offset and records its spec; :meth:`SegmentBundle.close` is idempotent
  and **always unlinks**, even when a leaked view keeps the mapping alive
  (the ``/dev/shm`` name must die with the run — reprolint's
  ``shm-lifecycle`` rule keeps every creation site inside this module so
  that guarantee is auditable).
* :class:`PlanDescriptor` — a whole :class:`~repro.core.plan.SfftPlan` +
  its phase-route :class:`~repro.core.workspace.PlanWorkspace` as
  primitives and specs: resolved parameters, ``(sigma, tau)`` pairs
  (``sigma_inv`` is re-derived, exactly like
  :func:`~repro.core.plan.load_plan`), phase-filter metadata, and specs
  for the phase filter's taps / frequency response / gather matrix /
  padded taps.  The voting route is not shipped: a worker synthesizes it,
  through the plan's filter backend, when one of its signals first votes.

Worker-side, :func:`worker_lease` materializes a descriptor into a real
plan (through :func:`~repro.core.plan.assemble_plan`, like every plan) and
a phase workspace whose derived arrays are **read-only views into the
shared segment** (adopted via
:meth:`~repro.core.workspace.PlanWorkspace.adopt_shared`).  Leases are cached in a small per-process LRU keyed
by the descriptor's plan fingerprint: a warm worker re-runs shards of the
same plan with zero attach/rebuild cost, the process-pool analog of the
thread executor's shared workspace clone (and of the process-level
:class:`~repro.core.plan_cache.PlanCache`).

Lifecycle rules this module enforces:

* the **parent owns every segment**: workers attach but never create or
  unlink;
* pool workers share the parent's ``resource_tracker`` process (the
  tracker fd is inherited under every start method), so a worker's
  attach-register is an idempotent duplicate of the parent's own entry —
  workers neither unregister nor unlink, and the parent's end-of-run
  unlink retires the name exactly once;
* an unlinked segment stays valid for processes that already mapped it —
  cached worker leases therefore survive the parent's end-of-run unlink,
  and their memory is returned when the LRU evicts them (or the worker
  exits).  Nothing is ever left in ``/dev/shm``.
"""

from __future__ import annotations

import hashlib
import os
import secrets
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..analysis.staticcheck.contracts import shape_contract
from ..errors import ParameterError

__all__ = [
    "SharedArraySpec",
    "SegmentBundle",
    "AttachedSegment",
    "PlanDescriptor",
    "WorkerLease",
    "describe_plan",
    "plan_fingerprint",
    "plan_shared_arrays",
    "worker_lease",
    "worker_cache_clear",
]

#: Byte alignment for every array packed into a segment (one cache line —
#: keeps vectorized loads on views as fast as on fresh allocations).
_ALIGN = 64

#: Per-process cap on cached worker leases (plans this worker keeps warm).
WORKER_PLAN_CACHE_CAP = 4


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment as a non-owner.

    Python 3.11 registers every POSIX ``SharedMemory`` — attaches
    included — with the ``resource_tracker``.  Pool workers inherit the
    *parent's* tracker process (the tracker fd rides along under fork,
    forkserver, and spawn alike), so a worker's attach-register is an
    idempotent set-add on the name the parent already registered, and the
    parent's end-of-run ``unlink`` retires it exactly once.  Crucially the
    worker must **not** ``resource_tracker.unregister`` here: with a
    shared tracker that would strip the parent's own registration, losing
    crash-cleanup coverage and making the parent's later unlink a noisy
    double-unregister.
    """
    return shared_memory.SharedMemory(name=name)


def _close_quietly(seg: shared_memory.SharedMemory) -> None:
    """Close a mapping, tolerating still-exported buffer views.

    ``mmap.close`` raises ``BufferError`` while NumPy views over the
    buffer are alive; the mapping then simply lives until the views are
    collected.  Never let that block the caller's cleanup.
    """
    try:
        seg.close()
    except BufferError:
        pass


@dataclass(frozen=True)
class SharedArraySpec:
    """Address of one ndarray inside a shared-memory segment.

    This — not the array's bytes — is what crosses the process boundary:
    ``segment`` names the POSIX shared-memory object, and
    ``shape``/``dtype``/``offset`` are everything NumPy needs to rebuild a
    zero-copy view over the attached buffer.
    """

    segment: str
    shape: tuple[int, ...]
    dtype: str
    offset: int

    @property
    def nbytes(self) -> int:
        """Bytes this array occupies in the segment."""
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize

    @shape_contract("seg:* -> @self.shape", dtype="@self.dtype")
    def as_array(
        self,
        seg: shared_memory.SharedMemory,
        *,
        writeable: bool = False,
    ) -> np.ndarray:
        """A NumPy view of this array over an attached segment.

        Views default to read-only: most shared arrays are the immutable
        side of the workspace contract, and a read-only flag turns an
        accidental cross-process write into an immediate error instead of
        a heisenbug.  Output arrays pass ``writeable=True`` explicitly.
        """
        end = self.offset + self.nbytes
        if end > seg.size:
            raise ParameterError(
                f"shared array {self.shape}/{self.dtype} at offset "
                f"{self.offset} overruns segment {self.segment!r} "
                f"({end} > {seg.size} bytes)"
            )
        arr: np.ndarray = np.ndarray(
            self.shape, dtype=np.dtype(self.dtype), buffer=seg.buf,
            offset=self.offset,
        )
        arr.flags.writeable = writeable
        return arr


class SegmentBundle:
    """Parent-side owner of one segment packing several named arrays.

    Built with :meth:`create`; exposes per-array :attr:`specs` for
    shipping to workers and :meth:`view` for the parent's own zero-copy
    access (e.g. reading results back out of an output segment).
    :meth:`close` is idempotent and unconditionally unlinks — use the
    bundle as a context manager or close it in a ``finally`` so no
    ``/dev/shm`` entry can outlive the run, whatever the workers did.
    """

    def __init__(
        self,
        seg: shared_memory.SharedMemory,
        specs: dict[str, SharedArraySpec],
    ):
        self._seg = seg
        self.specs = dict(specs)
        self._closed = False

    @classmethod
    def create(
        cls, arrays: dict[str, np.ndarray], *, label: str = "sfft"
    ) -> "SegmentBundle":
        """Allocate one segment and copy ``arrays`` in, aligned.

        The single-segment layout keeps the attach cost per worker at one
        ``shm_open``+``mmap`` regardless of how many arrays ride along.
        On any copy-in failure the half-built segment is unlinked before
        the error propagates.
        """
        if not arrays:
            raise ParameterError("a segment bundle needs at least one array")
        packed = {
            key: np.ascontiguousarray(arr) for key, arr in arrays.items()
        }
        offsets: dict[str, int] = {}
        cursor = 0
        for key, arr in packed.items():
            cursor = _align(cursor)
            offsets[key] = cursor
            cursor += int(arr.nbytes)
        name = f"{label}-{os.getpid()}-{secrets.token_hex(6)}"
        seg = shared_memory.SharedMemory(
            create=True, size=max(1, cursor), name=name,
        )
        try:
            specs: dict[str, SharedArraySpec] = {}
            for key, arr in packed.items():
                dst: np.ndarray = np.ndarray(
                    arr.shape, dtype=arr.dtype, buffer=seg.buf,
                    offset=offsets[key],
                )
                dst[...] = arr
                specs[key] = SharedArraySpec(
                    segment=seg.name, shape=tuple(arr.shape),
                    dtype=arr.dtype.str, offset=offsets[key],
                )
            del dst
        except BaseException:
            _close_quietly(seg)
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            raise
        return cls(seg, specs)

    @property
    def name(self) -> str:
        """The segment's shared-memory name."""
        return self._seg.name

    @property
    def nbytes(self) -> int:
        """Total segment size in bytes."""
        return int(self._seg.size)

    def view(self, key: str, *, writeable: bool = False) -> np.ndarray:
        """The parent's zero-copy view of one packed array."""
        if self._closed:
            raise ParameterError(
                f"segment bundle {self.name!r} is closed"
            )
        return self.specs[key].as_array(self._seg, writeable=writeable)

    def close(self) -> None:
        """Close and **unlink**; idempotent, never raises for leaked views.

        Unlink succeeds even while other processes (or leaked local
        views) still map the segment — POSIX keeps the memory alive until
        the last unmap, but the name is gone immediately, which is the
        no-leak guarantee CI's ``/dev/shm`` check enforces.
        """
        if self._closed:
            return
        self._closed = True
        _close_quietly(self._seg)
        try:
            self._seg.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink race
            pass

    def __enter__(self) -> "SegmentBundle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{self.nbytes}B"
        return (
            f"SegmentBundle({self.name!r}, {sorted(self.specs)}, {state})"
        )


class AttachedSegment:
    """A worker's non-owning attachment to a parent-created segment.

    Attach-only lifecycle: :meth:`close` releases this process's mapping
    and **never unlinks** — the parent owns the name.  Use per task for
    short-lived data (signal stacks, output arrays); long-lived plan
    arrays go through :func:`worker_lease` instead.
    """

    def __init__(self, name: str):
        self._seg = _attach(name)

    @shape_contract("spec:* -> @spec.shape", dtype="@spec.dtype")
    def view(
        self, spec: "SharedArraySpec", *, writeable: bool = False
    ) -> np.ndarray:
        """A NumPy view of ``spec`` over this attachment."""
        if spec.segment != self._seg.name:
            raise ParameterError(
                f"spec addresses segment {spec.segment!r}, attached to "
                f"{self._seg.name!r}"
            )
        return spec.as_array(self._seg, writeable=writeable)

    def close(self) -> None:
        """Release the mapping (idempotent; tolerates live views)."""
        _close_quietly(self._seg)

    def __enter__(self) -> "AttachedSegment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(frozen=True)
class PlanDescriptor:
    """A plan + workspace as picklable primitives and array specs.

    ``params`` is the voting plan's
    :class:`~repro.core.parameters.SfftParameters` field tuple;
    ``sigmas``/``taus`` rebuild the permutation schedule (``sigma_inv`` is
    re-derived via ``mod_inverse``, the :func:`~repro.core.plan.load_plan`
    idiom); ``filter_meta`` is the phase filter's ``(window_name,
    lobefrac, tolerance, box_width)`` and ``filter_backend`` the plan's
    synthesis backend.  ``arrays`` maps
    ``filter_time`` / ``filter_freq`` / ``taps_flat`` (may alias
    ``filter_time`` byte-for-byte when the padded width equals the tap
    count) / optionally ``gather`` (absent above the workspace's gather
    cap — workers then regenerate rows on the fly, same as the thread
    path) to their shared locations.  ``token`` is the plan fingerprint
    worker-side lease caching keys on.
    """

    token: str
    params: tuple
    sigmas: tuple[int, ...]
    taus: tuple[int, ...]
    filter_meta: tuple
    filter_backend: str
    arrays: dict[str, SharedArraySpec]
    fft_backend: str | None
    fft_workers: int


def plan_fingerprint(plan, fft_backend: str | None, fft_workers: int) -> str:
    """Stable identity of (plan schedule, FFT binding) for lease caching.

    Two runs over the same plan object — or equal plans — map to the same
    token, so warm workers reuse their materialized plan/workspace across
    runs instead of re-attaching and rebuilding.
    """
    p = plan.params
    payload = repr((
        p.n, p.k, p.B, p.loops, p.vote_threshold, p.select_count,
        p.window, p.tolerance, p.lobefrac, p.loc_loops,
        tuple((q.sigma, q.tau) for q in plan.permutations),
        plan.filter_backend, fft_backend, fft_workers,
    )).encode()
    return hashlib.sha1(payload).hexdigest()[:16]


def plan_shared_arrays(plan, workspace) -> dict[str, np.ndarray]:
    """The immutable arrays a plan ships to workers, keyed for packing:
    the phase plan's filter and its ``workspace`` (the plan's
    :meth:`~repro.core.plan.SfftPlan.workspace`).

    Forces the workspace's lazy gather/taps first so every worker shares
    one materialization.  ``taps_flat`` is omitted when it *is* the
    filter's tap array (the no-copy case) — :func:`describe_plan` aliases
    the spec instead of double-packing the bytes.
    """
    filt = plan.phase.filt
    arrays: dict[str, np.ndarray] = {
        "filter_time": filt.time,
        "filter_freq": filt.freq,
    }
    taps = workspace.taps_flat
    if taps is not filt.time:
        arrays["taps_flat"] = taps
    gather = workspace.gather
    if gather is not None:
        arrays["gather"] = gather
    return arrays


def describe_plan(
    plan,
    specs: dict[str, SharedArraySpec],
    *,
    fft_backend: str | None,
    fft_workers: int,
) -> PlanDescriptor:
    """Build the :class:`PlanDescriptor` for packed plan arrays."""
    p = plan.params
    filt = plan.phase.filt
    arrays = dict(specs)
    if "taps_flat" not in arrays:
        # The padded taps were a no-copy view of the filter's own taps;
        # the shared layout aliases the same bytes.
        arrays["taps_flat"] = arrays["filter_time"]
    return PlanDescriptor(
        token=plan_fingerprint(plan, fft_backend, fft_workers),
        params=(
            p.n, p.k, p.B, p.loops, p.vote_threshold, p.select_count,
            p.window, p.tolerance, p.lobefrac, p.loc_loops,
        ),
        sigmas=tuple(q.sigma for q in plan.permutations),
        taus=tuple(q.tau for q in plan.permutations),
        filter_meta=(
            filt.window_name, filt.lobefrac, filt.tolerance, filt.box_width,
        ),
        filter_backend=plan.filter_backend,
        arrays=arrays,
        fft_backend=fft_backend,
        fft_workers=fft_workers,
    )


class WorkerLease:
    """A worker process's materialized view of one shared plan.

    Holds the attached segments (keeping the pages mapped even after the
    parent unlinks), the rebuilt :class:`~repro.core.plan.SfftPlan`, and
    its phase-route :class:`~repro.core.workspace.PlanWorkspace` whose
    derived arrays are read-only views into the shared segment.
    """

    def __init__(self, plan, workspace, segments):
        self.plan = plan
        self.workspace = workspace
        self._segments = tuple(segments)

    def release(self) -> None:
        """Drop the plan/workspace and close the mappings."""
        self.plan = None
        self.workspace = None
        for seg in self._segments:
            _close_quietly(seg)
        self._segments = ()


def _materialize_plan(desc: PlanDescriptor, view):
    """Rebuild a real plan from a descriptor (worker side), its phase
    filter over the shared arrays."""
    from ..filters.base import FlatFilter
    from ..utils.modmath import mod_inverse
    from .parameters import SfftParameters
    from .permutation import Permutation
    from .plan import assemble_plan

    params = SfftParameters(*desc.params)
    window_name, lobefrac, tolerance, box_width = desc.filter_meta
    phase_filt = FlatFilter(
        n=params.n,
        time=view("filter_time"),
        freq=view("filter_freq"),
        window_name=window_name,
        lobefrac=lobefrac,
        tolerance=tolerance,
        box_width=box_width,
    )
    perms = tuple(
        Permutation(n=params.n, sigma=s, sigma_inv=mod_inverse(s, params.n),
                    tau=t)
        for s, t in zip(desc.sigmas, desc.taus)
    )
    return assemble_plan(params, perms, desc.filter_backend,
                         phase_filt=phase_filt)


#: token -> WorkerLease, most-recently-used last (per worker process).
_WORKER_LEASES: "OrderedDict[str, WorkerLease]" = OrderedDict()


def worker_lease(desc: PlanDescriptor) -> WorkerLease:
    """The cached (or freshly materialized) lease for a descriptor.

    This is the worker's private per-process plan cache: a hit costs a
    dict lookup; a miss attaches the plan segment, rebuilds the plan, and
    builds its phase workspace, which adopts the shared gather/taps.  Old leases
    evict LRU at :data:`WORKER_PLAN_CACHE_CAP`, closing their mappings.
    """
    lease = _WORKER_LEASES.get(desc.token)
    if lease is not None:
        _WORKER_LEASES.move_to_end(desc.token)
        return lease

    from .workspace import PlanWorkspace

    names = sorted({spec.segment for spec in desc.arrays.values()})
    segments = []
    try:
        for nm in names:
            segments.append(_attach(nm))
        by_name = {seg.name: seg for seg in segments}

        def view(key: str) -> np.ndarray:
            spec = desc.arrays[key]
            return spec.as_array(by_name[spec.segment])

        plan = _materialize_plan(desc, view)
        workspace = PlanWorkspace(
            plan.phase,
            fft_backend=desc.fft_backend,
            fft_workers=desc.fft_workers,
            voting_plan=plan,
        )
        workspace.adopt_shared(
            taps_flat=view("taps_flat"),
            gather=view("gather") if "gather" in desc.arrays else None,
        )
    except BaseException:
        for seg in segments:
            _close_quietly(seg)
        raise
    lease = WorkerLease(plan, workspace, segments)
    _WORKER_LEASES[desc.token] = lease
    while len(_WORKER_LEASES) > WORKER_PLAN_CACHE_CAP:
        _, old = _WORKER_LEASES.popitem(last=False)
        old.release()
    return lease


def worker_cache_clear() -> None:
    """Release every cached lease (tests; also safe in workers)."""
    while _WORKER_LEASES:
        _, old = _WORKER_LEASES.popitem(last=False)
        old.release()
