"""Transform plans: precomputed filters and permutation schedules.

Like FFTW/cuFFT, sFFT separates *planning* (design the flat-window filter,
derive bucket/loop counts, draw the per-loop permutations) from *execution*
(the six steps on actual data).  Filter synthesis costs ``O(n log n)`` once;
execution is sub-linear, so reusing a plan across many transforms of the
same ``(n, k)`` shape is where the asymptotic win lives.  The paper times
executions against cuFFT/FFTW execution the same way.

Every plan carries two routes over one permutation schedule:

* the **voting plan** is the plan itself: :attr:`SfftPlan.params` (voting's
  ``B``), its filter :attr:`SfftPlan.filt` and its permutations, the
  paper's algorithm for input that is not exactly sparse;
* the **phase plan** :attr:`SfftPlan.phase` locates exactly sparse input
  (:mod:`repro.core.phase`) with ``B_phase = min(B, max(16k, 512))``
  buckets (:func:`phase_parameters`), after sFFT 3.0, which needs only
  ``O(k)`` buckets for exactly sparse spectra.  It keeps the tolerance,
  the lobe per bucket and the permutations.  When the two ``B`` agree,
  ``plan.phase is plan``.

Every call starts on the phase plan, so its filter is synthesized with the
plan; a distinct voting filter is synthesized only when a signal first
votes.  :func:`assemble_plan` is the one place a plan is put together
(:func:`make_plan`, :func:`load_plan` and the process-mode worker rebuild).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..filters.base import FlatFilter
from ..filters.flat_window import make_flat_window
from ..utils.modmath import next_power_of_two
from ..utils.rng import RngLike, ensure_rng
from .fft_backend import default_backend_name
from .parameters import SfftParameters, derive_parameters
from .permutation import Permutation, random_permutation

__all__ = ["SfftPlan", "make_plan", "save_plan", "load_plan",
           "assemble_plan", "phase_parameters"]

#: Phase-plan buckets per coefficient: below 16k the sharded executor's
#: two threads lost to the fused path at ``(2^18, 64)``.
PHASE_BUCKETS_PER_K = 16
#: Phase-plan bucket floor: at ``(2^14, 16)`` 256 or 128 buckets were
#: slower than 512, since fixed per-call cost dominates there.
PHASE_MIN_BUCKETS = 512


def phase_parameters(params: SfftParameters) -> SfftParameters:
    """The phase plan's parameters: ``B_phase = min(B, max(16k, 512))``
    (``16k`` rounded up to a power of two) with the lobe per bucket
    (``lobefrac * B``) and everything else kept; ``params`` itself when
    ``B_phase == B``."""
    B = min(params.B, max(next_power_of_two(PHASE_BUCKETS_PER_K * params.k),
                          PHASE_MIN_BUCKETS))
    if B == params.B:
        return params
    return replace(params, B=B, lobefrac=params.lobefrac * params.B / B,
                   select_count=min(params.select_count, B))


def _synthesize(params: SfftParameters, fft_backend: str) -> FlatFilter:
    """The flat window of ``params`` (taps padded to a multiple of ``B``)."""
    return make_flat_window(
        params.n,
        params.B,
        window=params.window,
        tolerance=params.tolerance,
        lobefrac=params.lobefrac,
        pad_to_multiple=params.B,
        fft_backend=fft_backend,
    )


@dataclass(frozen=True)
class SfftPlan:
    """Everything reusable across executions of one ``(n, k)`` shape.

    Build plans with :func:`make_plan` (or :func:`assemble_plan`).

    Attributes
    ----------
    params:
        Resolved :class:`~repro.core.parameters.SfftParameters` of the
        voting plan.
    permutations:
        One :class:`~repro.core.permutation.Permutation` per loop, shared
        by both routes.  Fixed at plan time for reproducibility;
        :meth:`reseeded` draws a fresh schedule.
    filter_backend:
        The FFT backend the filters are synthesized through.
    """

    params: SfftParameters
    permutations: tuple[Permutation, ...]
    filter_backend: str
    #: the voting filter, ``None`` until first use when the phase plan
    #: differs (see :attr:`filt`).
    _filt: FlatFilter | None = field(default=None, repr=False, compare=False)
    #: the phase plan, ``None`` when it is this plan (see :attr:`phase`).
    _phase: SfftPlan | None = field(default=None, repr=False, compare=False)
    #: lazily built execution workspaces (gather + tap matrices) of the
    #: phase route and of the voting route; never part of
    #: equality/serialization — pure derived state.
    _workspace: object = field(
        default=None, init=False, repr=False, compare=False
    )
    _voting_workspace: object = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def filt(self) -> FlatFilter:
        """The voting plan's flat-window filter (taps zero-padded to a
        multiple of ``B`` so the GPU loop-partition kernel gets whole
        rounds).  When it differs from the phase plan's it is synthesized
        on first use: exactly sparse input never needs it.  Concurrent
        first uses may each synthesize it; they build the same bits."""
        if self._filt is None:
            # frozen dataclass: the cache slot is set through the back door
            # (the same idiom FlatFilter uses for its derived arrays).
            object.__setattr__(
                self, "_filt", _synthesize(self.params, self.filter_backend)
            )
        return self._filt

    @property
    def phase(self) -> SfftPlan:
        """The phase plan (:func:`phase_parameters`); ``self`` when both
        routes share one ``B``."""
        return self if self._phase is None else self._phase

    @property
    def n(self) -> int:
        """Signal size."""
        return self.params.n

    @property
    def k(self) -> int:
        """Target sparsity."""
        return self.params.k

    @property
    def B(self) -> int:
        """Bucket count."""
        return self.params.B

    @property
    def loops(self) -> int:
        """Number of inner loops ``L``."""
        return self.params.loops

    @property
    def rounds(self) -> int:
        """Inner-loop trip count of the loop-partition kernel (``w / B``)."""
        return -(-self.filt.width // self.params.B)

    @property
    def filter_capped(self) -> bool:
        """True when the filter support hit the signal length.

        In this regime (``n`` too small for the requested ``B``/tolerance,
        i.e. the problem is not meaningfully sparse) the passband narrows
        and value estimates degrade; locations are still recovered, but
        expect percent-level value errors instead of the design tolerance.
        """
        return self.filt.width >= self.params.n - self.params.B

    def workspace(self) -> "PlanWorkspace":
        """The phase route's cached execution workspace (built on first
        use), where every call starts.

        The workspace precomputes the phase plan's ``(L, w)`` gather-index
        matrix and padded ``(rounds, B)`` tap matrix — see
        :mod:`repro.core.workspace` — and reaches the voting route's
        workspace through
        :attr:`~repro.core.workspace.PlanWorkspace.voting`, built when a
        signal first votes.  Cached per plan object, so repeated
        executions of one plan never rebuild them.  It holds no mutable
        state on the hot path, so concurrent callers may share it.
        """
        if self._workspace is None:
            from .workspace import PlanWorkspace

            phase = self.phase
            object.__setattr__(self, "_workspace", PlanWorkspace(
                phase, voting_plan=None if phase is self else self))
        return self._workspace

    def reseeded(self, seed: RngLike = None) -> "SfftPlan":
        """Same filters and parameters, fresh random permutations.

        Returns a *new* plan object, so any cached :meth:`workspace` —
        whose gather matrix bakes in the old permutations — is left behind
        with the old plan rather than silently reused.
        """
        rng = ensure_rng(seed)
        perms = tuple(
            random_permutation(self.params.n, rng) for _ in range(self.params.loops)
        )
        return assemble_plan(self.params, perms, self.filter_backend,
                             filt=self._filt, phase_filt=self.phase._filt)

    def describe(self) -> str:
        """Human-readable plan summary."""
        return (
            f"SfftPlan[{self.params.describe()} w={self.filt.width} "
            f"rounds={self.rounds} B_phase={self.phase.B}]"
        )


def assemble_plan(
    params: SfftParameters,
    permutations: tuple[Permutation, ...],
    filter_backend: str,
    *,
    filt: FlatFilter | None = None,
    phase_filt: FlatFilter | None = None,
) -> SfftPlan:
    """Put a plan together from its parameters and schedule.

    Derives the phase plan (:func:`phase_parameters`) and synthesizes the
    filters not given: the phase plan's now, a distinct voting filter on
    first use.  With one route, ``filt`` and ``phase_filt`` name the same
    filter; either may be given.
    """
    phase_params = phase_parameters(params)
    if phase_params is params:
        filt = filt or phase_filt or _synthesize(params, filter_backend)
        return SfftPlan(params, permutations, filter_backend, _filt=filt)
    phase = SfftPlan(
        phase_params, permutations, filter_backend,
        _filt=phase_filt or _synthesize(phase_params, filter_backend),
    )
    return SfftPlan(params, permutations, filter_backend, _filt=filt,
                    _phase=phase)


def make_plan(
    n: int,
    k: int,
    *,
    seed: RngLike = None,
    params: SfftParameters | None = None,
    **overrides,
) -> SfftPlan:
    """Create a plan for ``(n, k)``.

    ``overrides`` are forwarded to
    :func:`~repro.core.parameters.derive_parameters` (e.g. ``loops=8``,
    ``B=4096``, ``window="gaussian"``); alternatively pass a fully resolved
    ``params``.  Filters are synthesized through the default FFT backend
    in force now.
    """
    if params is None:
        params = derive_parameters(n, k, **overrides)
    rng = ensure_rng(seed)
    perms = tuple(random_permutation(params.n, rng) for _ in range(params.loops))
    return assemble_plan(params, perms, default_backend_name())


#: ``save_plan``'s format: schema 2 adds the phase plan's filter when it
#: differs from the voting filter; schema-1 files still load.
PLAN_SCHEMA = 2


def save_plan(plan: SfftPlan, path) -> None:
    """Persist a plan to ``path`` (NumPy ``.npz``).

    Plans are the expensive artifact (filter synthesis runs an O(n log n)
    FFT); long-running services save them once and reload per process,
    exactly like FFTW wisdom.  Both routes' filters are saved (the voting
    filter is synthesized here if no signal has voted yet).
    """
    import numpy as np

    p = plan.params
    extra = {}
    if plan.phase is not plan:
        extra = {"phase_filter_time": plan.phase.filt.time,
                 "phase_filter_freq": plan.phase.filt.freq,
                 "phase_filter_box_width": plan.phase.filt.box_width}
    np.savez_compressed(
        path,
        schema=np.array([PLAN_SCHEMA]),
        n=p.n, k=p.k, B=p.B, loops=p.loops,
        vote_threshold=p.vote_threshold, select_count=p.select_count,
        window=np.array(p.window), tolerance=p.tolerance, lobefrac=p.lobefrac,
        loc_loops=np.array([-1 if p.loc_loops is None else p.loc_loops]),
        filter_backend=np.array(plan.filter_backend),
        filter_time=plan.filt.time, filter_freq=plan.filt.freq,
        filter_box_width=plan.filt.box_width,
        sigmas=np.array([q.sigma for q in plan.permutations], dtype=np.int64),
        taus=np.array([q.tau for q in plan.permutations], dtype=np.int64),
        **extra,
    )


def load_plan(path) -> SfftPlan:
    """Reload a plan written by :func:`save_plan` (schema 1 or 2).  A
    schema-1 file holds the voting filter only; the phase plan's filter,
    if distinct, is synthesized on load."""
    import numpy as np

    from ..errors import ParameterError
    from ..utils.modmath import mod_inverse

    with np.load(path, allow_pickle=False) as data:
        if int(data["schema"][0]) not in (1, PLAN_SCHEMA):
            raise ParameterError(f"unsupported plan schema in {path!r}")
        params = SfftParameters(
            n=int(data["n"]), k=int(data["k"]), B=int(data["B"]),
            loops=int(data["loops"]),
            vote_threshold=int(data["vote_threshold"]),
            select_count=int(data["select_count"]),
            window=str(data["window"]),
            tolerance=float(data["tolerance"]),
            lobefrac=float(data["lobefrac"]),
            loc_loops=(
                None
                if "loc_loops" not in data or int(data["loc_loops"][0]) < 0
                else int(data["loc_loops"][0])
            ),
        )

        def stored_filter(prefix: str, p: SfftParameters) -> FlatFilter:
            return FlatFilter(
                n=p.n,
                time=np.array(data[f"{prefix}_time"]),
                freq=np.array(data[f"{prefix}_freq"]),
                window_name=p.window,
                lobefrac=p.lobefrac,
                tolerance=p.tolerance,
                box_width=int(data[f"{prefix}_box_width"]),
            )

        filt = stored_filter("filter", params)
        phase_filt = None
        if "phase_filter_time" in data:
            phase_filt = stored_filter("phase_filter",
                                       phase_parameters(params))
        backend = (str(data["filter_backend"]) if "filter_backend" in data
                   else default_backend_name())
        perms = tuple(
            Permutation(
                n=params.n, sigma=int(s), sigma_inv=mod_inverse(int(s), params.n),
                tau=int(t),
            )
            for s, t in zip(data["sigmas"], data["taus"])
        )
    return assemble_plan(params, perms, backend, filt=filt,
                         phase_filt=phase_filt)
