"""Workload classes and the tuner's candidate configuration space.

The search axes are exactly the knobs the paper hand-tunes per ``(n, k)``
point plus the execution knobs later PRs added:

* ``B_scale`` — bucket count relative to the derived default (powers of
  two only, so every candidate ``B`` still divides ``n``);
* ``loops`` — the location/estimation loop count ``L``;
* ``comb_width`` — the sFFT-2.0 Comb pre-filter, on (a width) or off;
* ``fft_backend`` / ``workers`` — the bucket-FFT vendor and the width
  of a thread-mode sharded executor (batch classes only; a single
  transform has no stack to shard).

The grid is an *axis sweep* around the derived default (FFTW's "patience"
economics, not a full cross product): each axis varies alone, plus the one
known-good combination the repo's benchmarks use.  The default
configuration is always candidate 0, so a measured winner can never be
structurally slower than not tuning at all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from ..core.fft_backend import available_backends, default_backend_name
from ..core.parameters import derive_parameters
from ..errors import ParameterError
from ..utils.modmath import next_power_of_two
from .wisdom import class_key

__all__ = ["WorkloadClass", "Candidate", "generate_candidates",
           "candidate_from_config", "NOISE_CLASSES"]

#: Noise classes the tuner knows how to synthesize probe signals for.
#: ``exact`` — exactly k-sparse, well separated; ``noisy`` — the same
#: signal under 30 dB AWGN (location recovery still exact, estimation
#: noise-limited).
NOISE_CLASSES = ("exact", "noisy")


@dataclass(frozen=True)
class WorkloadClass:
    """One tuning key: the axes a measured pick is valid for."""

    n: int
    k: int
    noise_class: str = "exact"
    batch_size: int = 1

    def __post_init__(self) -> None:
        if self.noise_class not in NOISE_CLASSES:
            raise ParameterError(
                f"unknown noise class {self.noise_class!r}; "
                f"choose from {NOISE_CLASSES}"
            )
        if self.batch_size < 1:
            raise ParameterError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )

    @property
    def key(self) -> str:
        """Canonical ``repro.wisdom/1`` class-key string."""
        return class_key(self.n, self.k, self.noise_class, self.batch_size)


@dataclass(frozen=True)
class Candidate:
    """One point of the search space (``None`` = derived default)."""

    B_scale: float = 1.0
    loops: int | None = None
    comb_width: int | None = None
    fft_backend: str | None = None
    workers: int = 1

    @property
    def is_default(self) -> bool:
        return self == Candidate()

    def plan_overrides(self, n: int, k: int) -> dict[str, Any]:
        """Derivation overrides this candidate applies for ``(n, k)``."""
        out: dict[str, Any] = {}
        if self.B_scale != 1.0:
            base = derive_parameters(n, k).B
            scaled = next_power_of_two(
                max(2, int(round(base * self.B_scale)))
            )
            out["B"] = max(2, min(scaled, n // 2))
        if self.loops is not None:
            out["loops"] = self.loops
        return out

    def resolved(self, n: int, k: int) -> dict[str, Any]:
        """``{"B", "loops"}`` the candidate resolves to (the wisdom form)."""
        params = derive_parameters(n, k, **self.plan_overrides(n, k))
        return {"B": params.B, "loops": params.loops}

    def config(self) -> dict[str, Any]:
        """The ``repro.wisdom/1`` ``config`` block for this candidate."""
        return {
            "B_scale": float(self.B_scale),
            "loops": self.loops,
            "comb_width": self.comb_width,
            "fft_backend": self.fft_backend,
            "workers": int(self.workers),
        }

    def label(self) -> str:
        """Short human-readable tag for ranking tables."""
        if self.is_default:
            return "default"
        parts: list[str] = []
        if self.B_scale != 1.0:
            parts.append(f"B*{self.B_scale:g}")
        if self.loops is not None:
            parts.append(f"L={self.loops}")
        if self.comb_width is not None:
            parts.append(f"comb={self.comb_width}")
        if self.fft_backend is not None:
            parts.append(self.fft_backend)
        if self.workers > 1:
            parts.append(f"threadx{self.workers}")
        return "+".join(parts) or "default"


def generate_candidates(
    wc: WorkloadClass, *, budget: int | None = None
) -> list[Candidate]:
    """The ordered candidate list for one workload class.

    Candidate 0 is always the pure-default configuration.  ``budget``
    truncates the sweep (default kept), letting CI smoke runs bound their
    cost without a separate grid.
    """
    n, k = wc.n, wc.k
    cands: list[Candidate] = [Candidate()]

    # Loop-count axis: 6 is the paper-evaluation economy the repo's
    # benchmarks run at; the derived default (8-10) is the robust ceiling.
    default_loops = derive_parameters(n, k).loops
    for loops in (6, 10):
        if loops != default_loops:
            cands.append(Candidate(loops=loops))

    # Bucket-count axis: halving trades collision margin for per-loop
    # work; doubling buys margin for noisy/batch classes.
    for scale in (0.5, 2.0):
        cand = Candidate(B_scale=scale)
        if 2 <= cand.resolved(n, k)["B"] <= n // 2:
            cands.append(cand)

    # The known-good combination (economy loops + economy buckets).
    if default_loops != 6:
        cands.append(Candidate(B_scale=0.5, loops=6))

    # Comb pre-filter axis: on, at the classic ~8k residue classes.
    comb = min(n // 2, next_power_of_two(max(2, 8 * k)))
    if comb >= 2:
        cands.append(Candidate(comb_width=comb))

    if wc.batch_size > 1:
        # Execution axes only make sense with a stack to shard.
        default_backend = default_backend_name()
        for name in available_backends():
            if name != default_backend:
                cands.append(Candidate(fft_backend=name))
        for workers in (2,):
            cands.append(Candidate(workers=workers))
            if default_loops != 6:
                cands.append(Candidate(loops=6, workers=workers))

    # De-duplicate while preserving order (axis sweeps can coincide).
    seen: set[Candidate] = set()
    unique = [c for c in cands if not (c in seen or seen.add(c))]
    if budget is not None and budget >= 1:
        unique = unique[:budget]
    return unique


def candidate_from_config(config: dict[str, Any]) -> Candidate:
    """Rebuild a :class:`Candidate` from a wisdom record's config block."""
    return replace(
        Candidate(),
        **{key: val for key, val in config.items()
           if key in Candidate.__dataclass_fields__},
    )
