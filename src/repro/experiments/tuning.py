"""Model-driven parameter autotuning.

The reference sFFT implementation exposes a ``Bcst`` knob that its authors
hand-tuned per problem size; the paper inherits those choices.  Because this
reproduction prices every candidate configuration analytically (the machine
models evaluate in microseconds), tuning becomes a cheap search instead of a
measurement campaign: :func:`tune_parameters` sweeps bucket counts (and
optionally loop counts) and returns the parameter set minimizing the modeled
end-to-end time on the requested executor.

This also removes the power-of-two "sawtooth": ``B`` must be a power of two,
so formula-derived bucket counts alternate between slightly-too-small and
slightly-too-large as ``n`` doubles; the tuner picks the better neighbour
per size, exactly as the authors' per-size constants did.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.parameters import SfftParameters, derive_parameters
from ..cpu.cpuspec import SANDY_BRIDGE_E5_2640, CpuSpec
from ..cpu.psfft import PsFFT
from ..cusim.device import KEPLER_K20X, DeviceSpec
from ..errors import ParameterError
from ..gpu.config import OPTIMIZED, CusfftConfig
from ..gpu.cusfft import CusFFT
from ..utils.modmath import next_power_of_two
from ..utils.validation import check_positive_int, check_power_of_two

__all__ = ["TuningResult", "candidate_bucket_counts", "tune_parameters"]


@dataclass(frozen=True)
class TuningResult:
    """Outcome of a tuning sweep.

    Attributes
    ----------
    params:
        The winning parameter set.
    modeled_time_s:
        Its modeled execution time.
    trials:
        Every ``(B, loops, modeled_time_s)`` evaluated, best first.
    """

    params: SfftParameters
    modeled_time_s: float
    trials: tuple[tuple[int, int, float], ...]


def candidate_bucket_counts(n: int, k: int, *, span: int = 2) -> list[int]:
    """Power-of-two bucket counts around the paper's ``sqrt(n*k/log2 n)``.

    Returns the formula value's power-of-two neighbourhood (``span`` steps
    each way), clipped to ``[4, n/2]`` and to counts that keep at least one
    bucket per candidate coefficient.
    """
    n = check_power_of_two(n, "n")
    k = check_positive_int(k, "k")
    base = derive_parameters(n, k, bucket_constant=1.0).B
    out = []
    for shift in range(-span, span + 1):
        b = base * (2**shift) if shift >= 0 else base // (2**-shift)
        b = int(b)
        if b < 4 or b > n // 2:
            continue
        if b < next_power_of_two(k):  # fewer buckets than coefficients
            continue
        out.append(b)
    if not out:
        out = [base]
    return sorted(set(out))


def tune_parameters(
    n: int,
    k: int,
    *,
    executor: str = "gpu",
    config: CusfftConfig = OPTIMIZED,
    device: DeviceSpec = KEPLER_K20X,
    cpu: CpuSpec = SANDY_BRIDGE_E5_2640,
    loops_candidates: tuple[int, ...] | None = None,
    span: int = 2,
    **param_overrides,
) -> TuningResult:
    """Pick the modeled-fastest parameters for ``(n, k)``.

    Parameters
    ----------
    executor:
        ``"gpu"`` tunes for cusFFT on ``device``; ``"cpu"`` for PsFFT on
        ``cpu``.
    loops_candidates:
        Loop counts to consider (more loops = more robustness, more time;
        the default keeps the paper's 6, or a plain ``loops=`` override).
    span:
        Bucket-count neighbourhood half-width (powers of two).
    param_overrides:
        Forwarded to :func:`~repro.core.parameters.derive_parameters`
        (e.g. ``profile="fast"``, ``select_count=k``).
    """
    if executor not in ("gpu", "cpu"):
        raise ParameterError(f"executor must be gpu or cpu, got {executor!r}")
    # A plain `loops=` override is the single candidate unless the caller
    # asked for a sweep.
    override_loops = param_overrides.pop("loops", None)
    if loops_candidates is None:
        loops_candidates = (override_loops,) if override_loops is not None else (6,)

    def price(params: SfftParameters) -> float:
        if executor == "gpu":
            return CusFFT(params=params, config=config, device=device).estimated_time()
        return PsFFT(params=params, cpu=cpu).estimated_time()

    trials: list[tuple[int, int, float]] = []
    best: tuple[float, SfftParameters] | None = None
    for loops in loops_candidates:
        for B in candidate_bucket_counts(n, k, span=span):
            try:
                params = derive_parameters(
                    n, k, B=B, loops=loops, **param_overrides
                )
            except ParameterError:
                continue
            t = price(params)
            trials.append((B, loops, t))
            if best is None or t < best[0]:
                best = (t, params)
    if best is None:
        raise ParameterError(
            f"no feasible configuration for n={n}, k={k} within the search space"
        )
    trials.sort(key=lambda x: x[2])
    return TuningResult(
        params=best[1], modeled_time_s=best[0], trials=tuple(trials)
    )
