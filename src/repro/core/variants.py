"""Transform variants built on the core driver: inverse, real-input, batch.

These are the convenience surface a downstream user expects from an FFT
library, expressed through the forward sparse transform:

* **inverse** — ``ifft(x)[t] = conj(fft(conj(x)))[t] / n``, so a sparse
  inverse costs exactly one forward sparse transform;
* **real-input** — a real signal's spectrum is conjugate-symmetric,
  ``xhat[n-f] = conj(xhat[f])``; the recovered coefficients are symmetrized
  (pairing mirror frequencies and averaging) which both halves the noise on
  each estimate and guarantees an exactly-real reconstruction;
* **batch** — many signals under one plan (plan reuse is where the
  sub-linear asymptotics pay off).
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..utils.rng import RngLike
from ..utils.validation import as_complex_signal
from .batch import sfft_batch_fused
from .params import resolve_sfft_config
from .plan import SfftPlan
from .plan_cache import cached_plan
from .sfft import SparseFFTResult, sfft

__all__ = ["isfft", "rsfft", "sfft_batch"]


def isfft(x, k: int | None = None, **kwargs) -> SparseFFTResult:
    """Sparse *inverse* DFT: the k significant entries of ``numpy.fft.ifft(x)``.

    Accepts the same arguments as :func:`~repro.core.sfft.sfft`.  The
    returned ``locations`` index time samples and ``values`` are on the
    ``ifft`` scale (including the ``1/n`` factor).
    """
    x = as_complex_signal(x)
    res = sfft(np.conj(x), k, **kwargs)
    return SparseFFTResult(
        n=res.n,
        locations=res.locations,
        values=np.conj(res.values) / res.n,
        votes=res.votes,
        step_times=res.step_times,
    )


def rsfft(x, k: int | None = None, **kwargs) -> SparseFFTResult:
    """Sparse FFT of a *real* signal with conjugate symmetry enforced.

    ``k`` counts total coefficients (mirror pairs included, as a dense FFT
    would report them).  Mirror pairs ``(f, n-f)`` are symmetrized:
    ``v[f] <- (v[f] + conj(v[n-f])) / 2``; a recovered frequency whose
    mirror was missed donates its conjugate, so the output support is
    always symmetric and ``ifft`` of the dense form is exactly real.
    """
    arr = np.asarray(x)
    if np.iscomplexobj(arr) and np.abs(arr.imag).max() > 0:
        raise ParameterError("rsfft expects a real signal")
    res = sfft(arr.real, k, **kwargs)
    n = res.n

    found = res.as_dict()
    votes = {int(f): int(v) for f, v in zip(res.locations, res.votes)}
    sym: dict[int, complex] = {}
    for f, v in found.items():
        mirror = (-f) % n
        if f in sym:
            continue
        if mirror == f:  # DC or Nyquist: must be real
            sym[f] = complex(v.real, 0.0)
        elif mirror in found:
            avg = (v + np.conj(found[mirror])) / 2.0
            sym[f] = complex(avg)
            sym[mirror] = complex(np.conj(avg))
        else:
            sym[f] = complex(v)
            sym[mirror] = complex(np.conj(v))

    locs = np.array(sorted(sym), dtype=np.int64)
    vals = np.array([sym[int(f)] for f in locs], dtype=np.complex128)
    vts = np.array([votes.get(int(f), votes.get(int((-f) % n), 0)) for f in locs])
    return SparseFFTResult(
        n=n, locations=locs, values=vals, votes=vts, step_times=res.step_times
    )


_EXEC_KEYS = ("cutoff_method", "comb_width", "comb_loops", "trim_to_k",
              "strict", "fft_backend", "fft_workers")


def sfft_batch(
    signals,
    k: int | None = None,
    *,
    plan: SfftPlan | None = None,
    seed: RngLike = None,
    executor=None,
    **kwargs,
) -> list[SparseFFTResult]:
    """Transform a batch of equal-length signals under one shared plan.

    ``signals`` is a ``(batch, n)`` array or a sequence of length-``n``
    arrays.  The plan (filter + permutation schedule) comes from the
    process-level cache when not supplied; the stack then runs through the
    pipeline engine (:mod:`repro.core.batch`) — one ``(S*L, B)`` bucket
    FFT and one batched cutoff for every signal.  Per-signal results match
    ``sfft(signals[s], plan=plan)`` exactly.

    ``executor`` parallelizes the fused engine across shards of the stack:
    pass a :class:`~repro.core.executor.ShardedExecutor`, or an ``int``
    worker count as shorthand for ``ShardedExecutor(workers=N)`` (the
    shorthand inherits the executor's default mode — ``thread``, or
    whatever ``REPRO_EXECUTOR_MODE`` says; construct the executor
    explicitly for ``mode="process"``, the shared-memory process pool).
    Sharded results are bit-identical to the serial fused engine in every
    mode.  ``fft_backend`` / ``fft_workers`` keyword arguments select the
    bucket-FFT implementation (:mod:`repro.core.fft_backend`).
    """
    if isinstance(signals, np.ndarray):
        # Rows of a contiguous stack validate without copying; the fused
        # engine consumes the original array as-is.
        stack = np.atleast_2d(signals)
        rows = [as_complex_signal(s) for s in stack]
        if stack.dtype != np.complex128 or not stack.flags.c_contiguous:
            stack = np.stack(rows)
    else:
        rows = [as_complex_signal(s) for s in signals]
        stack = None
    if not rows:
        raise ParameterError("batch must contain at least one signal")
    n = rows[0].size
    for r in rows:
        if r.size != n:
            raise ParameterError("all batch signals must share one length")
    plan_kwargs = {
        key: val for key, val in kwargs.items() if key not in _EXEC_KEYS
    }
    if plan is not None and plan_kwargs:
        raise ParameterError(
            f"plan overrides {sorted(plan_kwargs)} apply only to plan-less "
            f"calls; the given plan fixes its parameters"
        )
    if plan is None:
        if k is None:
            raise ParameterError("either k or a plan must be provided")
        # The resolution seam (repro.core.params): a wisdom hit supplies
        # B/loops/comb for the plan plus — because the batch surface owns
        # them — the execution knobs (backend, executor mode, workers,
        # shard size), never overriding anything the caller pinned.
        resolved = resolve_sfft_config(
            n, k, batch_size=len(rows), explicit=plan_kwargs,
            comb_width=kwargs.get("comb_width"),
        )
        plan = cached_plan(n, k, seed=seed, **resolved.overrides)
        if resolved.source == "wisdom":
            if kwargs.get("comb_width") is None \
                    and resolved.comb_width is not None:
                kwargs["comb_width"] = resolved.comb_width
            explicit_exec = (
                executor is not None
                or kwargs.get("fft_backend") is not None
                or kwargs.get("fft_workers") is not None
            )
            if not explicit_exec:
                if resolved.executor_mode is not None or resolved.workers > 1:
                    from .executor import ShardedExecutor

                    executor = ShardedExecutor(
                        workers=resolved.workers,
                        shard_size=resolved.shard_size,
                        fft_backend=resolved.fft_backend,
                        mode=resolved.executor_mode,
                    )
                elif resolved.fft_backend is not None:
                    kwargs["fft_backend"] = resolved.fft_backend
    exec_kwargs = {
        key: val for key, val in kwargs.items() if key in _EXEC_KEYS
    }
    X = stack if stack is not None else np.stack(rows)
    if executor is not None:
        from .executor import ShardedExecutor

        if isinstance(executor, int):
            executor = ShardedExecutor(workers=executor)
        if not isinstance(executor, ShardedExecutor):
            raise ParameterError(
                f"executor must be a ShardedExecutor or an int worker "
                f"count, got {type(executor).__name__}"
            )
        # The executor owns its FFT-backend binding; per-call
        # fft_backend/fft_workers would silently fight it.
        for key in ("fft_backend", "fft_workers"):
            if key in exec_kwargs:
                raise ParameterError(
                    f"pass {key} to the ShardedExecutor, not alongside "
                    f"executor="
                )
        return executor.run(X, plan, seed=seed, **exec_kwargs)
    return sfft_batch_fused(X, plan, seed=seed, **exec_kwargs)
