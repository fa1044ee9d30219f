"""The single parameter-resolution seam: explicit > wisdom > defaults.

Every plan-less transform call (``sfft(x, k)``, ``sfft_batch(stack, k)``)
routes its tuned knobs through :func:`resolve_sfft_config` before touching
the plan cache, by way of their shared plan-resolution path
:func:`~repro.core.sfft.resolve_plan`.  Precedence, highest first:

1. **explicit kwargs** — any derivation override (or an explicit
   ``comb_width``) passed by the caller pins the configuration verbatim;
2. **wisdom store** — a fresh ``repro.wisdom/1`` entry for the workload
   class (``REPRO_WISDOM`` names the store; see :mod:`repro.tune.wisdom`);
   entries whose plan fingerprint no longer matches current derivation
   code are *stale* and skipped;
3. **paper defaults** — :func:`~repro.core.parameters.derive_parameters`
   untouched.

Consumption is observable: when a wisdom store is configured, every
resolution increments exactly one of ``sfft.wisdom.hit`` /
``sfft.wisdom.miss`` / ``sfft.wisdom.stale`` on the **global** metrics
registry (never on a per-run registry: run registries keep CPU/GPU metric
name parity, and the device model has no resolution step), and the chosen
``source`` string is what run records echo as ``config_source``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "ENV_WISDOM",
    "RESOLUTION_SOURCES",
    "ResolvedConfig",
    "resolve_sfft_config",
]

ENV_WISDOM = "REPRO_WISDOM"

#: Where a resolved configuration can come from, highest precedence first.
RESOLUTION_SOURCES = ("explicit", "wisdom", "default")


@dataclass(frozen=True)
class ResolvedConfig:
    """One resolution verdict: the overrides to apply and their provenance.

    ``overrides`` feeds plan derivation (:func:`~repro.core.plan_cache.
    cached_plan`); the execution fields (``fft_backend``, ``workers``)
    only apply to batch calls, which are the surface that owns those
    knobs.
    """

    source: str
    overrides: dict[str, Any] = field(default_factory=dict)
    comb_width: int | None = None
    fft_backend: str | None = None
    workers: int = 1
    class_key: str | None = None


def _count(name: str) -> None:
    from ..obs import global_registry

    global_registry().counter(name).inc()


def _from_wisdom(n: int, k: int, *, batch_size: int, noise_class: str,
                 path: str) -> ResolvedConfig | None:
    """The wisdom leg: lookup, staleness check, metrics. ``None`` = miss."""
    from ..tune.wisdom import (
        is_stale,
        load_wisdom,
        lookup_records,
        wisdom_overrides,
    )

    record = lookup_records(
        load_wisdom(path), n, k,
        noise_class=noise_class, batch_size=batch_size,
    )
    if record is None:
        _count("sfft.wisdom.miss")
        return None
    if is_stale(record, n, k):
        _count("sfft.wisdom.stale")
        return None
    _count("sfft.wisdom.hit")
    config = record["config"]
    return ResolvedConfig(
        source="wisdom",
        overrides=wisdom_overrides(record),
        comb_width=config.get("comb_width"),
        fft_backend=config.get("fft_backend"),
        workers=int(config.get("workers", 1) or 1),
        class_key=record["class"],
    )


def resolve_sfft_config(
    n: int,
    k: int,
    *,
    batch_size: int = 1,
    noise_class: str = "exact",
    explicit: dict[str, Any] | None = None,
    comb_width: int | None = None,
    wisdom_path: str | None = None,
) -> ResolvedConfig:
    """Resolve the tuned knobs for one ``(n, k)`` call site.

    ``explicit`` is the caller's derivation-override dict (possibly
    empty); any entry — or an explicit ``comb_width`` — short-circuits the
    whole chain, so passing overrides always behaves exactly as before
    wisdom existed.  ``wisdom_path`` overrides ``$REPRO_WISDOM`` (mostly
    for tests); an empty string disables the wisdom leg outright.
    """
    explicit = dict(explicit or {})
    if explicit or comb_width is not None:
        return ResolvedConfig(
            source="explicit", overrides=explicit, comb_width=comb_width
        )

    path = wisdom_path if wisdom_path is not None \
        else os.environ.get(ENV_WISDOM, "")
    if path:
        resolved = _from_wisdom(
            n, k, batch_size=batch_size, noise_class=noise_class,
            path=path,
        )
        if resolved is not None:
            return resolved
    return ResolvedConfig(source="default")
