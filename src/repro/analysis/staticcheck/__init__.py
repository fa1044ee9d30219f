"""``reprolint`` — static analysis over the repo's own invariants.

Two engines behind one structured finding format (``repro.lint/1``):

* the **kernel access checker** (:mod:`.races`, :mod:`.symbolic`) — turns
  the :mod:`repro.cusim.simt` load/store trace into a race detector
  (write-write and read-write conflicts not routed through
  :mod:`repro.cusim.atomics`, out-of-bounds indices, warp-divergent
  stores) and proves affine store schedules collision-free *for all*
  thread counts, not just traced sizes;
* the **repo-invariant linter** (:mod:`.rules`) — an AST pass over
  ``src/repro`` enforcing the project contracts that PR 1–4 established
  only by convention (single FFT dispatch point, metric-name families,
  frozen workspace arrays, no wall-clock in ``core``/``gpu``, typed
  errors at entry points, env reads only at config seams).

``python -m repro lint`` (see :mod:`.cli`) runs both engines; findings can
be suppressed per line with ``# reprolint: ignore[rule]``.

Shape/dtype contracts (:mod:`.contracts`) are checked at runtime only:
``core/`` pipeline functions declare their dimensional laws with
``@shape_contract``, and ``REPRO_CHECK_CONTRACTS=1`` asserts them against
live arrays on every call.

Re-exports are lazy (PEP 562): ``repro.core`` modules import
:mod:`.contracts` at their own import time, and an eager ``from .races
import ...`` here would drag in :mod:`repro.cusim` (and, transitively,
whatever the battery needs) under every core import.
"""

from importlib import import_module
from typing import Any

_EXPORTS = {
    "collect_findings": ".engine",
    "kernel_battery": ".engine",
    "lint_tree": ".engine",
    "LINT_SCHEMA": ".findings",
    "Finding": ".findings",
    "Suppressions": ".findings",
    "validate_lint_record": ".findings",
    "KernelCheck": ".races",
    "check_kernel": ".races",
    "detect_races": ".races",
    "RULES": ".rules",
    "Rule": ".rules",
    "lint_source": ".rules",
    "AffineIndex": ".symbolic",
    "Proof": ".symbolic",
    "binner_store_index": ".symbolic",
    "fit_affine": ".symbolic",
    "prove_injective": ".symbolic",
    "prove_loop_partition_binner": ".symbolic",
    "Contract": ".contracts",
    "Dim": ".contracts",
    "contract_for": ".contracts",
    "enforcement_enabled": ".contracts",
    "set_enforcement": ".contracts",
    "shape_contract": ".contracts",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
