"""Spec auditing: check declared access patterns against measured addresses.

The cost model trusts each kernel's *declared* access patterns (a
``GlobalAccess`` saying "this gather is random").  An audit closes the
loop: given the actual per-thread byte addresses a kernel would issue, it
measures the transaction count and classifies the observed pattern, so
tests can assert that, e.g., the Algorithm-2 gather really does pay ~one
transaction per element for real plans — not just by declaration.

This is the simulator's equivalent of checking a performance model against
``nvprof``'s ``gld_transactions`` counter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from .device import DeviceSpec
from .memory import AccessPattern, GlobalAccess, measure_transactions, transaction_count

__all__ = ["AccessAudit", "audit_addresses", "classify_pattern"]


@dataclass(frozen=True)
class AccessAudit:
    """Measured access statistics for one address trace.

    Attributes
    ----------
    elements:
        Addresses in the trace.
    transactions:
        Measured 128-byte transactions (warp-granular distinct segments).
    transactions_per_element:
        The coalescing figure of merit: 1.0 = fully scattered,
        ``element_bytes/128`` = perfectly coalesced.
    classified:
        The :class:`AccessPattern` whose analytic count best matches.
    analytic_counts:
        Analytic transaction count per candidate pattern.
    """

    elements: int
    element_bytes: int
    transactions: int
    transactions_per_element: float
    classified: AccessPattern
    analytic_counts: dict[AccessPattern, int]

    def matches(self, declared: AccessPattern, *, rel_tol: float = 0.15) -> bool:
        """True when the measured count is within ``rel_tol`` of the
        declared pattern's analytic count."""
        expect = self.analytic_counts[declared]
        if expect == 0:
            return self.transactions == 0
        return abs(self.transactions - expect) <= rel_tol * expect


def audit_addresses(
    byte_addresses: np.ndarray, element_bytes: int, device: DeviceSpec
) -> AccessAudit:
    """Measure and classify one per-thread address trace."""
    addr = np.asarray(byte_addresses)
    if addr.ndim != 1 or addr.size == 0:
        raise ParameterError("need a non-empty 1-D address trace")
    measured = measure_transactions(addr, device)
    analytic = {
        pattern: transaction_count(
            GlobalAccess(pattern, addr.size, element_bytes), device
        )
        for pattern in (
            AccessPattern.COALESCED,
            AccessPattern.RANDOM,
            AccessPattern.BROADCAST,
        )
    }
    classified = min(
        analytic, key=lambda p: abs(analytic[p] - measured)
    )
    return AccessAudit(
        elements=int(addr.size),
        element_bytes=int(element_bytes),
        transactions=measured,
        transactions_per_element=measured / addr.size,
        classified=classified,
        analytic_counts=analytic,
    )


def classify_pattern(
    byte_addresses: np.ndarray, element_bytes: int, device: DeviceSpec
) -> AccessPattern:
    """Shorthand: just the best-matching pattern for a trace."""
    return audit_addresses(byte_addresses, element_bytes, device).classified
