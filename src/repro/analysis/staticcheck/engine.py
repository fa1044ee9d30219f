"""Orchestration: walk ``src/repro``, run every engine, collect findings.

:func:`lint_tree` runs the AST rules over every library source file;
:func:`kernel_battery` runs the kernel access checker over the
project's kernel contracts:

* the Algorithm-2 loop-partition binner must pass the trace check at a
  concrete size *and* the symbolic proof for all sizes — if either fails,
  the findings propagate into the lint result;
* the deliberately naive histogram kernel is the detector's negative
  control: if the detector ever stops flagging it, the battery emits a
  ``race-detector-selfcheck`` error, so a silently broken detector cannot
  produce a green lint.

Both feed :func:`collect_findings`, the single entry of ``python -m repro
lint``.  Shape/dtype contracts are not a lint engine: :mod:`.contracts`
checks them against live arrays at runtime.
"""

from __future__ import annotations

import os

import numpy as np

from ...errors import ParameterError
from .findings import Finding
from .races import check_kernel
from .rules import lint_source
from .symbolic import prove_loop_partition_binner

__all__ = ["collect_findings", "kernel_battery", "lint_tree", "repo_root"]

#: Battery geometry: small enough to run on every lint, large enough to
#: exercise multiple warps and tail rounds (width < rounds*B).
_BATTERY = {"n": 256, "B": 64, "rounds": 3, "sigma": 5, "tau": 3,
            "width": 180}


def repo_root(start: str | None = None) -> str:
    """The repository root: the directory holding ``src/repro``.

    Walks up from ``start`` (default: this file) — works from a source
    checkout; raises :class:`~repro.errors.ParameterError` when no
    ``src/repro`` can be found (e.g. a site-packages install), in which
    case callers must pass explicit paths.
    """
    here = os.path.abspath(start or os.path.dirname(__file__))
    while True:
        if os.path.isdir(os.path.join(here, "src", "repro")):
            return here
        parent = os.path.dirname(here)
        if parent == here:
            raise ParameterError(
                "cannot locate the repository root (no src/repro above "
                f"{start or __file__}); pass explicit paths to lint"
            )
        here = parent


def lint_tree(root: str | None = None) -> list[Finding]:
    """AST findings over every ``.py`` file under ``src/repro``.

    ``root`` is the repository root (auto-detected by default).  Findings
    are sorted by path, then line, for stable output.
    """
    base = root or repo_root()
    package = os.path.join(base, "src", "repro")
    findings: list[Finding] = []
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            full = os.path.join(dirpath, filename)
            rel_repo = os.path.relpath(full, base).replace(os.sep, "/")
            rel_pkg = os.path.relpath(full, package).replace(os.sep, "/")
            with open(full, encoding="utf-8") as fh:
                source = fh.read()
            findings.extend(
                lint_source(source, path=rel_repo, relpath=rel_pkg)
            )
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def kernel_battery() -> list[Finding]:
    """Race-engine findings for the project's kernel contracts."""
    from ...cusim.device import KEPLER_K20X
    from ...gpu.kernels.histogram import (
        make_naive_histogram_kernel,
        make_partition_binner_kernel,
    )

    findings: list[Finding] = []
    n, B = _BATTERY["n"], _BATTERY["B"]
    rng = np.random.default_rng(2016)

    # 1. Loop-partition binner: trace check at the battery size ...
    binner = make_partition_binner_kernel(
        B=B, rounds=_BATTERY["rounds"], sigma=_BATTERY["sigma"],
        tau=_BATTERY["tau"], n=n, width=_BATTERY["width"],
    )
    signal = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    taps = rng.standard_normal(_BATTERY["width"]) + 0j
    check = check_kernel(
        binner, B, KEPLER_K20X, signal, taps,
        np.zeros(B, dtype=np.complex128),
    )
    findings.extend(f for f in check.findings if f.severity == "error")

    # ... and the symbolic proof for all sizes.
    proof = prove_loop_partition_binner()
    if not (proof.collision_free and proof.universal):
        findings.append(Finding(
            rule="kernel-race", severity="error", engine="race",
            path="src/repro/gpu/kernels/histogram.py", line=1,
            message=f"loop-partition symbolic proof failed: {proof.reason}",
        ))

    # 2. Negative control: the naive histogram must still be flagged.
    keys = np.asarray(rng.integers(0, 8, size=64), dtype=np.int64)
    naive = check_kernel(
        make_naive_histogram_kernel(), keys.size, KEPLER_K20X,
        keys.astype(np.float64), np.zeros(8, dtype=np.float64),
    )
    if not any(f.rule == "kernel-race" for f in naive.findings):
        findings.append(Finding(
            rule="race-detector-selfcheck", severity="error", engine="race",
            path="src/repro/analysis/staticcheck/races.py", line=1,
            message=(
                "negative control failed: the naive atomic-free histogram "
                "kernel was not flagged as racy — the race detector is "
                "broken"
            ),
        ))
    return findings


def collect_findings(
    root: str | None = None, *, kernels: bool = True
) -> list[Finding]:
    """Everything ``python -m repro lint`` reports: both engines' findings."""
    findings = lint_tree(root)
    if kernels:
        findings.extend(kernel_battery())
    return findings
