"""Repo-invariant AST rules — the contracts PR 1–4 left to convention.

Each rule carries its rationale (tied to the architecture decision it
protects); ``docs/static_analysis.md`` renders the same text.  Scoping is
by path relative to the ``repro`` package root (posix separators):

* ``fft-registry-bypass`` — every dense FFT must resolve through
  :mod:`repro.core.fft_backend` (the PR-4 vendor seam).  A direct
  ``numpy.fft``/``scipy.fft``/``pyfftw`` transform call silently ignores
  the configured backend.  Exempt: ``core/fft_backend.py`` itself.
* ``metric-name-family`` — metric name literals must belong to the
  registered ``sfft.*`` / ``cusim.*`` families (the PR-1 naming contract
  that keeps cross-backend dashboards aligned).
* ``workspace-mutation`` — the :class:`~repro.core.workspace.PlanWorkspace`
  derived arrays (gather matrix, tap layout) are shared between worker
  clones; writing them outside ``core/workspace.py`` corrupts every
  concurrent shard (the PR-4 immutability contract).  Inside it, a
  ``PlanWorkspace`` method may set ``self.<attr>`` only in ``__init__``,
  ``clone`` and ``adopt_shared``, or as a lazy-cache fill (a property
  assigning an attribute ``__init__`` set to ``None``): a cached
  workspace is shared by every thread running its plan, so per-call
  scratch stored on it races.
* ``wallclock-in-core`` — ``core/`` and ``gpu/`` must not read host
  clocks directly; timing belongs to the observability layer
  (:func:`repro.obs.monotonic` is the sanctioned seam), so modeled time
  and measured time cannot get conflated.
* ``bare-valueerror`` — library entry points raise
  :class:`~repro.errors.ParameterError` (or another
  :class:`~repro.errors.ReproError`), never bare ``ValueError``, so
  callers can catch one hierarchy.
* ``telemetry-thread-safety`` — the metrics registry's instrument table
  (``MetricsRegistry._instruments``) is guarded by a lock inside
  ``obs/``; code elsewhere must look instruments up through
  ``counter()`` / ``gauge()`` / ``histogram()``, never touch
  ``_instruments`` directly.
* ``span-orphan`` — synthetic spans recorded outside ``obs/`` must say
  which timeline they belong to: an ``add_span(...)`` call without an
  explicit ``track=`` lands on the default CPU track, where the
  critical-path engine (:mod:`repro.obs.critical`) will treat it as
  serial CPU work and misattribute overlap (the PR-7 DAG contract).
* ``param-resolution-bypass`` — the sFFT bucket count and loop count are
  resolved through one seam (``core/params.py``: explicit kwargs > wisdom
  store > environment > paper defaults).  A hardcoded ``B=``/``loops=``
  literal handed to plan or parameter construction outside that seam (and
  outside the tuner's candidate generator, which *produces* the grid)
  silently pins a configuration the wisdom store can never improve.
  Exempt: ``core/params.py``, ``core/parameters.py``, ``tune/``.
* ``env-read-outside-seam`` — process environment reads
  (``os.environ`` / ``os.getenv``) are configuration seams, and the repo
  keeps them enumerable: parameter resolution (``core/params.py``), the
  FFT backend default (``core/fft_backend.py``), the executor's mode and
  fault-injection knobs (``core/executor.py``), and the CLI
  (``__main__.py``).  An env read anywhere else creates ambient config
  the wisdom store, the docs, and the reproducibility story cannot see.
  Suppress (with a rationale comment) only for opt-in debug/test hooks
  such as the runtime contract-enforcement flag.
* ``shm-lifecycle`` — ``multiprocessing.shared_memory`` segments are
  kernel-persistent objects: a leaked name survives the process in
  ``/dev/shm``.  Only ``core/shm.py`` (the PR-8 ownership layer —
  ``SegmentBundle`` guarantees unlink-on-close even across worker
  crashes) may construct ``SharedMemory``; and any function creating a
  segment (``create=True``) must carry a ``.unlink()`` call on some path
  so the half-built-segment failure mode cannot leak.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .findings import Finding, Suppressions

__all__ = ["RULES", "Rule", "lint_source"]


@dataclass(frozen=True)
class Rule:
    """One repo invariant: identity, severity, and rationale."""

    id: str
    severity: str
    summary: str
    rationale: str


RULES: dict[str, Rule] = {r.id: r for r in (
    Rule(
        "fft-registry-bypass", "error",
        "direct numpy.fft/scipy.fft/pyfftw transform call",
        "Dense FFTs must dispatch through repro.core.fft_backend so the "
        "vendor seam (numpy/scipy/pyfftw — the paper's cuFFT/FFTW swap) "
        "stays a single point; a direct call ignores the configured "
        "backend.",
    ),
    Rule(
        "metric-name-family", "error",
        "metric name outside the sfft.*/cusim.* families",
        "The observability layer's naming contract: algorithm metrics are "
        "sfft.*, device-model metrics are cusim.*, dot-separated and "
        "lowercase, so cross-backend dashboards line up.",
    ),
    Rule(
        "workspace-mutation", "error",
        "write to a frozen PlanWorkspace derived array",
        "Worker clones share the gather/tap matrices by reference; a "
        "write outside core/workspace.py corrupts every concurrent "
        "shard.",
    ),
    Rule(
        "wallclock-in-core", "error",
        "host clock read inside core/ or gpu/",
        "core/ and gpu/ produce modeled or algorithmic results; wall "
        "timing belongs to repro.obs (use repro.obs.monotonic), keeping "
        "measured and modeled time separable.",
    ),
    Rule(
        "bare-valueerror", "error",
        "raise ValueError instead of a ReproError subclass",
        "Entry points raise ParameterError/LaunchConfigError (both "
        "ValueError-compatible) so callers catch one hierarchy.",
    ),
    Rule(
        "telemetry-thread-safety", "error",
        "direct access to the metrics registry's instrument table "
        "outside obs/",
        "MetricsRegistry._instruments is mutated under a lock owned by "
        "obs/; outside code must look instruments up through counter(), "
        "gauge() and histogram() or its reads and writes race.",
    ),
    Rule(
        "span-orphan", "error",
        "add_span() without an explicit track= outside obs/",
        "Synthetic spans recorded without a track land on the default "
        "CPU track, where the critical-path engine treats them as serial "
        "CPU work; every add_span outside obs/ must name its track (and "
        "parallel producers should carry parent/shard attrs) so the span "
        "DAG stays reconstructible.",
    ),
    Rule(
        "param-resolution-bypass", "error",
        "hardcoded B=/loops= literal outside the resolution seam",
        "Bucket and loop counts resolve through repro.core.params "
        "(explicit > wisdom > env > defaults); a constant B=/loops= "
        "keyword in plan or parameter construction pins a configuration "
        "the measured wisdom store can never improve.  Thread the value "
        "through the seam, or suppress where a fixed grid is the point.",
    ),
    Rule(
        "env-read-outside-seam", "error",
        "os.environ/os.getenv read outside a sanctioned config seam",
        "Environment reads are configuration inputs; the repo keeps them "
        "enumerable at four seams (core/params.py, core/fft_backend.py, "
        "core/executor.py, __main__.py) so every knob is discoverable "
        "and reproducible.  Reads elsewhere create ambient configuration "
        "— thread the value through a parameter, or suppress with a "
        "rationale for deliberate opt-in hooks.",
    ),
    Rule(
        "shm-lifecycle", "error",
        "SharedMemory constructed outside core/shm.py, or created "
        "without an unlink path",
        "Shared-memory segments outlive the process if never unlinked "
        "(they are names in /dev/shm, not file descriptors); "
        "core/shm.py's SegmentBundle/AttachedSegment own the "
        "create/attach/unlink lifecycle — including unlink-on-close "
        "after worker crashes — so every other module must go through "
        "them, and a creating function must hold a matching .unlink() "
        "on some path.",
    ),
)}

#: FFT transform attribute names that constitute a registry bypass.
_TRANSFORMS = frozenset({
    "fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "fftn", "ifftn",
    "rfftn", "irfftn", "hfft", "ihfft",
})
#: Module roots whose ``.fft``/``.fftpack`` namespaces are vendor FFTs.
_FFT_ROOTS = frozenset({"np", "numpy", "scipy", "pyfftw"})
_METRIC_METHODS = frozenset({"counter", "gauge", "histogram"})
_METRIC_NAME_RE = re.compile(
    r"^(sfft|cusim)\.[a-z0-9_]+(\.[a-z0-9_]+)*$"
)
#: PlanWorkspace derived arrays shared between clones (see workspace.py).
_FROZEN_WORKSPACE_ATTRS = frozenset({
    "gather", "taps_flat", "taps_matrix",
    "_gather", "_taps_flat", "_taps_matrix",
})
#: The PlanWorkspace methods that may set its attributes.
_WORKSPACE_SETTERS = frozenset({"__init__", "clone", "adopt_shared"})
#: In-place ndarray methods that mutate the receiver.
_MUTATING_METHODS = frozenset({"fill", "sort", "put", "partition", "resize"})
_CLOCK_FUNCS = frozenset({"time", "perf_counter", "monotonic",
                          "process_time", "thread_time"})
#: The lock-guarded instrument table of obs/metrics.py's MetricsRegistry.
_REGISTRY_TABLE = "_instruments"
#: The one module allowed to construct SharedMemory (see core/shm.py).
_SHM_OWNER = "core/shm.py"
#: Callables that consume raw B=/loops= keywords (plan/param construction).
_PARAM_SINKS = frozenset({
    "SfftParameters", "derive_parameters", "make_plan", "cached_plan",
    "get_or_make", "dict",
})
_PARAM_KEYS = frozenset({"B", "loops"})

#: Per-rule path exemptions (exact file, or a trailing-slash prefix).
_EXEMPT = {
    "fft-registry-bypass": ("core/fft_backend.py",),
    "workspace-mutation": ("core/workspace.py",),
    "telemetry-thread-safety": ("obs/",),
    # obs/ builds tracers and ingests timelines; it owns track semantics.
    "span-orphan": ("obs/",),
    # The seam itself, the derivation it wraps, and the tuner's candidate
    # grid (which exists to enumerate B/loops values) own the literals.
    "param-resolution-bypass": (
        "core/params.py", "core/parameters.py", "tune/",
    ),
    # The sanctioned configuration seams (see the rule's rationale).
    "env-read-outside-seam": (
        "core/params.py", "core/fft_backend.py", "core/executor.py",
        "__main__.py",
    ),
}
#: wallclock-in-core only *applies* to these subtrees.
_WALLCLOCK_SCOPE = ("core/", "gpu/")


def _exempt(rule_id: str, relpath: str) -> bool:
    for pattern in _EXEMPT.get(rule_id, ()):
        if relpath == pattern or (pattern.endswith("/")
                                  and relpath.startswith(pattern)):
            return True
    return False


def _attr_chain(node: ast.AST) -> list[str] | None:
    """``a.b.c`` -> ``["a", "b", "c"]``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


def _self_attr(node: ast.AST) -> bool:
    """Whether ``node`` is ``self.<attr>``."""
    return isinstance(node, ast.Attribute) \
        and isinstance(node.value, ast.Name) and node.value.id == "self"


def _self_stores(node: ast.AST) -> list[str]:
    """Attributes of ``self`` that statement or call ``node`` sets:
    assignment targets (tuples unpacked) and ``setattr(self, "a", ...)``
    / ``object.__setattr__(self, "a", ...)`` calls."""
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Call):
        chain = _attr_chain(node.func)
        if chain and chain[-1] in ("setattr", "__setattr__") \
                and len(node.args) >= 2 \
                and isinstance(node.args[0], ast.Name) \
                and node.args[0].id == "self":
            name = node.args[1]
            return [name.value if isinstance(name, ast.Constant)
                    else "<dynamic>"]
        return []
    else:
        return []
    attrs = []
    while targets:
        t = targets.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            targets.extend(t.elts)
        elif _self_attr(t):
            attrs.append(t.attr)
    return attrs


class _Visitor(ast.NodeVisitor):
    def __init__(self, relpath: str, path: str) -> None:
        self.relpath = relpath
        self.path = path
        #: ``(finding, end_lineno)`` — the end line widens suppression
        #: matching to every physical line of a wrapped statement.
        self.raw: list[tuple[Finding, int]] = []
        self._time_aliases: set[str] = set()       # `import time as t`
        self._clock_names: set[str] = set()        # `from time import ...`

    def _emit(self, rule_id: str, node: ast.AST, message: str, *,
              scoped: bool = True) -> None:
        if scoped and _exempt(rule_id, self.relpath):
            return
        rule = RULES[rule_id]
        line = getattr(node, "lineno", 0)
        self.raw.append((
            Finding(
                rule=rule.id, severity=rule.severity, path=self.path,
                line=line, col=getattr(node, "col_offset", 0),
                message=message,
            ),
            getattr(node, "end_lineno", None) or line,
        ))

    # -- imports feed the wall-clock rule -----------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "time":
                self._time_aliases.add(alias.asname or "time")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in _CLOCK_FUNCS:
                    self._clock_names.add(alias.asname or alias.name)
        if node.module == "os" and node.level == 0:
            bad = [a.name for a in node.names
                   if a.name in ("environ", "getenv")]
            if bad:
                self._emit(
                    "env-read-outside-seam", node,
                    f"import of {', '.join(bad)} from os — environment "
                    f"reads belong to the config seams (core/params.py, "
                    f"core/fft_backend.py, core/executor.py, __main__.py)",
                )
        if node.module and node.level == 0:
            root = node.module.split(".")[0]
            tail = node.module.split(".")[-1]
            if root in _FFT_ROOTS and tail in ("fft", "fftpack"):
                bad = [a.name for a in node.names
                       if a.name in _TRANSFORMS or a.name == "*"]
                if bad:
                    self._emit(
                        "fft-registry-bypass", node,
                        f"import of {', '.join(bad)} from "
                        f"{node.module} bypasses the FFT backend "
                        f"registry (repro.core.fft_backend)",
                    )
        self.generic_visit(node)

    # -- calls: fft bypass, metric names, clocks, mutation methods ----------

    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        if chain:
            self._check_fft(node, chain)
            self._check_metric(node, chain)
            self._check_clock(node, chain)
            self._check_mutating_method(node, chain)
            self._check_span_orphan(node, chain)
            self._check_shm_ctor(node, chain)
            self._check_param_bypass(node, chain)
        self.generic_visit(node)

    def _check_param_bypass(self, node: ast.Call, chain: list[str]) -> None:
        if chain[-1] not in _PARAM_SINKS:
            return
        for kw in node.keywords:
            if kw.arg in _PARAM_KEYS and isinstance(kw.value, ast.Constant) \
                    and kw.value.value is not None:
                self._emit(
                    "param-resolution-bypass", node,
                    f"hardcoded {kw.arg}={kw.value.value!r} in "
                    f"{chain[-1]}() — resolve through repro.core.params "
                    f"(explicit > wisdom > env > defaults) so the wisdom "
                    f"store stays authoritative",
                )

    def _check_fft(self, node: ast.Call, chain: list[str]) -> None:
        if len(chain) < 2 or chain[-1] not in _TRANSFORMS:
            return
        root = chain[0]
        if root == "pyfftw" or (
            root in _FFT_ROOTS and chain[-2] in ("fft", "fftpack")
        ):
            self._emit(
                "fft-registry-bypass", node,
                f"direct {'.'.join(chain)} call — route through "
                f"repro.core.fft_backend.get_backend() (or "
                f"bucket_fft) so the backend stays swappable",
            )

    def _check_metric(self, node: ast.Call, chain: list[str]) -> None:
        if chain[-1] not in _METRIC_METHODS or not node.args:
            return
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if not _METRIC_NAME_RE.match(arg.value):
                self._emit(
                    "metric-name-family", arg,
                    f"metric name {arg.value!r} is outside the "
                    f"registered sfft.*/cusim.* families "
                    f"(lowercase, dot-separated)",
                )

    def _check_clock(self, node: ast.Call, chain: list[str]) -> None:
        if not self.relpath.startswith(_WALLCLOCK_SCOPE):
            return
        offending = None
        if (len(chain) == 2 and chain[0] in self._time_aliases
                and chain[1] in _CLOCK_FUNCS):
            offending = ".".join(chain)
        elif len(chain) == 1 and chain[0] in self._clock_names:
            offending = chain[0]
        if offending:
            self._emit(
                "wallclock-in-core", node,
                f"{offending}() read inside {self.relpath} — use "
                f"repro.obs.monotonic() so wall timing stays an "
                f"observability concern",
            )

    def _check_span_orphan(self, node: ast.Call, chain: list[str]) -> None:
        if len(chain) < 2 or chain[-1] != "add_span":
            return
        keywords = {kw.arg for kw in node.keywords}
        if None in keywords:
            # A **kwargs splat may well carry track=; don't guess.
            return
        if "track" not in keywords:
            self._emit(
                "span-orphan", node,
                "add_span() without an explicit track= — the span lands "
                "on the default CPU track and the critical-path engine "
                "(repro.obs.critical) will misattribute it; name the "
                "track it belongs to",
            )

    def _check_shm_ctor(self, node: ast.Call, chain: list[str]) -> None:
        # Scoped manually, not via _EXEMPT: core/shm.py is exempt from the
        # constructor check but still subject to the unlink-path check in
        # visit_FunctionDef.
        if chain[-1] != "SharedMemory" or self.relpath == _SHM_OWNER:
            return
        self._emit(
            "shm-lifecycle", node,
            "SharedMemory constructed outside core/shm.py — use "
            "SegmentBundle (owning create) or AttachedSegment (worker "
            "attach) so unlink-on-close holds even across worker crashes",
        )

    def _check_mutating_method(self, node: ast.Call, chain: list[str]) -> None:
        if len(chain) >= 3 and chain[-1] in _MUTATING_METHODS \
                and chain[-2] in _FROZEN_WORKSPACE_ATTRS:
            self._emit(
                "workspace-mutation", node,
                f"in-place {chain[-1]}() on shared workspace array "
                f".{chain[-2]} — derived arrays are shared across "
                f"worker clones",
            )

    # -- functions: segment creation must carry an unlink path --------------

    @staticmethod
    def _same_scope(node: ast.AST) -> Iterator[ast.AST]:
        """Descendants of ``node`` excluding nested function bodies."""
        stack = list(ast.iter_child_nodes(node))
        while stack:
            sub = stack.pop()
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
                continue
            yield sub
            stack.extend(ast.iter_child_nodes(sub))

    def _check_shm_unlink_path(self, node: ast.AST) -> None:
        creates: list[ast.Call] = []
        has_unlink = False
        for sub in self._same_scope(node):
            if not isinstance(sub, ast.Call):
                continue
            chain = _attr_chain(sub.func)
            if not chain:
                continue
            if chain[-1] == "SharedMemory" and any(
                kw.arg == "create" and isinstance(kw.value, ast.Constant)
                and kw.value.value is True for kw in sub.keywords
            ):
                creates.append(sub)
            elif chain[-1] == "unlink":
                has_unlink = True
        if not has_unlink:
            for sub in creates:
                self._emit(
                    "shm-lifecycle", sub,
                    "SharedMemory(create=True) without a matching "
                    ".unlink() anywhere in this function — a failure "
                    "between create and the owner's close() leaks the "
                    "segment in /dev/shm",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_shm_unlink_path(node)
        self.generic_visit(node)

    # -- classes: PlanWorkspace attributes are set in few places ------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if node.name == "PlanWorkspace" \
                and self.relpath == "core/workspace.py":
            self._check_workspace_attrs(node)
        self.generic_visit(node)

    def _check_workspace_attrs(self, cls: ast.ClassDef) -> None:
        methods = [f for f in cls.body if isinstance(f, ast.FunctionDef)]
        # Lazy caches: attributes __init__ sets to None.
        lazy = {
            attr
            for f in methods if f.name == "__init__"
            for sub in ast.walk(f)
            if isinstance(getattr(sub, "value", None), ast.Constant)
            and sub.value.value is None
            for attr in _self_stores(sub)
        }
        for f in methods:
            if f.name in _WORKSPACE_SETTERS:
                continue
            fills = lazy if any(isinstance(d, ast.Name) and d.id == "property"
                                for d in f.decorator_list) else set()
            for sub in ast.walk(f):
                for attr in _self_stores(sub):
                    if attr in fills:
                        continue
                    self._emit(
                        "workspace-mutation", sub,
                        f"PlanWorkspace.{f.name} sets self.{attr} — a "
                        f"cached workspace is shared by every thread "
                        f"running its plan; only __init__, clone, "
                        f"adopt_shared and lazy-cache fills may set "
                        f"attributes (keep per-call scratch local)",
                        scoped=False,
                    )

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_shm_unlink_path(node)
        self.generic_visit(node)

    # -- stores: workspace mutation -----------------------------------------

    def _frozen_target(self, target: ast.AST) -> str | None:
        node = target
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute) \
                and node.attr in _FROZEN_WORKSPACE_ATTRS \
                and isinstance(node.value, (ast.Name, ast.Attribute)):
            return node.attr
        return None

    def _check_store_targets(
        self, node: ast.AST, targets: Sequence[ast.AST]
    ) -> None:
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                self._check_store_targets(node, target.elts)
                continue
            attr = self._frozen_target(target)
            if attr is not None:
                self._emit(
                    "workspace-mutation", node,
                    f"write to shared workspace array .{attr} — only "
                    f"core/workspace.py may build or replace the "
                    f"derived arrays (clones share them by reference)",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_store_targets(node, node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store_targets(node, [node.target])
        self.generic_visit(node)

    # -- attribute loads/stores: env reads, registry internals --------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = _attr_chain(node)
        if chain in (["os", "environ"], ["os", "getenv"]):
            # Matches only the two-element chain, so `os.environ.get(...)`
            # emits once (on the inner `os.environ` node, not on `.get`).
            self._emit(
                "env-read-outside-seam", node,
                f"{'.'.join(chain)} read outside a sanctioned config seam "
                f"(core/params.py, core/fft_backend.py, core/executor.py, "
                f"__main__.py) — thread the value through a parameter, or "
                f"suppress with a rationale for a deliberate opt-in hook",
            )
        if node.attr == _REGISTRY_TABLE:
            self._emit(
                "telemetry-thread-safety", node,
                f"direct .{_REGISTRY_TABLE} access outside obs/ — look "
                f"instruments up through counter() / gauge() / "
                f"histogram(); the table is lock-guarded",
            )
        self.generic_visit(node)

    # -- raises: error hierarchy --------------------------------------------

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        name = None
        if isinstance(exc, ast.Call):
            chain = _attr_chain(exc.func)
            name = chain[-1] if chain else None
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name == "ValueError":
            self._emit(
                "bare-valueerror", node,
                "raise ParameterError (or another ReproError subclass, "
                "all ValueError-compatible) instead of bare ValueError",
            )
        self.generic_visit(node)


def lint_source(
    source: str, *, path: str, relpath: str | None = None
) -> list[Finding]:
    """AST findings for one file, suppressions already applied.

    ``path`` is the anchor written into findings (repo-relative, posix);
    ``relpath`` is the package-root-relative path used for rule scoping
    (defaults to ``path`` with any leading ``src/repro/`` stripped).
    """
    if relpath is None:
        relpath = path
        for prefix in ("src/repro/", "repro/"):
            if relpath.startswith(prefix):
                relpath = relpath[len(prefix):]
                break
    tree = ast.parse(source, filename=path)
    visitor = _Visitor(relpath, path)
    visitor.visit(tree)
    suppressions = Suppressions(source)
    kept = []
    for finding, end_line in visitor.raw:
        if not suppressions.covers(finding.rule, finding.line, end_line):
            kept.append(finding)
    return kept
