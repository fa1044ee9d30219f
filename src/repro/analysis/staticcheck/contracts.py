"""Shape/dtype contracts for the core numpy dataflow.

The cusFFT pipeline is a chain of array transformations with exact
dimensional laws: permute/filter gathers ``(L, rounds*B)`` windows,
fused binning folds them to ``(L, B)`` (``(S, L, B)`` in the batch
path), the bucket FFT runs over ``(S*L, B)`` rows, and recovery votes
per signal over sorted candidate keys.  This module
lets those laws be *declared* at the function boundary::

    @shape_contract("x:(n,) -> (L, B)", dtype="complex128",
                    bind={"n": "self.n", "L": "self.loops", "B": "self.B"})
    def bin_fused(self, x, out=None): ...

and consumed twice:

* **statically** — :mod:`.shapes` abstract-interprets each decorated
  body, propagating symbolic shapes through the repo's numpy idioms and
  discharging dimension equalities with :func:`..symbolic.prove_product_equal`;
* **dynamically** — with ``REPRO_CHECK_CONTRACTS=1`` (or
  :func:`set_enforcement`), a thin wrapper binds the symbolic dims
  against live arrays on every call and raises
  :class:`~repro.errors.ContractError` on drift, so the static and
  runtime views of the same declaration can never disagree silently.

Grammar
-------
``spec`` is ``"arg:(dims)[:dtype], ... -> (dims) | * | @path"``:

* a *dim* is a product of integer literals and symbols: ``n``, ``4``,
  ``S*L``, ``rounds*B``;
* ``*`` leaves a shape unconstrained (the arg/return still participates
  in dtype checks and static dataflow);
* an output of ``@self.shape`` defers to a runtime attribute (used by
  ``SharedArraySpec.as_array``, whose shape *is* its spec field);
* ``bind`` maps symbols to runtime paths (``"plan.n"``,
  ``"permutations[0].n"``, ``"len(selected)"``) so dims can be pinned
  from non-array arguments;
* ``attrs`` declares shapes/dtypes of attributes the body reads
  (``{"self.gather": "(L, rounds*B):int64", "self._padded": "rounds*B"}``) —
  the static checker's window into instance state.
"""

from __future__ import annotations

import functools
import inspect
import os
import re
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from typing import Any, TypeVar, cast

import numpy as np

from ...errors import ContractError, ParameterError

__all__ = [
    "ANY_DIM",
    "ArgSpec",
    "Contract",
    "Dim",
    "ShapeSpec",
    "contract_for",
    "enforcement_enabled",
    "parse_attr_spec",
    "parse_dim",
    "parse_shape_spec",
    "registered_contracts",
    "set_enforcement",
    "shape_contract",
]

# The one sanctioned env read outside the config seams: this flag is the
# runtime-enforcement master switch and must be readable before any core
# module (params included) is imported, or the decorators would already
# have chosen pass-through wrappers.
_enforce: bool = (
    os.environ.get("REPRO_CHECK_CONTRACTS", "")  # reprolint: ignore[env-read-outside-seam]
    not in ("", "0")
)


def enforcement_enabled() -> bool:
    """Whether runtime contract checks are currently active."""
    return _enforce


def set_enforcement(enabled: bool) -> bool:
    """Toggle runtime contract enforcement; returns the previous state.

    The tier-1 conftest calls this when ``REPRO_CHECK_CONTRACTS=1`` so a
    process that imported :mod:`repro` before setting the variable still
    enforces.
    """
    global _enforce
    previous = _enforce
    _enforce = bool(enabled)
    return previous


class _AnyDim:
    """The unconstrained dimension (spelled ``?`` in specs, shown as ``?``)."""

    _instance: "_AnyDim | None" = None

    def __new__(cls) -> "_AnyDim":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "?"


ANY_DIM = _AnyDim()


@dataclass(frozen=True)
class Dim:
    """A symbolic dimension in product normal form: ``coeff * prod(syms)``.

    ``syms`` is kept sorted, so structural equality *is* product equality
    up to commutativity — ``rounds*B == B*rounds`` by construction.
    """

    coeff: int = 1
    syms: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "syms", tuple(sorted(self.syms)))

    def times(self, other: "Dim") -> "Dim":
        return Dim(self.coeff * other.coeff, self.syms + other.syms)

    @property
    def is_constant(self) -> bool:
        return not self.syms

    def render(self) -> str:
        parts = list(self.syms)
        if self.coeff != 1 or not parts:
            parts.insert(0, str(self.coeff))
        return "*".join(parts)

    def __repr__(self) -> str:
        return self.render()


DimLike = Dim | _AnyDim

_IDENT_RE = re.compile(r"^[A-Za-z_]\w*$")
_INT_RE = re.compile(r"^\d+$")


def parse_dim(text: str) -> DimLike:
    """Parse one dim: ``"n"``, ``"4"``, ``"S*L"``, ``"rounds*B"``, ``"?"``."""
    text = text.strip()
    if text in ("?", "_"):
        return ANY_DIM
    coeff = 1
    syms: list[str] = []
    for factor in text.split("*"):
        factor = factor.strip()
        if _INT_RE.match(factor):
            coeff *= int(factor)
        elif _IDENT_RE.match(factor):
            syms.append(factor)
        else:
            raise ParameterError(f"malformed dim factor {factor!r} in {text!r}")
    return Dim(coeff, tuple(syms))


@dataclass(frozen=True)
class ShapeSpec:
    """One side of a contract: a dim tuple, or unconstrained, or deferred.

    ``dims is None`` means the shape is unconstrained (``*``);
    ``shape_path`` defers the expected shape to a runtime attribute path
    (``@self.shape``).  ``dtype`` may itself be a deferred ``@path``.
    """

    dims: tuple[DimLike, ...] | None = None
    dtype: str | None = None
    shape_path: str | None = None

    def render_dims(self) -> str:
        if self.shape_path is not None:
            return f"@{self.shape_path}"
        if self.dims is None:
            return "*"
        return "(" + ", ".join(repr(d) for d in self.dims) + ")"


@dataclass(frozen=True)
class ArgSpec:
    name: str
    spec: ShapeSpec


def _split_top_commas(text: str) -> list[str]:
    """Split on commas not nested inside parentheses/brackets."""
    parts: list[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    tail = text[start:]
    if tail.strip():
        parts.append(tail)
    return parts


def parse_shape_spec(text: str) -> ShapeSpec:
    """Parse ``"(S, n)"``, ``"(n,)"``, ``"*"``, ``"(L, B):complex128"``,
    ``"*:int64"``, or ``"@self.shape"``."""
    text = text.strip()
    if text.startswith("@"):
        return ShapeSpec(dims=None, dtype=None, shape_path=text[1:].strip())
    dtype: str | None = None
    if text.startswith("("):
        close = text.rfind(")")
        if close < 0:
            raise ParameterError(f"unbalanced parens in shape spec {text!r}")
        body, rest = text[1:close], text[close + 1:].strip()
        if rest:
            if not rest.startswith(":"):
                raise ParameterError(f"malformed shape spec {text!r}")
            dtype = rest[1:].strip()
        dims = tuple(parse_dim(part) for part in _split_top_commas(body))
        return ShapeSpec(dims=dims, dtype=dtype)
    if text.startswith("*"):
        rest = text[1:].strip()
        if rest:
            if not rest.startswith(":"):
                raise ParameterError(f"malformed shape spec {text!r}")
            dtype = rest[1:].strip()
        return ShapeSpec(dims=None, dtype=dtype)
    raise ParameterError(f"malformed shape spec {text!r}")


def parse_attr_spec(text: str) -> "ShapeSpec | DimLike":
    """Parse an ``attrs`` value: an array spec or a bare scalar dim.

    ``"(L, B):complex128"`` describes an array attribute; a bare product
    like ``"rounds*B"`` describes an integer attribute whose value the
    body may use as a dimension.
    """
    text = text.strip()
    if text.startswith(("(", "*", "@")):
        return parse_shape_spec(text)
    return parse_dim(text)


def _parse_contract_spec(spec: str) -> tuple[tuple[ArgSpec, ...], ShapeSpec]:
    if "->" not in spec:
        raise ParameterError(f"contract spec missing '->': {spec!r}")
    left, _, right = spec.partition("->")
    inputs: list[ArgSpec] = []
    for item in _split_top_commas(left):
        item = item.strip()
        if not item:
            continue
        colon = item.find(":")
        if colon < 0:
            raise ParameterError(
                f"input {item!r} in {spec!r} needs 'name:shape'"
            )
        name, shape_text = item[:colon].strip(), item[colon + 1:].strip()
        if not _IDENT_RE.match(name):
            raise ParameterError(f"malformed input name {name!r} in {spec!r}")
        inputs.append(ArgSpec(name=name, spec=parse_shape_spec(shape_text)))
    return tuple(inputs), parse_shape_spec(right.strip())


@dataclass
class Contract:
    """A parsed ``@shape_contract`` declaration bound to its function."""

    spec: str
    inputs: tuple[ArgSpec, ...]
    output: ShapeSpec
    bind: dict[str, str] = field(default_factory=dict)
    attrs: dict[str, str] = field(default_factory=dict)
    expect_violation: bool = False
    fn: Callable[..., Any] | None = None
    name: str = ""
    qualname: str = ""
    module: str = ""
    is_method: bool = False

    @property
    def key(self) -> str:
        return f"{self.module}.{self.qualname}"

    def attr_specs(self) -> dict[str, "ShapeSpec | DimLike"]:
        return {path: parse_attr_spec(text) for path, text in self.attrs.items()}

    def symbols(self) -> frozenset[str]:
        """Every symbol this contract mentions — its global vocabulary."""
        names: set[str] = set(self.bind)
        specs: list[ShapeSpec] = [arg.spec for arg in self.inputs]
        specs.append(self.output)
        for parsed in self.attr_specs().values():
            if isinstance(parsed, ShapeSpec):
                specs.append(parsed)
            elif isinstance(parsed, Dim):
                names.update(parsed.syms)
        for shape in specs:
            for dim in shape.dims or ():
                if isinstance(dim, Dim):
                    names.update(dim.syms)
        return frozenset(names)


_REGISTRY: dict[str, Contract] = {}


def registered_contracts() -> tuple[Contract, ...]:
    """All contracts registered by imported modules, in import order."""
    return tuple(_REGISTRY.values())


def contract_for(fn: Callable[..., Any]) -> Contract | None:
    """The contract attached to a decorated callable, if any."""
    found = getattr(fn, "__shape_contract__", None)
    return found if isinstance(found, Contract) else None


_PATH_SEG_RE = re.compile(r"^([A-Za-z_]\w*)((?:\[\d+\])*)$")


def _resolve_path(path: str, arguments: Mapping[str, Any]) -> Any:
    """Resolve a bind path like ``plan.params.B``, ``permutations[0].n``,
    or ``len(selected)`` against the call's bound arguments."""
    text = path.strip()
    wrap_len = False
    if text.startswith("len(") and text.endswith(")"):
        wrap_len = True
        text = text[4:-1].strip()
    value: Any = None
    for i, segment in enumerate(text.split(".")):
        match = _PATH_SEG_RE.match(segment.strip())
        if match is None:
            raise ParameterError(f"malformed bind path {path!r}")
        name, subscripts = match.group(1), match.group(2)
        if i == 0:
            value = arguments[name]
        else:
            value = getattr(value, name)
        for idx in re.findall(r"\[(\d+)\]", subscripts):
            value = value[int(idx)]
    return len(value) if wrap_len else value


_SKIP = (AttributeError, KeyError, IndexError, TypeError)


def _eval_dim(dim: Dim, env: dict[str, int]) -> tuple[int, list[str]]:
    """Split a dim into its known product and unresolved symbols."""
    known = dim.coeff
    unknown: list[str] = []
    for sym in dim.syms:
        if sym in env:
            known *= env[sym]
        else:
            unknown.append(sym)
    return known, unknown


def _check_shape(
    contract: Contract,
    where: str,
    dims: tuple[DimLike, ...],
    shape: tuple[int, ...],
    env: dict[str, int],
) -> None:
    if len(shape) != len(dims):
        raise ContractError(
            f"{contract.key}: {where}: expected {len(dims)}-D shape "
            f"{ShapeSpec(dims=dims).render_dims()}, got shape {shape} "
            f"[contract {contract.spec!r}]"
        )
    for axis, dim in enumerate(dims):
        if isinstance(dim, _AnyDim):
            continue
        actual = shape[axis]
        known, unknown = _eval_dim(dim, env)
        if not unknown:
            if known != actual:
                raise ContractError(
                    f"{contract.key}: {where}: axis {axis} is {actual}, "
                    f"contract requires {dim!r} = {known} "
                    f"[contract {contract.spec!r}]"
                )
        elif len(unknown) == 1:
            # One free symbol: solve it, requiring exact divisibility.
            if known <= 0 or actual % known != 0:
                raise ContractError(
                    f"{contract.key}: {where}: axis {axis} is {actual}, "
                    f"not a multiple of the bound factors of {dim!r} "
                    f"({known}) [contract {contract.spec!r}]"
                )
            env[unknown[0]] = actual // known
        # >= 2 free symbols: underdetermined — no check possible here.


def _check_dtype(
    contract: Contract,
    where: str,
    declared: str,
    value: Any,
    arguments: Mapping[str, Any],
) -> None:
    if declared.startswith("@"):
        try:
            declared = str(_resolve_path(declared[1:], arguments))
        except _SKIP:
            return
    actual = getattr(value, "dtype", None)
    if actual is None:
        return
    try:
        expected = np.dtype(declared)
    except TypeError:
        raise ParameterError(
            f"{contract.key}: contract declares unknown dtype {declared!r}"
        ) from None
    if np.dtype(actual) != expected:
        raise ContractError(
            f"{contract.key}: {where}: dtype is {actual}, contract "
            f"requires {expected} [contract {contract.spec!r}]"
        )


def _bind_env(
    contract: Contract, arguments: Mapping[str, Any]
) -> dict[str, int]:
    env: dict[str, int] = {}
    for sym, path in contract.bind.items():
        try:
            value = _resolve_path(path, arguments)
        except _SKIP:
            continue
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            env[sym] = int(value)
    return env


def _check_inputs(
    contract: Contract,
    arguments: Mapping[str, Any],
    env: dict[str, int],
) -> None:
    for arg in contract.inputs:
        if arg.name not in arguments:
            continue
        value = arguments[arg.name]
        if value is None:
            continue
        spec = arg.spec
        if spec.dims is not None:
            try:
                shape = tuple(int(d) for d in np.shape(value))
            except _SKIP + (ValueError,):
                continue
            _check_shape(contract, f"argument {arg.name!r}", spec.dims,
                         shape, env)
        if spec.dtype is not None and isinstance(value, np.ndarray):
            _check_dtype(contract, f"argument {arg.name!r}", spec.dtype,
                         value, arguments)


def _check_output(
    contract: Contract,
    result: Any,
    arguments: Mapping[str, Any],
    env: dict[str, int],
) -> None:
    out = contract.output
    if out.shape_path is not None:
        try:
            expected = tuple(int(d) for d in _resolve_path(out.shape_path,
                                                           arguments))
        except _SKIP:
            expected = None
        if expected is not None:
            actual = tuple(int(d) for d in np.shape(result))
            if actual != expected:
                raise ContractError(
                    f"{contract.key}: return value: shape {actual} != "
                    f"@{out.shape_path} = {expected} "
                    f"[contract {contract.spec!r}]"
                )
    elif out.dims is not None:
        actual = tuple(int(d) for d in np.shape(result))
        _check_shape(contract, "return value", out.dims, actual, env)
    if out.dtype is not None and isinstance(result, np.ndarray):
        _check_dtype(contract, "return value", out.dtype, result, arguments)


def check_call(
    contract: Contract,
    fn: Callable[..., Any],
    args: tuple[Any, ...],
    kwargs: dict[str, Any],
) -> Any:
    """Run one enforced call: bind dims, check inputs, call, check output.

    Input violations are *deferred*: the wrapped function is given the
    chance to raise its own (typically more specific) validation error
    first, so ``pytest.raises(ParameterError, match=...)`` assertions on
    existing validation keep passing under enforcement.  Only if the
    function silently accepts an input the contract rejects does the
    :class:`ContractError` surface — which is exactly the drift the
    runtime mode exists to catch.
    """
    try:
        signature = inspect.signature(fn)
        bound = signature.bind_partial(*args, **kwargs)
        bound.apply_defaults()
        arguments: Mapping[str, Any] = bound.arguments
    except TypeError:
        return fn(*args, **kwargs)
    env = _bind_env(contract, arguments)
    deferred: ContractError | None = None
    try:
        _check_inputs(contract, arguments, env)
    except ContractError as exc:
        deferred = exc
    result = fn(*args, **kwargs)
    if deferred is not None:
        raise deferred
    _check_output(contract, result, arguments, env)
    return result


_F = TypeVar("_F", bound=Callable[..., Any])


def shape_contract(
    spec: str,
    *,
    dtype: str | None = None,
    bind: Mapping[str, str] | None = None,
    attrs: Mapping[str, str] | None = None,
    expect_violation: bool = False,
) -> Callable[[_F], _F]:
    """Declare a shape/dtype contract on a function (see module docstring).

    ``dtype`` constrains the return value (shorthand for an output
    ``:dtype`` suffix).  ``expect_violation=True`` marks a seeded
    negative control: the static checker must find a violation in the
    body or it emits a ``shape-checker-selfcheck`` error.
    """
    inputs, output = _parse_contract_spec(spec)
    if dtype is not None:
        if output.dtype is not None:
            raise ParameterError(
                f"contract {spec!r} declares dtype twice (suffix and kwarg)"
            )
        output = replace(output, dtype=dtype)
    contract = Contract(
        spec=spec,
        inputs=inputs,
        output=output,
        bind=dict(bind or {}),
        attrs=dict(attrs or {}),
        expect_violation=expect_violation,
    )

    def decorate(fn: _F) -> _F:
        contract.fn = fn
        contract.name = fn.__name__
        contract.qualname = fn.__qualname__
        contract.module = fn.__module__
        parameters = list(inspect.signature(fn).parameters)
        contract.is_method = bool(parameters) and parameters[0] == "self"
        for arg in contract.inputs:
            if arg.name not in parameters:
                raise ParameterError(
                    f"{contract.key}: contract names unknown parameter "
                    f"{arg.name!r}"
                )
        _REGISTRY[contract.key] = contract

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _enforce:
                return fn(*args, **kwargs)
            return check_call(contract, fn, args, kwargs)

        setattr(wrapper, "__shape_contract__", contract)
        return cast(_F, wrapper)

    return decorate
