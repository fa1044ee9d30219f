"""The contract grammar and the opt-in runtime enforcement mode.

This file pins the declaration layer (dim/spec parsing, lookup,
decoration-time validation) and the runtime check: with enforcement on,
live arrays are bound against the symbolic dims on every call, input
violations defer to the function's own validation error, and drift raises
:class:`~repro.errors.ContractError` — a :class:`ParameterError`
subclass, so existing ``pytest.raises(ParameterError)`` suites keep
passing under ``REPRO_CHECK_CONTRACTS=1``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.staticcheck.contracts import (
    ANY_DIM,
    Dim,
    contract_for,
    enforcement_enabled,
    parse_dim,
    parse_shape_spec,
    set_enforcement,
    shape_contract,
)
from repro.errors import ContractError, ParameterError


@pytest.fixture(autouse=True)
def _restore_enforcement():
    """Isolate the enforcement flag per test."""
    saved_enforce = enforcement_enabled()
    try:
        yield
    finally:
        set_enforcement(saved_enforce)


class TestGrammar:
    def test_parse_dim_forms(self):
        assert parse_dim("n") == Dim(1, ("n",))
        assert parse_dim("4") == Dim(4)
        assert parse_dim("2*B") == Dim(2, ("B",))
        assert parse_dim("?") is ANY_DIM

    def test_dim_products_commute_structurally(self):
        assert parse_dim("rounds*B") == parse_dim("B*rounds")
        assert Dim(2, ("a", "b")) == Dim(2, ("b", "a"))

    def test_parse_dim_rejects_garbage(self):
        with pytest.raises(ParameterError):
            parse_dim("n+1")
        with pytest.raises(ParameterError):
            parse_dim("n * ")

    def test_parse_shape_spec_forms(self):
        spec = parse_shape_spec("(L, B):complex128")
        assert spec.dims == (Dim(1, ("L",)), Dim(1, ("B",)))
        assert spec.dtype == "complex128"
        assert parse_shape_spec("(n,)").dims == (Dim(1, ("n",)),)
        assert parse_shape_spec("*").dims is None
        assert parse_shape_spec("*:int64").dtype == "int64"
        assert parse_shape_spec("@self.shape").shape_path == "self.shape"

    def test_parse_shape_spec_rejects_malformed(self):
        for bad in ("(n", "n)", "(n,) int64", "*int64"):
            with pytest.raises(ParameterError):
                parse_shape_spec(bad)

    def test_contract_spec_requires_arrow_and_named_inputs(self):
        with pytest.raises(ParameterError):
            shape_contract("x:(n,)")
        with pytest.raises(ParameterError):
            shape_contract("(n,) -> (n,)")

    def test_decoration_rejects_unknown_parameter(self):
        with pytest.raises(ParameterError, match="unknown parameter"):
            @shape_contract("y:(n,) -> (n,)")
            def fn(x):
                return x

    def test_decoration_rejects_unused_bind(self):
        with pytest.raises(ParameterError, match=r"\['W'\] that no dim"):
            @shape_contract("x:(n,) -> (B,)",
                            bind={"n": "perm.n", "B": "B", "W": "width"})
            def fn(x, perm, B, width):
                return x

    def test_dtype_declared_twice_is_rejected(self):
        with pytest.raises(ParameterError, match="dtype twice"):
            shape_contract("x:(n,) -> (n,):int64", dtype="int64")

    def test_registration_and_lookup(self):
        @shape_contract("x:(n,) -> (n,)")
        def doubler(x):
            return 2 * x

        contract = contract_for(doubler)
        assert contract is not None
        assert contract.key.endswith(".doubler")
        assert contract.spec == "x:(n,) -> (n,)"


class TestEnforcementSwitch:
    def test_disabled_wrapper_is_pass_through(self):
        set_enforcement(False)

        @shape_contract("x:(n,) -> (n, 2)")  # body violates this freely
        def identity(x):
            return x

        out = identity(np.zeros(4))
        assert out.shape == (4,)  # no check ran

    def test_set_enforcement_returns_previous_state(self):
        previous = set_enforcement(True)
        assert enforcement_enabled() is True
        assert set_enforcement(previous) is True


class TestRuntimeChecks:
    def setup_method(self):
        set_enforcement(True)

    def test_output_shape_violation_raises(self):
        @shape_contract("x:(n,) -> (n,)")
        def truncate(x):
            return x[:-1]

        with pytest.raises(ContractError, match="return value"):
            truncate(np.zeros(8))

    def test_contract_error_is_a_parameter_error(self):
        assert issubclass(ContractError, ParameterError)

    def test_symbol_solved_from_input_constrains_output(self):
        """``S`` binds from the argument, so the return check is exact."""
        @shape_contract("x:(S, n) -> (S,)")
        def rows(x):
            return np.zeros(x.shape[0] + 1)

        with pytest.raises(ContractError, match="axis 0"):
            rows(np.zeros((3, 8)))

    def test_product_dims_check_via_divisibility(self):
        @shape_contract("x:(S*L, B) -> (S*L, B)",
                        bind={"L": "L", "B": "B"})
        def fft_rows(x, L, B):
            return x

        fft_rows(np.zeros((6, 4)), L=3, B=4)  # S solves to 2
        with pytest.raises(ContractError, match="not a multiple"):
            fft_rows(np.zeros((7, 4)), L=3, B=4)

    def test_bound_dim_mismatch_raises(self):
        @shape_contract("x:(n,) -> (n,)", bind={"n": "plan.n"})
        def use_plan(x, plan):
            return x

        plan = SimpleNamespace(n=16)
        use_plan(np.zeros(16), plan)
        with pytest.raises(ContractError, match="axis 0 is 8"):
            use_plan(np.zeros(8), plan)

    def test_bind_paths_subscript_and_len(self):
        @shape_contract("x:(S, n) -> *",
                        bind={"n": "perms[0].n", "S": "len(items)"})
        def gather(x, perms, items):
            return x

        perms = [SimpleNamespace(n=8)]
        gather(np.zeros((2, 8)), perms, items=[0, 1])
        with pytest.raises(ContractError):
            gather(np.zeros((3, 8)), perms, items=[0, 1])

    def test_unresolvable_bind_path_degrades_to_unchecked(self):
        """A path the arguments cannot satisfy skips the pin, not the call."""
        @shape_contract("x:(n,) -> (n,)", bind={"n": "plan.missing"})
        def tolerant(x, plan):
            return x

        assert tolerant(np.zeros(4), SimpleNamespace()).shape == (4,)

    def test_input_violation_defers_to_own_validation(self):
        """The function's more specific error wins over the contract's."""
        @shape_contract("x:(n,) -> (n,)")
        def validating(x):
            if x.ndim != 1:
                raise ParameterError("custom: x must be 1-D")
            return x

        with pytest.raises(ParameterError, match="custom: x must be 1-D"):
            validating(np.zeros((2, 2)))

    def test_silently_accepted_bad_input_raises_contract_error(self):
        @shape_contract("x:(n,) -> *")
        def accepting(x):
            return x.sum()

        with pytest.raises(ContractError, match="argument 'x'"):
            accepting(np.zeros((2, 2)))

    def test_output_dtype_violation_raises(self):
        @shape_contract("x:(n,) -> (n,)", dtype="complex128")
        def drops_precision(x):
            return np.abs(x)

        with pytest.raises(ContractError, match="dtype"):
            drops_precision(np.zeros(4, dtype=np.complex128))

    def test_deferred_shape_and_dtype_paths(self):
        """``@path`` specs resolve against the live arguments (shm idiom)."""
        @shape_contract("spec:* -> @spec.shape", dtype="@spec.dtype")
        def materialize(spec, buf):
            return np.asarray(buf, dtype=spec.dtype).reshape(spec.shape)

        spec = SimpleNamespace(shape=(2, 3), dtype="<c16")
        out = materialize(spec, np.zeros(6))
        assert out.shape == (2, 3)

        @shape_contract("spec:* -> @spec.shape")
        def lies(spec):
            return np.zeros((4,))

        with pytest.raises(ContractError, match="@spec.shape"):
            lies(spec)

    def test_unknown_declared_dtype_is_a_parameter_error(self):
        @shape_contract("x:(n,) -> (n,)", dtype="not-a-dtype")
        def fn(x):
            return x

        with pytest.raises(ParameterError, match="unknown dtype"):
            fn(np.zeros(3))

    def test_none_arguments_are_skipped(self):
        @shape_contract("out:(n,) -> (n,)")
        def with_optional(x, out=None):
            return np.zeros_like(x)

        assert with_optional(np.zeros(4)).shape == (4,)

    def test_wrapper_preserves_identity(self):
        @shape_contract("x:(n,) -> (n,)")
        def documented(x):
            """Docstring survives wrapping."""
            return x

        assert documented.__name__ == "documented"
        assert "survives" in documented.__doc__
