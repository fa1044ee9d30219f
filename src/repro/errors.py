"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised intentionally by library code derive from
:class:`ReproError`, so callers can catch one base class.  Errors are split
along the package's architectural seams: parameter/plan problems, simulated
device misuse, and experiment-harness failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ParameterError(ReproError, ValueError):
    """A transform or plan parameter is invalid or inconsistent.

    Raised, e.g., for a signal size that is not a power of two, a sparsity
    ``k`` that is not in ``[1, n)``, or a bucket count that does not divide
    the signal size.
    """


class ContractError(ParameterError):
    """A declared shape/dtype contract was violated at runtime.

    Raised by the runtime contract check
    (:mod:`repro.analysis.staticcheck.contracts`, enabled with
    ``REPRO_CHECK_CONTRACTS=1``) when an array crossing a
    ``@shape_contract``-decorated boundary does not satisfy the declared
    symbolic shape or dtype.  Subclasses :class:`ParameterError` so
    callers that already catch the parameter hierarchy keep working.
    """


class FilterDesignError(ReproError, ValueError):
    """A flat-window filter cannot be constructed from the given spec."""


class DeviceError(ReproError, RuntimeError):
    """Misuse of the simulated CUDA device (bad launch config, OOM, ...)."""


class LaunchConfigError(DeviceError):
    """A kernel launch configuration violates device limits."""


class DeviceMemoryError(DeviceError):
    """A simulated allocation exceeds the device's global memory."""


class StreamError(DeviceError):
    """Invalid use of the simulated stream/event machinery."""


class RecoveryError(ReproError, RuntimeError):
    """Sparse recovery failed in a way the caller asked us to treat fatally.

    The default sFFT driver degrades gracefully (it returns whatever
    coefficients survived voting), but strict callers can request an
    exception when fewer than ``k`` coefficients are recovered.
    """


class ExecutorError(ReproError, RuntimeError):
    """A parallel execution backend failed outside the algorithm itself.

    Raised by the sharded executor when the machinery under a run breaks —
    e.g. a pool worker process dies mid-shard — as opposed to an algorithmic
    failure inside a shard (those keep their own types, like
    :class:`RecoveryError`).  The executor guarantees every shared-memory
    segment it created for the run is unlinked before this propagates.
    """


class ExperimentError(ReproError, RuntimeError):
    """An experiment id is unknown or an experiment run failed."""
