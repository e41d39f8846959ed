"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration and usage problems exit 1,
verification failures exit 2, capacity and convergence problems exit 3.
"""


class AoiSchedError(Exception):
    """Base class for all package errors."""


class DomainError(AoiSchedError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class CostRangeError(AoiSchedError, OverflowError):
    """A cost evaluation would exceed the representable range (> 1e300)."""


class AdmissibilityError(AoiSchedError, ValueError):
    """A cost function violates the bounded-cost condition for its channel."""


class ConvergenceError(AoiSchedError, RuntimeError):
    """An iterative solver did not converge within its iteration budget."""


class CapacityError(AoiSchedError, MemoryError):
    """A solve would exceed the configured memory budget."""


class NonCyclicError(AoiSchedError, RuntimeError):
    """No state recurrence was found within the step budget."""


class ConsistencyError(AoiSchedError, RuntimeError):
    """An internal cross-check failed; indicates a bug, never expected."""


class InconclusiveError(AoiSchedError, RuntimeError):
    """A search hit its boundary, so the reported optimum is not trusted."""


class ConfigError(AoiSchedError, ValueError):
    """An experiment configuration is invalid; message carries the field path."""
