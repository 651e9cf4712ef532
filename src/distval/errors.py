"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or inconsistent caller input (dimension mismatch, empty data, bad pmf)."""


class CapacityError(InputError):
    """Requested problem size exceeds what can be materialised explicitly."""


class UndefinedCorrelationError(InputError):
    """Correlation is undefined because one of the vectors is constant."""


class PropertyViolation(RuntimeError):
    """A verified mathematical property failed to hold numerically."""
