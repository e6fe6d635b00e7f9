"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the function."""


class ConvergenceError(RuntimeError):
    """An iterative quadrature or acceleration scheme failed to converge."""


class CalibrationError(RuntimeError):
    """A calibration grid produced inconsistent values."""


class PointAtInfinityError(ValueError):
    """The boundary action maps the given point to infinity."""


class NotInGroupError(ValueError):
    """A matrix does not satisfy the defining quadratic-form relation."""
