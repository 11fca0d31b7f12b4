"""Exception types shared across the toolkit."""


class DegenerateGeometryError(Exception):
    """User position effectively coincides with the array; the 1/r amplitude
    model is invalid there."""


class ModelMismatchError(ValueError):
    """SNR model applied to a geometry outside its domain."""


class UnboundedLimitError(ArithmeticError):
    """Requested limit diverges for the given configuration."""


class ModelBreakdownError(ArithmeticError):
    """A model's formula lost all accuracy and produced no usable value."""


class QuadratureAccuracyError(ArithmeticError):
    """Adaptive quadrature could not reach the requested tolerance.

    Carries the best available ``estimate`` so callers can still inspect it.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


class SweepPointError(RuntimeError):
    """A parameter sweep aborted because one point failed; ``index`` names the
    failing point."""

    def __init__(self, index: int, cause: Exception):
        super().__init__(f"sweep point {index} failed: {cause}")
        self.index = index


class MalformedDataError(ValueError):
    """Tabular input does not match the expected schema."""
