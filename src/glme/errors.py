"""Exception types shared across the fitting modules."""

import numpy as np

__all__ = [
    "ConvergenceError",
    "DegenerateDataError",
    "FIT_FAILURES",
    "LSkewnessError",
    "PenaltySupportError",
    "TransformError",
]


class ConvergenceError(RuntimeError):
    """An optimizer failed to converge; carries the best result found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class DegenerateDataError(ValueError):
    """The sample carries no usable variation (e.g. all values equal)."""


class LSkewnessError(ValueError):
    """A sample L-skewness could not be inverted to a GEV shape in (-1, 1):
    it lies outside the attainable range, or the inversion missed its
    tolerance."""


class PenaltySupportError(ValueError):
    """A data-adaptive penalty's support came out empty for its shape estimate."""


class TransformError(ValueError):
    """A parameter-dependent transform left the distribution's support."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


# the failures a fit raises on purpose for a sample it cannot handle; any
# other exception is a programming error
FIT_FAILURES = (
    ConvergenceError,
    DegenerateDataError,
    LSkewnessError,
    PenaltySupportError,
    TransformError,
    np.linalg.LinAlgError,
)
