"""Exception types shared across the package."""


class SymfdError(Exception):
    """Base class for all errors raised by this package."""


class ZeroPivot(SymfdError):
    """Tridiagonal elimination hit a pivot below the detection threshold."""

    def __init__(self, index, magnitude):
        self.index = index
        self.magnitude = magnitude
        super().__init__(
            f"zero pivot at row {index}: |pivot| = {magnitude:.3e} < 1e-14"
        )


class ShapeMismatch(SymfdError):
    """Array arguments do not agree with each other or with their grid."""


class NonFinite(SymfdError):
    """A scheme produced NaN or infinity; the run is unstable."""

    def __init__(self, message="step produced non-finite values; the run is unstable"):
        super().__init__(message)


class FrameSingularity(SymfdError):
    """The projective factor lambda left its valid chart (lambda <= 0)."""


class ZeroState(SymfdError):
    """An interior node value is too close to zero to normalize a frame."""


class NoConvergence(SymfdError):
    """Iterative root search exhausted its step budget."""


class PostBreakingTime(SymfdError):
    """Requested time is at or past wave breaking; the implicit solution
    is no longer single-valued."""


class ConfigInvalid(SymfdError):
    """A run configuration field is missing, malformed, or inconsistent."""


class StepCountMismatch(SymfdError):
    """t_final is not a whole number of time steps."""
