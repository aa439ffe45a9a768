"""Exception types shared across the package, and the one rule for a finite number."""

import math
import numbers


def finite(name, value):
    """value, if it is a finite real number; else a ValueError naming name. Each
    caller keeps its own range check (such as > 0) beside the call."""
    try:
        if isinstance(value, numbers.Real) and math.isfinite(value):
            return value
    except OverflowError:  # an integer past the float range
        pass
    raise ValueError(f"{name} must be a finite real number, not {value!r}")


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


class StepFailure(SymfdError):
    """A time step failed a check. step is the 1-based step that failed, of its
    block (baseline_schemes.bind_steps) or, once located(), of its run; t is the
    time of its field. Both are None where no step is known, such as for the
    initial data."""

    step = t = None

    def located(self, step, t):
        """Place the failure at the run's step and time t, which its message then
        states."""
        self.step, self.t = step, t
        self.args = (f"{self} (step {step}, t = {t:.6g})",)


class NonFinite(StepFailure):
    """A scheme produced NaN or infinity; the run is unstable."""

    def __init__(self, message="step produced non-finite values; the run is unstable"):
        super().__init__(message)


class FrameSingularity(StepFailure):
    """The projective factor lambda left its valid chart (lambda <= 0)."""


class ZeroState(StepFailure):
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
