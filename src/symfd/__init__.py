"""Fourth-order compact finite differences with symmetry-preserving stepping.

The package solves four model problems (an inviscid and a viscous Burgers
equation, and advection-diffusion in one and two dimensions) three ways:
a second-order explicit baseline, a fourth-order compact-in-space scheme,
and an invariant variant of the compact scheme that commutes with the
point symmetries of each equation. Analytic reference solutions, error
metrics, refinement studies, and a boost-equivariance harness round out
the toolkit.
"""

from .analytic import (
    PdeParams,
    ade1d_exact,
    ade2d_exact,
    galilean_exact,
    galilean_transform_field,
    ibe_breaking_time,
    ibe_exact,
    vbe_exact,
)
from .compact_ops import BoundaryPolicy, Grid1D, Grid2D, d1, d2
from .errors import (
    ConfigInvalid,
    FrameSingularity,
    NoConvergence,
    NonFinite,
    PostBreakingTime,
    ShapeMismatch,
    StepCountMismatch,
    StepFailure,
    SymfdError,
    ZeroPivot,
    ZeroState,
)
from .metrics import (
    PDES,
    SCHEMES_BY_PDE,
    ConvergenceTable,
    ErrorReport,
    StepContext,
    convergence_study,
    evolve,
    fit_slope,
    galilean_experiment,
    grid_for,
    invariantize_check,
    linf,
    rmse,
    step,
)

__all__ = [
    "BoundaryPolicy",
    "ConfigInvalid",
    "ConvergenceTable",
    "ErrorReport",
    "FrameSingularity",
    "Grid1D",
    "Grid2D",
    "NoConvergence",
    "NonFinite",
    "PDES",
    "PdeParams",
    "PostBreakingTime",
    "SCHEMES_BY_PDE",
    "ShapeMismatch",
    "StepContext",
    "StepCountMismatch",
    "StepFailure",
    "SymfdError",
    "ZeroPivot",
    "ZeroState",
    "ade1d_exact",
    "ade2d_exact",
    "convergence_study",
    "d1",
    "d2",
    "evolve",
    "fit_slope",
    "galilean_exact",
    "galilean_experiment",
    "galilean_transform_field",
    "grid_for",
    "ibe_breaking_time",
    "ibe_exact",
    "invariantize_check",
    "linf",
    "rmse",
    "step",
    "vbe_exact",
]

__version__ = "0.1.0"
