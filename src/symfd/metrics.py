"""Error measures, the time loop, convergence, Galilean and equivariance studies."""

import math
import time
import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import baseline_schemes as base
from . import invariant_schemes as inv
from .analytic import (
    PdeParams,
    ade1d_exact,
    ade2d_exact,
    galilean_exact,
    ibe_exact,
    vbe_exact,
)
from .compact_ops import Field, Grid, Grid1D, Grid2D, node_count
from .errors import ShapeMismatch, StepCountMismatch, StepFailure, finite

# The step of each (pde, scheme) pair: a binder, called once per run as
# binder(grid, params, tau) plus the node displacement over a step for SLIDING,
# which returns the run's block advance(u, rows) (see baseline_schemes). The
# table's order is the order of PDES and SCHEMES_BY_PDE, and so of the studies'
# rows.
_STEPPERS = {
    ("ibe", "ftcs"): base.ibe_ftcs,
    ("ibe", "comp"): base.ibe_comp,
    ("ibe", "sym"): inv.ibe_sym,
    ("ade1d", "ftcs"): base.ade_ftcs,
    ("ade1d", "comp"): base.ade_comp,
    ("ade1d", "sym"): partial(inv.ade_sym, variant="sym2"),
    ("vbe", "ftcs"): base.vbe_ftcs,
    ("vbe", "comp"): base.vbe_comp,
    ("vbe", "sym"): inv.vbe_sym,
    ("ade2d", "ftcs"): base.ade_ftcs,
    ("ade2d", "comp"): base.ade_comp,
    ("ade2d", "sym1"): partial(inv.ade_sym, variant="sym1"),
    ("ade2d", "sym2"): partial(inv.ade_sym, variant="sym2"),
}
PDES = tuple(dict.fromkeys(pde for pde, _ in _STEPPERS))
SCHEMES_BY_PDE = {pde: tuple(s for p, s in _STEPPERS if p == pde) for pde in PDES}
# The one pair whose nodes may slide with the mesh velocity.
SLIDING = ("vbe", "sym")

# Forward Euler on nu u_xx is stable for nu tau / h^2 up to 2 over the largest
# |eigenvalue| of h^2 D2: 4 for the central D2, which StepContext screens at
# 1/2, and 6 for the compact D2 (its symbol at the grid frequency is
# -4 / (8/12)), which every scheme but FTCS steps with.
COMPACT_DIFFUSION_LIMIT = 1.0 / 3.0

# t_final must lie within this fraction of one step of a whole number of
# steps; relative to tau, so that small steps are checked as tightly as
# large ones.
STEP_COUNT_TOLERANCE = 1e-6

_VBE_PARAMS = PdeParams(nu=1.0 / 12.0)
_IBE_PARAMS = PdeParams(sigma=0.5)


@dataclass
class StepContext:
    """Everything a single time step needs besides the field itself.

    boundary_provider is the exact solution, called as provider(t, x) in
    1D and provider(t, x, y) in 2D, to refresh the Dirichlet nodes after
    each step. t may be an array that broadcasts against the coordinates:
    the provider is called with a column of times, shape (k, 1), and a row
    of node coordinates, shape (nodes,) or (k, nodes), and must return the
    value at every (time, node) pair, or values that broadcast to them.
    mesh_velocity is consulted only by the invariant viscous Burgers step,
    whose nodes may slide as x + mesh_velocity * t; every other scheme is
    defined on the static mesh.
    """

    grid: Grid
    params: PdeParams
    tau: float
    t: float
    boundary_provider: Callable
    mesh_velocity: float = 0.0

    def __post_init__(self):
        if not isinstance(self.params, PdeParams):
            raise ValueError(f"params must be a PdeParams, not {self.params!r}")
        if finite("tau", self.tau) <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        finite("t", self.t)
        finite("mesh_velocity", self.mesh_velocity)
        # Advisory stability screens on the constant speeds alpha (x) and beta
        # (y), not the Burgers speed u, at FTCS's limits; forward Euler shows
        # NonFinite if ignored. _stepper adds the compact schemes' tighter
        # COMPACT_DIFFUSION_LIMIT, as only it knows the scheme.
        self.courant = self.diffusion = 0.0  # the largest over the axes
        speeds = {"alpha": self.params.alpha, "beta": self.params.beta}
        for h, (name, speed) in zip(self.grid.spacing, speeds.items()):
            diffusion = self.params.nu * self.tau / (h * h)
            courant = abs(speed) * self.tau / h
            for number, limit, what in (
                (diffusion, 0.5, "diffusion number nu tau / h^2"),
                (courant, 1.0, f"Courant number |{name}| tau / h"),
            ):
                if number > limit:
                    message = f"{what} = {number:.3g} exceeds {limit:g}"
                    warnings.warn(message, RuntimeWarning, stacklevel=2)
            self.courant = max(self.courant, courant)
            self.diffusion = max(self.diffusion, diffusion)


def _difference(numeric: Field, exact: Field) -> np.ndarray:
    a, b = np.asarray(numeric, dtype=float), np.asarray(exact, dtype=float)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes {a.shape} and {b.shape} differ")
    if a.size == 0:
        raise ShapeMismatch(f"the fields have no node: shape {a.shape}")
    return a - b


def rmse(numeric: Field, exact: Field) -> float:
    """Root mean square difference over all nodes.

    Where the plain mean of squares overflows on a finite difference, it is
    taken of the difference scaled by its largest magnitude, so a large but
    finite field gives a finite value; every other field keeps the plain
    form's bits, so a non-finite difference gives inf or NaN."""
    difference = _difference(numeric, exact)
    with np.errstate(over="ignore"):
        value = np.sqrt(np.mean(difference**2))
    if math.isinf(value) and np.isfinite(difference).all():
        scale = np.abs(difference).max()
        value = scale * np.sqrt(np.mean((difference / scale) ** 2))
    return float(value)


def linf(numeric: Field, exact: Field) -> float:
    """Max absolute difference over all nodes: inf or NaN for a non-finite difference."""
    return float(np.max(np.abs(_difference(numeric, exact))))


@dataclass
class ErrorReport:
    """Error summary of one experiment run."""

    scheme: str
    pde: str
    n: Union[int, Tuple[int, int]]
    h: Union[float, Tuple[float, float]]
    tau: float
    t_final: float
    rmse: float
    linf: float
    wall_time: float
    n_steps: int
    courant: float  # largest |speed| tau / h over the axes: alpha on x, beta on y
    diffusion: float  # largest nu tau / h^2 over the axes
    lambda_min: float  # smallest interior frame factor lambda over the steps; NaN without a frame


@dataclass
class ConvergenceTable:
    """Grid-refinement study of one (pde, scheme) pair.

    rows hold (n, h, linf) in ascending n; slope is the least-squares
    slope of log(linf) against log(h).
    """

    pde: str
    scheme: str
    rows: List[Tuple[int, float, float]]
    slope: float


def default_exact(pde: str, params: PdeParams) -> Callable:
    """The reference solution for a PDE, with parameters baked in."""
    if pde == "ibe":
        return lambda t, x: ibe_exact(t, x, params.sigma)
    if pde == "ade1d":
        return lambda t, x: ade1d_exact(t, x, params)
    if pde == "vbe":
        return lambda t, x: vbe_exact(t, x, params.nu)
    if pde == "ade2d":
        return lambda t, x, y: ade2d_exact(t, x, y, params)
    raise ValueError(f"unknown pde {pde!r}")


def boundary_values(ctx: StepContext, times: np.ndarray) -> np.ndarray:
    """Dirichlet values at each of the given times, shape (len(times), nodes).

    Row k holds ctx.boundary_provider at times[k] on the grid's Dirichlet
    nodes (grid.dirichlet), shifted by mesh_velocity * times[k] for the
    sliding mesh. All rows come from one provider call.
    """
    coords = ctx.grid.dirichlet[1]
    t = times[:, None]
    if ctx.mesh_velocity != 0.0:
        coords = tuple(c + ctx.mesh_velocity * t for c in coords)
    values = ctx.boundary_provider(t, *coords)
    shape = (len(times), coords[0].shape[-1])
    try:
        return np.broadcast_to(values, shape)
    except ValueError:
        raise ShapeMismatch(
            f"boundary values of shape {np.shape(values)} do not broadcast to the "
            f"(times, Dirichlet nodes) shape {shape}"
        ) from None


def _stepper(pde: str, scheme: str, ctx: StepContext) -> Callable:
    """step's body, resolved and bound once per pair and context as
    advance_block(u, rows): one step per boundary row of rows (None: one step,
    its row drawn for ctx.t + tau), each the update and the Dirichlet refresh,
    by the advance the pair's binder returns (see _STEPPERS), which checks the
    block as a block checked after every step would and, for any number of
    rows, takes each full BOUNDARY_BLOCK of a mapped pair's rows as one
    product (see baseline_schemes). A failed step's error carries its 1-based
    step of the block as step.
    advance_block.lambda_min() is the smallest interior frame factor lambda the
    run's steps met, NaN for a pair without a frame. It reads _STEPPERS on each
    call, so a patched table is seen, and warns when a scheme other than FTCS
    exceeds COMPACT_DIFFUSION_LIMIT."""
    try:
        entry = _STEPPERS[(pde, scheme)]
    except KeyError:
        raise ValueError(f"no scheme {scheme!r} for pde {pde!r}") from None
    extra = (ctx.mesh_velocity * ctx.tau,) if (pde, scheme) == SLIDING else ()
    if ctx.mesh_velocity != 0.0 and not extra:
        raise ValueError("only the invariant viscous Burgers step supports a sliding mesh")
    grid, tau = ctx.grid, ctx.tau
    if len(grid.shape) != (2 if pde == "ade2d" else 1):
        raise ShapeMismatch(f"pde {pde!r} does not fit a grid of shape {grid.shape}")
    if scheme != "ftcs" and ctx.diffusion > COMPACT_DIFFUSION_LIMIT:
        message = (
            f"diffusion number nu tau / h^2 = {ctx.diffusion:.3g} exceeds 1/3, "
            f"the forward Euler limit of the compact second derivative ({pde} {scheme})"
        )
        warnings.warn(message, RuntimeWarning, stacklevel=3)
    steps = entry(grid, ctx.params, tau, *extra)

    def advance_block(u, rows=None):
        u = np.asarray(u, dtype=float)
        if u.shape != grid.shape:
            raise ShapeMismatch(f"field shape {u.shape} does not fit the grid {grid.shape}")
        if rows is None:  # one step, to ctx.t + tau
            rows = boundary_values(ctx, np.array([ctx.t + tau]))
        return steps(u, rows)

    advance_block.lambda_min = getattr(steps, "lambda_min", lambda: math.nan)
    return advance_block


def step(
    pde: str, scheme: str, u: Field, ctx: StepContext, boundary: Optional[np.ndarray] = None
) -> Field:
    """Advance u from ctx.t to ctx.t + ctx.tau with one (pde, scheme) step.

    The scheme's update gives the interior; the boundary nodes are then
    set to boundary, the row of boundary_values for the new time t + tau
    (evolve passes the rows of a block). Without it, step asks
    boundary_values for that one time, on node positions shifted by
    mesh_velocity * (t + tau) for the sliding mesh. Raises
    ShapeMismatch for a field off the grid, a boundary that does not broadcast
    to the Dirichlet nodes or a grid of another dimension than the pde's,
    ValueError for an unknown pair
    or a sliding mesh on a static-mesh scheme, and NonFinite when the new
    field is not finite. It is a block of one row, so it takes the step
    by step path of every pair.
    """
    rows = None
    if boundary is not None:
        nodes = (len(ctx.grid.dirichlet[0][0]),)
        try:
            rows = np.broadcast_to(boundary, nodes)[None]
        except ValueError:
            raise ShapeMismatch(
                f"boundary of shape {np.shape(boundary)} does not broadcast to the "
                f"Dirichlet nodes' shape {nodes}"
            ) from None
    return _stepper(pde, scheme, ctx)(u, rows)


def evolve(
    pde: str,
    scheme: str,
    grid: Grid,
    tau: float,
    t_final: float,
    params: PdeParams,
    exact: Optional[Callable] = None,
    mesh_velocity: float = 0.0,
) -> Tuple[Field, Field, ErrorReport]:
    """March from exact initial data to t_final with step()'s body, resolved once
    and called once per block with that block's rows: the grid's
    baseline_schemes.block_steps steps, 4,096 on a line and BOUNDARY_BLOCK
    (256) on a 2D grid of 32 or more Dirichlet nodes.

    Returns (numeric, reference, report). The reference is the exact
    solution sampled on the final node positions, which differ from the
    initial ones only for the sliding-mesh runs (mesh_velocity != 0).
    Every pair steps as step() does, bit for bit, except that ade1d FTCS and
    COMP on a line of at most DENSE_MAX nodes take each full BOUNDARY_BLOCK of
    steps, counted from the run's first, as one product (see
    baseline_schemes), which agrees with their steps to roundoff (within
    n_steps ulp of max|u|); a block whose product is not finite is replayed
    step by step, so every pair raises NonFinite at the step whose field is
    not finite. A failed step's NonFinite, FrameSingularity or ZeroState
    carries its step (1-based) and t, which its message states. Raises
    ValueError or ShapeMismatch for the pair and grid before the initial data
    are drawn, ValueError before the first step unless tau is positive and
    finite, t_final nonnegative and finite and t_final / tau a finite step
    count, and NonFinite naming the initial data before the first step unless
    they are finite.
    """
    if exact is None:
        exact = default_exact(pde, params)
    ctx = StepContext(grid, params, tau, 0.0, exact, mesh_velocity)  # checks tau
    if finite("t_final", t_final) < 0:
        raise ValueError(f"t_final must be nonnegative, got {t_final}")
    count = t_final / tau
    if math.isinf(count):
        raise ValueError(f"tau = {tau} is too small: t_final / tau = {count} steps")
    n_steps = int(round(count))
    if abs(n_steps * tau - t_final) > STEP_COUNT_TOLERANCE * tau:
        raise StepCountMismatch(
            f"t_final = {t_final} is not a whole number of steps of tau = {tau}"
        )
    start = time.perf_counter()
    advance_block = _stepper(pde, scheme, ctx)  # checks the pair and grid first
    mesh = np.meshgrid(*grid.axes, indexing="ij")
    u = np.asarray(exact(0.0, *mesh), dtype=float)  # None becomes NaN
    base.check_finite(u, "the initial data")
    block = base.block_steps(grid)
    for k0 in range(0, n_steps, block):
        # k * tau + tau is the t + tau of step k, computed the same way. No
        # name holds a block's rows, so the next provider call does not run
        # beside them.
        times = np.arange(k0, min(k0 + block, n_steps)) * tau + tau
        try:
            u = advance_block(u, boundary_values(ctx, times))
        except StepFailure as error:
            k = k0 + error.step
            error.located(k, float((k - 1) * tau + tau))
            raise
    ref = exact(t_final, *(c + mesh_velocity * t_final for c in mesh))
    # n and h stay one number in 1D, a tuple per axis in 2D
    n, h = (grid.shape, grid.spacing) if len(grid.shape) > 1 else (grid.n, grid.h)
    report = ErrorReport(
        scheme=scheme,
        pde=pde,
        n=n,
        h=h,
        tau=tau,
        t_final=t_final,
        rmse=rmse(u, ref),
        linf=linf(u, ref),
        wall_time=time.perf_counter() - start,
        n_steps=n_steps,
        courant=ctx.courant,
        diffusion=ctx.diffusion,
        lambda_min=advance_block.lambda_min(),
    )
    return u, ref, report


def grid_for(pde: str, domain: Sequence[float], n) -> Grid:
    """Uniform grid spanning the domain bounds.

    domain holds the bounds (lo, hi) for each axis of the pde, and n is the
    node count of every axis, or a sequence with one count per axis. Raises
    ValueError naming the argument for an unknown pde, a domain or n of
    another dimension, a bound that is not a finite real number, bounds that
    do not increase, or a count that is not an integer of at least
    compact_ops.MIN_NODES; the grid checks the rest.
    """
    if pde not in PDES:
        raise ValueError(f"unknown pde {pde!r}")
    dim = 2 if pde == "ade2d" else 1
    # numpy would refuse a ragged sequence in its own words, not naming domain
    if not (isinstance(domain, Sequence) or np.ndim(domain) == 1) or len(domain) != 2 * dim:
        raise ValueError(
            f"domain of {pde!r} needs (lo, hi) per axis, {2 * dim} real bounds: {domain}"
        )
    bounds = [finite("domain bound", b) for b in domain]
    lo, hi = bounds[0::2], bounds[1::2]
    if any(b <= a for a, b in zip(lo, hi)):
        raise ValueError(f"domain bounds of {pde!r} are not increasing (lo < hi): {domain}")
    counts = (n,) * dim if np.ndim(n) == 0 else tuple(n)
    if len(counts) != dim:
        raise ValueError(f"n must give {dim} node count(s) for {pde!r}, got {n!r}")
    for count in counts:
        node_count("n", count)
    h = [(b - a) / (c - 1) for a, b, c in zip(lo, hi, counts)]
    if pde == "ade2d":
        return Grid2D(lo[0], lo[1], h[0], h[1], counts[0], counts[1])
    return Grid1D(lo[0], h[0], counts[0])


def fit_slope(hs: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(h).

    Raises ValueError unless hs and errors are two sequences of one length of
    at least 2, and every h and every error is positive and finite, since a
    zero, negative or non-finite entry has no logarithm to fit.
    """
    hs, errors = np.asarray(hs, float), np.asarray(errors, float)
    if hs.ndim != 1 or hs.shape != errors.shape or hs.size < 2:
        shapes = f"{hs.shape} and {errors.shape}"
        raise ValueError(f"slope fit needs hs and errors of one length >= 2, got {shapes}")
    for name, values in (("h", hs), ("error", errors)):
        if not (np.isfinite(values) & (values > 0)).all():
            raise ValueError(f"slope fit needs every {name} positive and finite, got {values}")
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


def convergence_study(
    pde: str,
    scheme: str,
    sizes: Sequence[int],
    tau: float,
    t_final: float,
    params: PdeParams,
    domain: Sequence[float],
) -> ConvergenceTable:
    """One run per grid size at fixed small tau, plus the fitted slope. sizes is
    read once, so it may be any iterable; raises ValueError naming sizes unless
    it holds at least 3 distinct integers, each at least compact_ops.MIN_NODES."""
    counts = list(sizes) if isinstance(sizes, Iterable) else [sizes]
    sizes = sorted(set(int(node_count("sizes", n)) for n in counts))
    if len(sizes) < 3:
        raise ValueError(f"sizes must hold at least 3 distinct grid sizes, got {sizes}")
    rows = []
    for n in sizes:
        grid = grid_for(pde, domain, n)
        report = evolve(pde, scheme, grid, tau, t_final, params)[2]
        rows.append((n, grid.spacing[0], report.linf))
    slope = fit_slope([r[1] for r in rows], [r[2] for r in rows])
    return ConvergenceTable(pde=pde, scheme=scheme, rows=rows, slope=slope)


def _numbers(name, values):
    """values as a list of floats; a string, an empty sequence or an entry that
    is not a finite real number is a ValueError naming the argument."""
    try:
        entries = [] if isinstance(values, (str, bytes)) else list(values)
    except TypeError:
        entries = []
    if not entries:
        raise ValueError(f"{name} must be a non-empty sequence of finite numbers, not {values!r}")
    return [float(finite(name, v)) for v in entries]


def galilean_experiment(
    c_values: Sequence[float],
    schemes: Sequence[str] = ("ftcs", "comp", "sym"),
    grid: Optional[Grid1D] = None,
    tau: float = 1e-4,
    t_final: float = 0.25,
    params: Optional[PdeParams] = None,
) -> List[Tuple[float, str, ErrorReport]]:
    """Errors of the viscous Burgers schemes under Galilean-boosted data.

    For each boost speed c the initial and boundary data are drawn from
    the boosted reference solution. FTCS and COMP evolve on the static
    grid and degrade with c; the invariant scheme's nodes slide with the
    boost, which realizes the same run in boosted coordinates and keeps
    its error independent of c.
    """
    c_values = _numbers("c_values", c_values)
    iterable = isinstance(schemes, Iterable) and not isinstance(schemes, (str, bytes))
    names = list(schemes) if iterable else []
    if not names:
        raise ValueError(f"schemes must be a non-empty sequence of scheme names, not {schemes!r}")
    if grid is None:
        grid = Grid1D(0.0, 2.0 * np.pi / 100.0, 101)
    if params is None:
        params = PdeParams(nu=1.0 / 12.0)
    plain = default_exact("vbe", params)
    results = []
    for c in c_values:
        for scheme in names:
            velocity = c if scheme == "sym" else 0.0
            report = evolve(
                "vbe", scheme, grid, tau, t_final, params,
                exact=galilean_exact(plain, c), mesh_velocity=velocity,
            )[2]
            results.append((c, scheme, report))
    return results


def _commutation_defect(pde: str, grid: Grid1D, params: PdeParams, times, transform) -> float:
    """One-step commutation defect of pde's invariant step under one group
    element g: the largest |step(g u) - g step(u)| over the exact data u at
    each of times, with tau = 1e-3. transform(ctx) returns g's image of the
    step's context and g's map of a field, which maps both the data and the
    stepped field."""
    plain, worst = default_exact(pde, params), 0.0
    for t0 in times:
        ctx, data = StepContext(grid, params, 1e-3, t0, plain), plain(t0, grid.x)
        ctx_g, act = transform(ctx)
        defect = step(pde, "sym", act(data), ctx_g) - act(step(pde, "sym", data, ctx))
        worst = max(worst, float(np.abs(defect).max()))
    return worst


def _galilean_deviation(c: float) -> float:
    """Defect of the invariant viscous step under a boost by c: the data and the
    boundary values gain c, and the nodes slide with speed c."""

    def boost(ctx):
        exact = galilean_exact(ctx.boundary_provider, c)
        boosted = StepContext(ctx.grid, ctx.params, ctx.tau, ctx.t, exact, mesh_velocity=c)
        return boosted, lambda u: u + c

    grid = Grid1D(0.0, 2.0 * np.pi / 40.0, 41)
    return _commutation_defect("vbe", grid, _VBE_PARAMS, (0.0, 0.1), boost)


def _scaling_deviation(s: float) -> float:
    """Defect of the invariant inviscid step under the scaling
    (t, x, u) -> (e^{2s} t, e^s x, e^{-s} u), with tau and h rescaled along."""
    scale = float(np.exp(s))

    def scaling(ctx):
        plain, g = ctx.boundary_provider, ctx.grid
        exact = lambda t, x: plain(t / (scale * scale), np.asarray(x) / scale) / scale
        tau, t0 = ctx.tau * scale * scale, ctx.t * scale * scale
        grid = Grid1D(g.x0 * scale, g.h * scale, g.n)
        return StepContext(grid, ctx.params, tau, t0, exact), lambda u: u / scale

    grid = Grid1D(-3.0, 0.15, 41)
    return _commutation_defect("ibe", grid, _IBE_PARAMS, (0.0, 0.2), scaling)


def invariantize_check(scheme: str, group_params) -> float:
    """Max step-vs-transform commutation defect over exact-solution stencils.

    scheme "vbe": Galilean boosts, group_params iterable of boost speeds.
    scheme "ibe": scalings, group_params iterable of log-scales s.
    A scheme that genuinely preserves the group keeps the returned
    deviation at roundoff level.
    """
    if scheme == "vbe":
        return max(map(_galilean_deviation, _numbers("group_params", group_params)))
    if scheme == "ibe":
        return max(map(_scaling_deviation, _numbers("group_params", group_params)))
    raise ValueError(f"unknown scheme {scheme!r}, expected 'ibe' or 'vbe'")
