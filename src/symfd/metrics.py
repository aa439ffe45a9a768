"""Error measures, the time loop, convergence, Galilean and equivariance studies."""

import math
import time
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import baseline_schemes as base
from . import compact_ops
from . import invariant_schemes as inv
from .analytic import (
    PdeParams,
    ade1d_exact,
    ade2d_exact,
    galilean_exact,
    ibe_exact,
    vbe_exact,
)
from .compact_ops import Field, Grid, Grid1D, Grid2D
from .errors import NonFinite, ShapeMismatch, StepCountMismatch

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
# The pairs whose step plus Dirichlet refresh is one affine map u <- M u + E b
# (M = I + T with its Dirichlet rows zeroed, E b puts the row b on the
# Dirichlet nodes). On lines of at most compact_ops.DENSE_MAX nodes a full
# block of m steps is then one product, u <- [M^m G] [u; b_1 .. b_m] with
# G = [M^(m-1) E, ..., M E, E]; longer lines keep the band step, as M^m is dense.
AFFINE = (("ade1d", "ftcs"), ("ade1d", "comp"))

# Forward Euler on nu u_xx is stable for nu tau / h^2 up to 2 over the largest
# |eigenvalue| of h^2 D2: 4 for the central D2, which StepContext screens at
# 1/2, and 6 for the compact D2 (its symbol at the grid frequency is
# -4 / (8/12)), which every scheme but FTCS steps with.
COMPACT_DIFFUSION_LIMIT = 1.0 / 3.0

# Steps whose Dirichlet values evolve draws from one provider call, and so
# the steps of one advance_block call. A block holds BOUNDARY_BLOCK x
# (boundary nodes) values: 4 kB in 1D, 0.2 MB on a 26 x 26 grid, where the
# 2D reference's temporaries peak near 1 MB. An AFFINE pair's block map holds
# n x (n + 2 BOUNDARY_BLOCK) values: 0.3 MB on 61 nodes.
BOUNDARY_BLOCK = 256

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
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not math.isfinite(self.mesh_velocity):
            raise ValueError(f"mesh_velocity must be finite, got {self.mesh_velocity}")
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
    return a - b


def rmse(numeric: Field, exact: Field) -> float:
    """Root mean square difference over all nodes.

    Where the plain mean of squares overflows on a finite difference, it is
    taken of the difference scaled by its largest magnitude, so a large but
    finite field gives a finite value; every other field keeps the plain
    form's bits."""
    difference = _difference(numeric, exact)
    with np.errstate(over="ignore"):
        value = np.sqrt(np.mean(difference**2))
    if math.isinf(value) and np.isfinite(difference).all():
        scale = np.abs(difference).max()
        value = scale * np.sqrt(np.mean((difference / scale) ** 2))
    return float(value)


def linf(numeric: Field, exact: Field) -> float:
    """Max absolute difference over all nodes."""
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


def _check_finite(u, zeros):
    """Raise NonFinite unless u is finite; zeros is a zero vector of u's size."""
    # 0 x is +-0 for finite x, else NaN: exact, no overflow; vdot, unlike @, never warns
    if not math.isfinite(np.vdot(u, zeros)):
        raise NonFinite()


def _block_map(steps, grid, m):
    """[M^m G] of an AFFINE pair (see AFFINE), for a block of m steps on the
    vector [u; b_1 .. b_m]. M is probed through the pair's steps(u, rows) on the
    unit vectors with a zero boundary row, so the table stays the one source of
    each step. The power k runs up m's binary digits: doubling takes M^k to
    M^2k and [M^(k-1) E, ..., E] to [M^(2k-1) E, ..., E] by prepending its
    product with M^k; a one digit then prepends M^k E and multiplies M^k by M.
    Every product is an einsum, which never warns."""
    n, nodes = grid.shape[0], grid.dirichlet[0][0]
    zero = np.zeros((1, len(nodes)))
    single = np.stack([steps(e, zero) for e in np.eye(n)], axis=1)
    power, inflow = np.eye(n), np.empty((n, 0))
    for digit in bin(m)[2:]:
        inflow = np.hstack((np.einsum("ij,jk->ik", power, inflow), inflow))
        power = np.einsum("ij,jk->ik", power, power)
        if digit == "1":
            inflow = np.hstack((power[:, nodes], inflow))
            power = np.einsum("ij,jk->ik", single, power)
    block = np.hstack((power, inflow))
    _check_finite(block, np.zeros(block.size))
    return block


def _stepper(pde: str, scheme: str, ctx: StepContext) -> Callable:
    """step's body, resolved and bound once per pair and context as
    advance_block(u, rows): one step per boundary row of rows (None: one step,
    its row drawn for ctx.t + tau), each the update, the Dirichlet refresh and
    the finite check, by the advance the pair's binder returns (see _STEPPERS).
    An AFFINE pair on a line of at most DENSE_MAX nodes takes a block of
    BOUNDARY_BLOCK rows as one product (see AFFINE), checked once per block;
    its map is built on the first such block, so a run shorter than one block
    or a step never builds it. advance_block.lambda_min() is the smallest
    interior frame factor lambda the run's steps met, NaN for a pair without a
    frame. It reads _STEPPERS on each call, so a patched table is seen, and
    warns when a scheme other than FTCS exceeds COMPACT_DIFFUSION_LIMIT."""
    try:
        entry = _STEPPERS[(pde, scheme)]
    except KeyError:
        raise ValueError(f"no scheme {scheme!r} for pde {pde!r}") from None
    extra = (ctx.mesh_velocity * ctx.tau,) if (pde, scheme) == SLIDING else ()
    if ctx.mesh_velocity != 0.0 and not extra:
        raise ValueError("only the invariant viscous Burgers step supports a sliding mesh")
    grid, tau, index = ctx.grid, ctx.tau, ctx.grid.dirichlet[0]
    if len(grid.shape) != (2 if pde == "ade2d" else 1):
        raise ShapeMismatch(f"pde {pde!r} does not fit a grid of shape {grid.shape}")
    if scheme != "ftcs" and ctx.diffusion > COMPACT_DIFFUSION_LIMIT:
        message = (
            f"diffusion number nu tau / h^2 = {ctx.diffusion:.3g} exceeds 1/3, "
            f"the forward Euler limit of the compact second derivative ({pde} {scheme})"
        )
        warnings.warn(message, RuntimeWarning, stacklevel=3)
    steps = entry(grid, ctx.params, tau, *extra)
    affine = (pde, scheme) in AFFINE and grid.shape[0] <= compact_ops.DENSE_MAX
    block, zeros = None, np.zeros(grid.shape[0])  # the AFFINE map, once built, and its check's

    def advance_block(u, rows=None):
        nonlocal block
        u = np.asarray(u, dtype=float)
        if u.shape != grid.shape:
            raise ShapeMismatch(f"field shape {u.shape} does not fit the grid {grid.shape}")
        if rows is None:  # one step, to ctx.t + tau
            rows = boundary_values(ctx, np.array([ctx.t + tau]))
        if affine and len(rows) == BOUNDARY_BLOCK:
            if block is None:
                block = _block_map(steps, grid, BOUNDARY_BLOCK)
            u = np.einsum("ij,j->i", block, np.concatenate((u, rows.ravel())))
            u[index] = rows[-1]
            _check_finite(u, zeros)
            return u
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
    ShapeMismatch for a field off the grid or a grid of another dimension
    than the pde's, ValueError for an unknown pair
    or a sliding mesh on a static-mesh scheme, and NonFinite when the new
    field is not finite. It is a block of one row, so it takes the step
    by step path of every pair.
    """
    rows = None if boundary is None else np.asarray(boundary)[None]
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
    and called once per block of BOUNDARY_BLOCK steps with that block's rows.

    Returns (numeric, reference, report). The reference is the exact
    solution sampled on the final node positions, which differ from the
    initial ones only for the sliding-mesh runs (mesh_velocity != 0).
    Every pair steps as step() does, bit for bit, except that an AFFINE pair
    on a line of at most DENSE_MAX nodes takes each full block as one product:
    that agrees with its steps to roundoff (within n_steps ulp of max|u|), and
    an unstable run raises NonFinite up to a block later. Raises ValueError or
    ShapeMismatch for the pair and grid before the initial data are drawn, and
    ValueError before the first step unless tau is positive and finite and
    t_final nonnegative and finite.
    """
    if exact is None:
        exact = default_exact(pde, params)
    ctx = StepContext(grid, params, tau, 0.0, exact, mesh_velocity)  # checks tau
    if not (math.isfinite(t_final) and t_final >= 0):
        raise ValueError(f"t_final must be nonnegative and finite, got {t_final}")
    n_steps = int(round(t_final / tau))
    if abs(n_steps * tau - t_final) > STEP_COUNT_TOLERANCE * tau:
        raise StepCountMismatch(
            f"t_final = {t_final} is not a whole number of steps of tau = {tau}"
        )
    start = time.perf_counter()
    advance_block = _stepper(pde, scheme, ctx)  # checks the pair and grid first
    mesh = np.meshgrid(*grid.axes, indexing="ij")
    u = exact(0.0, *mesh)
    for k0 in range(0, n_steps, BOUNDARY_BLOCK):
        k1 = min(k0 + BOUNDARY_BLOCK, n_steps)
        # k * tau + tau is the t + tau of step k, computed the same way.
        u = advance_block(u, boundary_values(ctx, np.arange(k0, k1) * tau + tau))
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

    n is the node count of every axis, or a sequence with one count per axis.
    """
    lo, hi = domain[0::2], domain[1::2]
    counts = (n,) * len(lo) if np.ndim(n) == 0 else tuple(n)
    h = [(b - a) / (c - 1) for a, b, c in zip(lo, hi, counts)]
    if pde == "ade2d":
        return Grid2D(lo[0], lo[1], h[0], h[1], counts[0], counts[1])
    return Grid1D(lo[0], h[0], counts[0])


def fit_slope(hs: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(h).

    Raises ValueError unless every h and every error is positive and finite,
    since a zero, negative or non-finite entry has no logarithm to fit.
    """
    hs, errors = np.asarray(hs, float), np.asarray(errors, float)
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
    """One run per grid size at fixed small tau, plus the fitted slope."""
    sizes = sorted(set(int(n) for n in sizes))
    if len(sizes) < 3:
        raise ValueError(f"need at least 3 grid sizes, got {sizes}")
    rows = []
    for n in sizes:
        grid = grid_for(pde, domain, n)
        report = evolve(pde, scheme, grid, tau, t_final, params)[2]
        rows.append((n, grid.spacing[0], report.linf))
    slope = fit_slope([r[1] for r in rows], [r[2] for r in rows])
    return ConvergenceTable(pde=pde, scheme=scheme, rows=rows, slope=slope)


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
    if grid is None:
        grid = Grid1D(0.0, 2.0 * np.pi / 100.0, 101)
    if params is None:
        params = PdeParams(nu=1.0 / 12.0)
    plain = default_exact("vbe", params)
    results = []
    for c in map(float, c_values):
        for scheme in schemes:
            velocity = c if scheme == "sym" else 0.0
            report = evolve(
                "vbe", scheme, grid, tau, t_final, params,
                exact=galilean_exact(plain, c), mesh_velocity=velocity,
            )[2]
            results.append((c, scheme, report))
    return results


def _galilean_deviation(c: float) -> float:
    """One-step commutation defect of the invariant viscous step under a boost by c."""
    tau = 1e-3
    grid = Grid1D(0.0, 2.0 * np.pi / 40.0, 41)
    plain = default_exact("vbe", _VBE_PARAMS)
    worst = 0.0
    for t0 in (0.0, 0.1):
        base_data = plain(t0, grid.x)
        stepped = step("vbe", "sym", base_data, StepContext(grid, _VBE_PARAMS, tau, t0, plain))
        ctx_c = StepContext(grid, _VBE_PARAMS, tau, t0, galilean_exact(plain, c), mesh_velocity=c)
        stepped_boosted = step("vbe", "sym", base_data + c, ctx_c)
        worst = max(worst, float(np.abs(stepped_boosted - (stepped + c)).max()))
    return worst


def _scaling_deviation(s: float) -> float:
    """One-step commutation defect of the invariant inviscid step under the
    scaling (t, x, u) -> (e^{2s} t, e^s x, e^{-s} u) with tau, h rescaled along."""
    tau = 1e-3
    grid = Grid1D(-3.0, 0.15, 41)
    plain = default_exact("ibe", _IBE_PARAMS)
    scale = float(np.exp(s))
    worst = 0.0
    for t0 in (0.0, 0.2):
        base_data = plain(t0, grid.x)
        stepped = step("ibe", "sym", base_data, StepContext(grid, _IBE_PARAMS, tau, t0, plain))
        grid_s = Grid1D(grid.x0 * scale, grid.h * scale, grid.n)

        def scaled_exact(t, x):
            return plain(t / (scale * scale), np.asarray(x) / scale) / scale

        ctx_s = StepContext(
            grid_s, _IBE_PARAMS, tau * scale * scale, t0 * scale * scale, scaled_exact
        )
        stepped_scaled = step("ibe", "sym", base_data / scale, ctx_s)
        worst = max(worst, float(np.abs(stepped_scaled - stepped / scale).max()))
    return worst


def invariantize_check(scheme: str, group_params) -> float:
    """Max step-vs-transform commutation defect over exact-solution stencils.

    scheme "vbe": Galilean boosts, group_params iterable of boost speeds.
    scheme "ibe": scalings, group_params iterable of log-scales s.
    A scheme that genuinely preserves the group keeps the returned
    deviation at roundoff level.
    """
    if scheme == "vbe":
        return max(_galilean_deviation(float(c)) for c in group_params)
    if scheme == "ibe":
        return max(_scaling_deviation(float(s)) for s in group_params)
    raise ValueError(f"unknown scheme {scheme!r}, expected 'ibe' or 'vbe'")
