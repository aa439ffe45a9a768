"""Every compact and invariant step is bound once per run (metrics._STEPPERS).

The bound steps must give the bits of the per-step update expressions kept
below as the reference: the same derivatives (one call of
compact_ops.derivatives or of the step operator's product per axis, or of
the pair scaled by the Burgers step's scalars) and the same rounded operations in the same order,
stepped with the Dirichlet refresh and the finite check. They must also raise
the same guard at the same step, also when a block runs on past it, and
report the smallest interior frame factor lambda that the reference steps
meet.
"""

import math
import warnings

import numpy as np
import pytest

from symfd import FrameSingularity, NonFinite, PdeParams, StepContext, ZeroState, evolve
from symfd import compact_ops, galilean_exact
from symfd.baseline_schemes import BOUNDARY_BLOCK
from symfd.cli import DEFAULTS
from symfd.invariant_schemes import LAMBDA_TOL, ZERO_STATE_TOL
from symfd.metrics import _STEPPERS, _stepper, boundary_values, default_exact, grid_for

# -- the reference: the per-step update expressions --------------------------


def scaled_jets(u, grid, c1, c2):
    """(c1 u_x, c2 u_xx) from the grid's pair scaled by c1 and c2, the stack the
    Burgers steps read their jets from."""
    pair = compact_ops.bound_pair(grid, 0, c1, c2)
    with np.errstate(over="ignore", invalid="ignore"):
        return pair(np.ascontiguousarray(u)).copy()


def ibe_comp_update(u, grid, params, tau):
    p, r = scaled_jets(u, grid, tau, 0.5 * tau * tau)
    return u + u * ((u * r + p * p) - p)


def vbe_comp_update(u, grid, params, tau):
    p, q = scaled_jets(u, grid, tau, tau * params.nu)
    return u - (u * p - q)


def linear(u, grid, axis, c1, c2):
    """(c1 D1 + c2 D2) u along axis, from the step operator's product."""
    product = compact_ops.bound_linear(grid, axis, c1, c2)
    with np.errstate(over="ignore", invalid="ignore"):
        return product(np.ascontiguousarray(u))[0].copy()


def ade_update(u, grid, params, tau):
    t = linear(u, grid, 0, -tau * params.alpha, tau * params.nu)
    if u.ndim == 2:
        t += linear(u, grid, 1, -tau * params.beta, tau * params.nu)
    return u + t


def placed(error, values, interior):
    """error at the lowest of values on the interior: its node, the grid's flat
    index, and that value."""
    nodes = np.arange(values.size).reshape(values.shape)[interior]
    i = np.argmin(values[interior])
    error.node, error.value = int(nodes.flat[i]), float(values[interior].flat[i])
    return error


def check_lambda(lam, interior, met):
    if met is None:  # unguarded
        return
    lowest = lam[interior].min()
    if lowest <= LAMBDA_TOL:
        raise placed(FrameSingularity("lambda"), lam, interior)
    met.append(lowest)


def ibe_sym_update(u, grid, params, tau, met):
    p, r = scaled_jets(u, grid, tau, 0.5 * tau * tau)
    lam = p + 1.0
    check_lambda(lam, np.s_[1:-1], met)
    t = u / lam
    return (u + t * t * r) / lam


def vbe_sym_update(u, grid, params, tau, met, dx_nodes=0.0):
    p, q = scaled_jets(u, grid, tau, tau * params.nu)
    lam = p + 1.0
    check_lambda(lam, np.s_[1:-1], met)
    moved = u + p * (dx_nodes / tau) if dx_nodes else u
    return (moved + q / lam) / lam


def ade_sym_update(u, grid, params, tau, met, variant):
    p, d = params, u.ndim
    interior = (slice(1, -1),) * d
    if met is not None and np.abs(u[interior]).min() < ZERO_STATE_TOL:
        raise placed(ZeroState("zero"), np.abs(u), interior)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ux, uxx = compact_ops.derivatives(u, grid, 0)
        drift, curvatures, speed2 = (tau * p.alpha) * ux, [uxx], p.alpha * p.alpha
        if d == 2:
            uy, uyy = compact_ops.derivatives(u, grid, 1)
            drift += (tau * p.beta) * uy
            curvatures.append(uyy)
            speed2 += p.beta * p.beta
        framed = curvatures[:1] if variant == "sym1" else curvatures
        s1 = sum(framed[1:], framed[0]) / (2.0 * len(framed) * u)
        lam = 1.0 - (4.0 * p.nu * tau) * s1
        check_lambda(lam, interior, met)
        new_t = u - drift / lam
        if d == 2 and variant == "sym1":
            new_t += (tau * p.nu / lam) * (uyy - 2.0 * s1 * u)
        spread = np.sqrt(lam) if d == 1 else lam
        return new_t / spread * np.exp(s1 * (speed2 * tau * tau) / lam)


REFERENCE = {
    ("ibe", "comp"): ibe_comp_update,
    ("ibe", "sym"): ibe_sym_update,
    ("ade1d", "comp"): ade_update,
    ("ade1d", "sym"): lambda *args: ade_sym_update(*args, variant="sym2"),
    ("vbe", "comp"): vbe_comp_update,
    ("vbe", "sym"): vbe_sym_update,
    ("ade2d", "comp"): ade_update,
    ("ade2d", "sym1"): lambda *args: ade_sym_update(*args, variant="sym1"),
    ("ade2d", "sym2"): lambda *args: ade_sym_update(*args, variant="sym2"),
}


def reference_steps(pde, scheme, u, rows, grid, params, tau, met, dx_nodes=0.0):
    """The reference block: update, Dirichlet refresh, finite check per row.
    met None steps with no check at all: no guard and no finite check."""
    update, index = REFERENCE[pde, scheme], grid.dirichlet[0]
    extra = (met,) if scheme.startswith("sym") else ()
    extra += (dx_nodes,) if dx_nodes else ()
    for row in rows:
        u = update(u, grid, params, tau, *extra)
        u[index] = row
        if met is not None and not np.isfinite(u).all():
            error = NonFinite()
            error.node = int(np.flatnonzero(~np.isfinite(u))[0])
            error.value = float(u.flat[error.node])
            raise error
    return u


def test_the_reference_covers_every_compact_and_invariant_pair():
    assert set(REFERENCE) == {pair for pair in _STEPPERS if pair[1] != "ftcs"}


# -- bit identity -------------------------------------------------------------

DOMAINS = {"ibe": (-3.0, 3.0), "ade1d": (-2.0, 4.0), "vbe": (0.0, 2.0 * math.pi),
           "ade2d": (-1.92, 2.08, -1.92, 2.08)}
PARAMS = {
    "ibe": PdeParams(sigma=0.5),
    "ade1d": PdeParams(alpha=1.0, nu=1.0 / 60.0, L=0.4),
    "vbe": PdeParams(nu=1.0 / 12.0),
    "ade2d": PdeParams(alpha=1.0, beta=1.0, nu=1.0 / 60.0, L=0.4),
}
TAU = {"ibe": 1e-3, "ade1d": 1e-3, "vbe": 1e-4, "ade2d": 1e-4}  # the run defaults
# dense lines, band lines past DENSE_MAX, and 2D grids: square and both oblongs
LINES = [31, 101, compact_ops.DENSE_MAX + 1, 201]
PLANES = [(26, 26), (9, 13), (13, 9)]
CASES = [
    (pde, scheme, n, 0.0)
    for pde, scheme in REFERENCE
    for n in (PLANES if pde == "ade2d" else LINES)
] + [("vbe", "sym", n, c) for n in LINES for c in (0.7, -1.3)]


def case_id(case):
    pde, scheme, n, c = case
    size = "x".join(map(str, n)) if isinstance(n, tuple) else str(n)
    return f"{pde}-{scheme}-{size}" + (f"-c{c:g}" if c else "")


def setting(pde, n, c=0.0, t0=0.05):
    grid, params, tau = grid_for(pde, DOMAINS[pde], n), PARAMS[pde], TAU[pde]
    exact = default_exact(pde, params)
    if c:
        exact = galilean_exact(exact, c)
    ctx = StepContext(grid, params, tau, t0, exact, mesh_velocity=c)
    mesh = np.meshgrid(*grid.axes, indexing="ij")
    u0 = exact(t0, *(x + c * t0 for x in mesh))
    return grid, params, tau, ctx, u0


@pytest.mark.parametrize("pde, scheme, n, c", CASES, ids=map(case_id, CASES))
def test_bound_steps_are_bit_identical_to_the_update_expressions(pde, scheme, n, c):
    grid, params, tau, ctx, u0 = setting(pde, n, c)
    rows = boundary_values(ctx, ctx.t + tau * np.arange(1, 8))
    advance = _stepper(pde, scheme, ctx)
    met = []
    # blocks of an odd and an even number of rows on one bind: the two buffers
    # swap roles between blocks, and each block starts from the last one's copy
    u, v = u0, u0
    for block in (rows[:3], rows[3:5], rows[5:]):
        u = advance(u, block)
        v = reference_steps(pde, scheme, v, block, grid, params, tau, met, c * tau)
        assert np.array_equal(u, v)
    assert np.array_equal(u0, setting(pde, n, c)[4])  # the input is left alone


# -- guards -------------------------------------------------------------------


def first_failure(pde, scheme, u, rows, grid, params, tau, dx_nodes=0.0):
    """(the 1-based step at which the reference raises, its error, which holds
    the node and value it failed at)."""
    for k in range(len(rows)):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                u = reference_steps(pde, scheme, u, rows[k : k + 1], grid, params, tau, [],
                                    dx_nodes)
        except (FrameSingularity, ZeroState, NonFinite) as error:
            return k + 1, error
    raise AssertionError("the reference never failed")


def compressing(t, x):
    """u = x / (t - 0.105): linear, so both Burgers sym steps follow it exactly,
    while its slope -1 / (0.105 - t) drives lambda = 1 + tau u_x below zero."""
    return np.asarray(x, float) / (t - 0.105)


def drifting_ramp(t, x, y=0.0):
    """A ramp through zero that alpha = 1 carries across the nodes."""
    return 1e-10 * (np.asarray(x, float) - 0.33 - t) + 0.0 * np.asarray(y, float)


def spike(t, x, y=None):
    """Ones, with a Dirichlet value of 1e6 from t = 0.0055 on: its curvature at
    the next interior node sends lambda = 1 - (4 nu tau) s1 below zero."""
    x = np.asarray(x, float)
    value = np.where((np.asarray(t) > 0.0055) & (x == x.min()), 1e6, 1.0)
    return value if y is None else value + 0.0 * np.asarray(y, float)


# (pde, scheme, grid, params, tau, provider, the guard) for each guard of a
# run; the step at which it fires comes from the reference
GUARDED = [
    ("ibe", "sym", grid_for("ibe", (1.0, 4.0), 31), PdeParams(), 0.01, compressing),
    ("vbe", "sym", grid_for("vbe", (1.0, 4.0), 31), PdeParams(nu=0.1), 0.01, compressing),
    ("ade1d", "sym", grid_for("ade1d", (-2.0, 4.0), 31), PdeParams(nu=0.01), 1e-3,
     drifting_ramp),
    ("ade2d", "sym1", grid_for("ade2d", (-2.0, 4.0, 0.0, 1.0), (31, 9)), PdeParams(nu=0.01),
     1e-3, drifting_ramp),
    ("ade1d", "sym", grid_for("ade1d", (0.0, 1.0), 21), PdeParams(nu=0.1), 1e-3, spike),
    ("ade2d", "sym2", grid_for("ade2d", (0.0, 1.0, 0.0, 1.0), 9), PdeParams(nu=0.1), 1e-3,
     spike),
    # unstable: diffusion number 0.6, past the compact limit 1/3
    ("vbe", "comp", grid_for("vbe", (0.0, 2.0 * math.pi), 31), PdeParams(nu=1.0 / 12.0),
     0.6 * (2.0 * math.pi / 30) ** 2 * 12.0, None),
]
GUARD_IDS = ["ibe-lambda", "vbe-lambda", "ade1d-zero", "ade2d-zero", "ade1d-lambda",
             "ade2d-lambda", "vbe-comp-unstable"]


def guarded_start(pde, grid, params, tau, provider):
    """(ctx, u0, 1,000 boundary rows) of a GUARDED case."""
    exact = provider or default_exact(pde, params)
    u0 = exact(0.0, *np.meshgrid(*grid.axes, indexing="ij"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the unstable case's screens
        ctx = StepContext(grid, params, tau, 0.0, exact)
    return ctx, u0, boundary_values(ctx, tau * np.arange(1, 1001))


@pytest.mark.parametrize("pde, scheme, grid, params, tau, provider", GUARDED, ids=GUARD_IDS)
def test_a_guarded_run_raises_at_the_reference_step(pde, scheme, grid, params, tau, provider):
    ctx, u0, rows = guarded_start(pde, grid, params, tau, provider)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        advance = _stepper(pde, scheme, ctx)
    fails_at, error = first_failure(pde, scheme, u0, rows, grid, params, tau)
    error = type(error)
    assert 3 <= fails_at < BOUNDARY_BLOCK  # mid-run, not on the initial data
    u = advance(u0, rows[: fails_at - 1])
    v = reference_steps(pde, scheme, u0, rows[: fails_at - 1], grid, params, tau, [])
    assert np.array_equal(u, v)
    with pytest.raises(error):
        advance(u0, rows[:fails_at])
    with pytest.raises(error):  # and from the field one step before
        advance(u, rows[fails_at - 1 : fails_at])
    # blocks that run on past the failing step: the guards are decided once per
    # block, so the block must be replayed to raise at its step
    for block in (rows[: fails_at + 1], rows[:BOUNDARY_BLOCK]):
        with pytest.raises(error):
            advance(u0, block)
    with pytest.raises(error):
        advance(u, rows[fails_at - 1 : BOUNDARY_BLOCK])


@pytest.mark.parametrize("pde, scheme, grid, params, tau, provider", GUARDED, ids=GUARD_IDS)
def test_a_guarded_evolve_names_the_reference_step(pde, scheme, grid, params, tau, provider):
    exact = provider or default_exact(pde, params)
    ctx, u0, _ = guarded_start(pde, grid, params, tau, provider)
    rows = boundary_values(ctx, np.arange(1000) * tau + tau)  # evolve's times
    fails_at, reference = first_failure(pde, scheme, u0, rows, grid, params, tau)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(type(reference)) as raised:
            evolve(pde, scheme, grid, tau, 1000 * tau, params, exact=exact)
    t = (fails_at - 1) * tau + tau
    assert (raised.value.step, raised.value.t) == (fails_at, t)
    assert str(raised.value).endswith(f"(step {fails_at}, t = {t:.6g})")
    # the node and the value met there: lambda, |u| or the non-finite value
    assert raised.value.node == reference.node
    assert np.array_equal(raised.value.value, reference.value, equal_nan=True)
    quantity = {FrameSingularity: "lambda", ZeroState: "|u|", NonFinite: "u"}[type(reference)]
    assert f": node {reference.node} has {quantity} = {reference.value:.6g} (step " in str(
        raised.value
    )


def test_some_guarded_blocks_end_finite_when_stepped_unchecked():
    # in these cases only a guard decided per block, not the block's finite
    # check, can send the full block to the replay that raises
    finite = []
    for case, name in zip(GUARDED, GUARD_IDS):
        pde, scheme, grid, params, tau, provider = case
        _, u0, rows = guarded_start(pde, grid, params, tau, provider)
        with np.errstate(all="ignore"):
            last = reference_steps(pde, scheme, u0, rows[:BOUNDARY_BLOCK], grid, params, tau, None)
        if np.isfinite(last).all():
            finite.append(name)
    assert finite == ["ibe-lambda", "vbe-lambda", "ade1d-zero", "ade2d-zero"]


# -- the smallest frame factor of a run -----------------------------------------


def default_run(pde, n=None):
    """(grid, params, tau, t_final) of the `symfd run` defaults of pde; n, if
    given, replaces the default node count."""
    d = DEFAULTS[pde]
    domain = (d["x_lo"], d["x_hi"]) + ((d["y_lo"], d["y_hi"]) if pde == "ade2d" else ())
    if n is None:
        n = (d["nx"], d["ny"]) if pde == "ade2d" else d["nx"]
    grid = grid_for(pde, domain, n)
    params = PdeParams(alpha=d["alpha"], beta=d["beta"], nu=d["nu"])
    return grid, params, d["tau"], d["t_final"]


@pytest.mark.parametrize(
    "pde, scheme, c",
    [("ibe", "sym", 0.0), ("vbe", "sym", 0.0), ("vbe", "sym", 0.5), ("ade1d", "sym", 0.0),
     ("ade2d", "sym1", 0.0), ("ade2d", "sym2", 0.0)],
)
def test_report_carries_the_smallest_interior_lambda(pde, scheme, c):
    grid, params, tau, t_final = default_run(pde)
    exact = default_exact(pde, params)
    if c:
        exact = galilean_exact(exact, c)
    u, _, report = evolve(pde, scheme, grid, tau, t_final, params, exact=exact, mesh_velocity=c)
    ctx = StepContext(grid, params, tau, 0.0, exact, mesh_velocity=c)
    rows = boundary_values(ctx, np.arange(report.n_steps) * tau + tau)
    met = []
    v = reference_steps(pde, scheme, exact(0.0, *np.meshgrid(*grid.axes, indexing="ij")), rows,
                        grid, params, tau, met, c * tau)
    assert len(met) == report.n_steps
    assert np.array_equal(u, v)
    assert report.lambda_min == min(met)
    assert LAMBDA_TOL < report.lambda_min < 1.0


@pytest.mark.parametrize("scheme", ["ftcs", "comp"])
def test_a_pair_without_a_frame_reports_nan(scheme):
    grid, params, tau, _ = default_run("vbe")
    assert math.isnan(evolve("vbe", scheme, grid, tau, 10 * tau, params)[2].lambda_min)
    grid, params, tau, _ = default_run("ade1d")  # the block map path too
    assert math.isnan(evolve("ade1d", scheme, grid, tau, 300 * tau, params)[2].lambda_min)


def test_a_run_of_no_steps_reports_nan():
    grid, params, tau, _ = default_run("vbe")
    assert math.isnan(evolve("vbe", "sym", grid, tau, 0.0, params)[2].lambda_min)


# -- one finite check per block -------------------------------------------------
#
# A block steps unchecked and checks only its rows and its last field, so a
# non-finite interior node must never step to a finite field, and a non-finite
# Dirichlet value, which the next refresh overwrites, must be caught in the rows.

NODE_CASES = [
    (pde, scheme, n, 0.0)
    for pde, scheme in _STEPPERS
    for n in ([(9, 11)] if pde == "ade2d" else [13, 31])
] + [("vbe", "sym", n, 0.7) for n in (13, 31)]


@pytest.mark.parametrize("pde, scheme, n, c", NODE_CASES, ids=map(case_id, NODE_CASES))
def test_a_non_finite_interior_node_never_steps_to_a_finite_field(pde, scheme, n, c):
    grid, params, tau, _ = default_run(pde, n)
    exact = default_exact(pde, params)
    if c:
        exact = galilean_exact(exact, c)
    ctx = StepContext(grid, params, tau, 0.0, exact, mesh_velocity=c)
    advance = _stepper(pde, scheme, ctx)
    u0 = exact(0.0, *np.meshgrid(*grid.axes, indexing="ij"))
    row = boundary_values(ctx, np.array([tau]))
    guards = (FrameSingularity, ZeroState) if scheme.startswith("sym") else ()
    for node in np.ndindex(*(k - 2 for k in grid.shape)):
        for bad in (math.nan, math.inf, -math.inf):
            u = u0.copy()
            u[tuple(i + 1 for i in node)] = bad
            with pytest.raises((NonFinite, *guards)):
                advance(u, row)


def corner_nan(exact, t_bad, corner):
    """exact, but NaN at the corner node at the time t_bad alone."""

    def provider(t, x, y):
        at = (np.abs(t - t_bad) < 1e-9) & (x == corner[0]) & (y == corner[1])
        return np.where(at, np.nan, exact(t, x, y))

    return provider


@pytest.mark.parametrize("scheme", ["ftcs", "comp", "sym1"])
def test_a_nan_corner_value_mid_block_raises_at_its_step(scheme):
    # no interior stencil reads a corner, so the next step's refresh would
    # overwrite the NaN before the block's last field
    grid, params, tau, _ = default_run("ade2d")
    exact = corner_nan(default_exact("ade2d", params), 100 * tau, grid.origin)
    ctx = StepContext(grid, params, tau, 0.0, exact)
    advance = _stepper("ade2d", scheme, ctx)
    u0 = exact(0.0, *np.meshgrid(*grid.axes, indexing="ij"))
    rows = boundary_values(ctx, np.arange(200) * tau + tau)
    assert not np.isfinite(rows[99]).all() and np.isfinite(np.delete(rows, 99, 0)).all()
    assert np.isfinite(advance(u0, rows[:99])).all()
    with pytest.raises(NonFinite):
        advance(u0, rows[:100])
    with pytest.raises(NonFinite):
        advance(u0, rows)
    with pytest.raises(NonFinite):
        evolve("ade2d", scheme, grid, tau, 200 * tau, params, exact=exact)
