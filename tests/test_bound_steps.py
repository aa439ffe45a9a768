"""Every compact and invariant step is bound once per run (metrics._STEPPERS).

The bound steps must give the bits of the per-step update expressions they
replaced, kept below as the reference: the same derivatives (one call of
compact_ops.derivatives or linear per axis) and the same rounded operations
in the same order, stepped with the Dirichlet refresh and the finite check.
They must also raise the same guard at the same step, and report the smallest
interior frame factor lambda that the reference steps meet.
"""

import math
import warnings

import numpy as np
import pytest

from symfd import FrameSingularity, NonFinite, PdeParams, StepContext, ZeroState, evolve
from symfd import compact_ops, galilean_exact
from symfd.cli import DEFAULTS
from symfd.invariant_schemes import LAMBDA_TOL, ZERO_STATE_TOL
from symfd.metrics import _STEPPERS, _stepper, boundary_values, default_exact, grid_for

# -- the reference: the per-step update expressions --------------------------


def ibe_comp_update(u, grid, params, tau):
    ux, uxx = compact_ops.derivatives(u, grid)
    return u - tau * u * ux + 0.5 * tau * tau * (u * u * uxx + 2.0 * u * ux * ux)


def vbe_comp_update(u, grid, params, tau):
    ux, uxx = compact_ops.derivatives(u, grid)
    return u - tau * (u * ux - params.nu * uxx)


def ade_update(u, grid, params, tau):
    t = compact_ops.linear(u, grid, 0, compact_ops, -tau * params.alpha, tau * params.nu)
    if u.ndim == 2:
        t += compact_ops.linear(u, grid, 1, compact_ops, -tau * params.beta, tau * params.nu)
    return u + t


def check_lambda(lam, interior, met):
    lowest = lam[interior].min()
    if lowest <= LAMBDA_TOL:
        raise FrameSingularity("lambda")
    met.append(lowest)


def ibe_sym_update(u, grid, params, tau, met):
    ux, uxx = compact_ops.derivatives(u, grid)
    lam = 1.0 + tau * ux
    check_lambda(lam, np.s_[1:-1], met)
    return (u + (0.5 * tau * tau / (lam * lam)) * u * u * uxx) / lam


def vbe_sym_update(u, grid, params, tau, met, dx_nodes=0.0):
    ux, uxx = compact_ops.derivatives(u, grid)
    lam = 1.0 + tau * ux
    check_lambda(lam, np.s_[1:-1], met)
    moved = u + ux * dx_nodes if dx_nodes else u
    return (moved + (tau * params.nu / lam) * uxx) / lam


def ade_sym_update(u, grid, params, tau, met, variant):
    p, d = params, u.ndim
    interior = (slice(1, -1),) * d
    if np.abs(u[interior]).min() < ZERO_STATE_TOL:
        raise ZeroState("zero")
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
    """The reference block: update, Dirichlet refresh, finite check per row."""
    update, index = REFERENCE[pde, scheme], grid.dirichlet[0]
    extra = (met,) if scheme.startswith("sym") else ()
    extra += (dx_nodes,) if dx_nodes else ()
    for row in rows:
        u = update(u, grid, params, tau, *extra)
        u[index] = row
        if not np.isfinite(u).all():
            raise NonFinite()
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
    """(the 1-based step at which the reference raises, its error type)."""
    for k in range(len(rows)):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                u = reference_steps(pde, scheme, u, rows[k : k + 1], grid, params, tau, [],
                                    dx_nodes)
        except (FrameSingularity, ZeroState, NonFinite) as error:
            return k + 1, type(error)
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


@pytest.mark.parametrize("pde, scheme, grid, params, tau, provider", GUARDED, ids=GUARD_IDS)
def test_a_guarded_run_raises_at_the_reference_step(pde, scheme, grid, params, tau, provider):
    exact = provider or default_exact(pde, params)
    u0 = exact(0.0, *np.meshgrid(*grid.axes, indexing="ij"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the unstable case's screens
        ctx = StepContext(grid, params, tau, 0.0, exact)
        advance = _stepper(pde, scheme, ctx)
    rows = boundary_values(ctx, tau * np.arange(1, 1001))
    fails_at, error = first_failure(pde, scheme, u0, rows, grid, params, tau)
    assert fails_at >= 3  # mid-run, not on the initial data
    u = advance(u0, rows[: fails_at - 1])
    v = reference_steps(pde, scheme, u0, rows[: fails_at - 1], grid, params, tau, [])
    assert np.array_equal(u, v)
    with pytest.raises(error):
        advance(u0, rows[:fails_at])
    with pytest.raises(error):  # and from the field one step before
        advance(u, rows[fails_at - 1 : fails_at])


# -- the smallest frame factor of a run -----------------------------------------


def default_run(pde, scheme, c=0.0):
    """The `symfd run` defaults of the pair, boosted by c for the sliding mesh."""
    d = DEFAULTS[pde]
    domain = (d["x_lo"], d["x_hi"]) + ((d["y_lo"], d["y_hi"]) if pde == "ade2d" else ())
    grid = grid_for(pde, domain, (d["nx"], d["ny"]) if pde == "ade2d" else d["nx"])
    params = PdeParams(alpha=d["alpha"], beta=d["beta"], nu=d["nu"])
    return grid, params, d["tau"], d["t_final"]


@pytest.mark.parametrize(
    "pde, scheme, c",
    [("ibe", "sym", 0.0), ("vbe", "sym", 0.0), ("vbe", "sym", 0.5), ("ade1d", "sym", 0.0),
     ("ade2d", "sym1", 0.0), ("ade2d", "sym2", 0.0)],
)
def test_report_carries_the_smallest_interior_lambda(pde, scheme, c):
    grid, params, tau, t_final = default_run(pde, scheme)
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
    grid, params, tau, _ = default_run("vbe", scheme)
    assert math.isnan(evolve("vbe", scheme, grid, tau, 10 * tau, params)[2].lambda_min)
    grid, params, tau, _ = default_run("ade1d", scheme)  # the AFFINE block path too
    assert math.isnan(evolve("ade1d", scheme, grid, tau, 300 * tau, params)[2].lambda_min)


def test_a_run_of_no_steps_reports_nan():
    grid, params, tau, _ = default_run("vbe", "sym")
    assert math.isnan(evolve("vbe", "sym", grid, tau, 0.0, params)[2].lambda_min)
