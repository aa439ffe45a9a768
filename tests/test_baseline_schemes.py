"""Tests for the forward-Euler reference schemes, stepped through metrics.step."""

import warnings

import numpy as np
import pytest

from symfd import (
    Grid1D,
    Grid2D,
    NonFinite,
    PdeParams,
    StepContext,
    ade1d_exact,
    evolve,
    ibe_exact,
    step,
)
from symfd.baseline_schemes import check_finite
from symfd.cli import main
from symfd.errors import ShapeMismatch
from symfd.metrics import _stepper, boundary_values, default_exact

TAU = 1e-3


def pair_id(pair):
    pde, scheme = pair
    return f"{scheme}_step_{pde}"


def ctx_1d(value_or_fn, nu=0.0, tau=TAU, n=11, x0=0.0, h=0.25):
    grid = Grid1D(x0, h, n)
    provider = value_or_fn if callable(value_or_fn) else (lambda t, x: np.full_like(np.asarray(x, float), value_or_fn))
    return grid, StepContext(grid, PdeParams(nu=nu), tau, 0.0, provider)


def ctx_2d(value_or_fn, nu=0.0, tau=TAU):
    grid = Grid2D(0.0, 0.0, 0.2, 0.25, 9, 7)
    provider = value_or_fn if callable(value_or_fn) else (
        lambda t, x, y: np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, value_or_fn)
    )
    return grid, StepContext(grid, PdeParams(nu=nu), tau, 0.0, provider)


@pytest.mark.parametrize(
    "pair",
    [(pde, scheme) for scheme in ("ftcs", "comp") for pde in ("ibe", "ade1d", "vbe")],
    ids=pair_id,
)
def test_constants_are_fixed_points_1d(pair):
    grid, ctx = ctx_1d(3.25, nu=0.1)
    out = step(*pair, np.full(grid.n, 3.25), ctx)
    assert np.abs(out - 3.25).max() <= 1e-13


@pytest.mark.parametrize("pair", [("ade2d", "ftcs"), ("ade2d", "comp")], ids=pair_id)
def test_constants_are_fixed_points_2d(pair):
    grid, ctx = ctx_2d(1.75, nu=0.1)
    out = step(*pair, np.full((grid.nx, grid.ny), 1.75), ctx)
    assert np.abs(out - 1.75).max() <= 1e-13


def test_one_step_algebra_on_linear_data():
    # with u = x the spatial derivatives are exact, so each update
    # collapses to a closed form on the interior nodes
    grid, ctx = ctx_1d(lambda t, x: np.asarray(x, float), nu=0.05, x0=1.0)
    x = grid.x
    inner = slice(1, -1)

    out = step("ibe", "ftcs", x.copy(), ctx)
    assert np.abs(out[inner] - x[inner] * (1.0 - TAU)).max() <= 1e-12

    out = step("ibe", "comp", x.copy(), ctx)
    assert np.abs(out[inner] - x[inner] * (1.0 - TAU + TAU**2)).max() <= 1e-12

    out = step("vbe", "ftcs", x.copy(), ctx)
    assert np.abs(out[inner] - x[inner] * (1.0 - TAU)).max() <= 1e-12
    out = step("vbe", "comp", x.copy(), ctx)
    assert np.abs(out[inner] - x[inner] * (1.0 - TAU)).max() <= 1e-12

    out = step("ade1d", "ftcs", x.copy(), ctx)
    assert np.abs(out[inner] - (x[inner] - TAU)).max() <= 1e-12
    out = step("ade1d", "comp", x.copy(), ctx)
    assert np.abs(out[inner] - (x[inner] - TAU)).max() <= 1e-12


def test_one_step_algebra_on_linear_data_2d():
    grid, ctx = ctx_2d(lambda t, x, y: np.asarray(x, float) + 2.0 * np.asarray(y, float), nu=0.05)
    u = grid.x[:, None] + 2.0 * grid.y[None, :]
    inner = np.s_[1:-1, 1:-1]
    for scheme in ("ftcs", "comp"):
        out = step("ade2d", scheme, u.copy(), ctx)
        assert np.abs(out[inner] - (u[inner] - 3.0 * TAU)).max() <= 1e-12


def test_boundary_nodes_follow_the_provider():
    grid, ctx = ctx_1d(lambda t, x: np.asarray(x, float) * 0.0 + 10.0 * (t + 1.0))
    out = step("ibe", "ftcs", np.zeros(grid.n), ctx)
    expected = 10.0 * (TAU + 1.0)
    assert out[0] == pytest.approx(expected, abs=1e-15)
    assert out[-1] == pytest.approx(expected, abs=1e-15)


def single_step_defect(pde, scheme, exact, grid, params, tau, t0):
    u0 = exact(t0, grid.x)
    ctx = StepContext(grid, params, tau, t0, exact)
    u1 = step(pde, scheme, u0, ctx)
    return float(np.abs(u1 - exact(t0 + tau, grid.x)).max() / tau)


def test_single_step_consistency_drifting_kernel():
    # defect per unit time must shrink roughly linearly with the step
    p = PdeParams(alpha=1.0, nu=1.0 / 60.0, L=0.4)
    grid = Grid1D(-2.0, 6.0 / 200.0, 201)
    exact = lambda t, x: ade1d_exact(t, x, p)
    for scheme, floor_ratio in (("ftcs", 2.5), ("comp", 3.5)):
        r = [
            single_step_defect("ade1d", scheme, exact, grid, p, tau, 0.2)
            for tau in (4e-3, 2e-3, 1e-3)
        ]
        assert r[0] > r[1] > r[2]
        assert r[0] / r[2] > floor_ratio


def test_single_step_consistency_hump():
    p = PdeParams(sigma=0.5)
    grid = Grid1D(-3.0, 6.0 / 200.0, 201)
    exact = lambda t, x: ibe_exact(t, x, 0.5)
    for scheme, floor_ratio in (("ftcs", 1.8), ("comp", 8.0)):
        r = [
            single_step_defect("ibe", scheme, exact, grid, p, tau, 0.2)
            for tau in (4e-3, 2e-3, 1e-3)
        ]
        assert r[0] > r[2]
        assert r[0] / r[2] > floor_ratio


def test_diffusion_number_warning():
    grid = Grid1D(0.0, 0.1, 11)
    with pytest.warns(RuntimeWarning, match="diffusion number"):
        StepContext(grid, PdeParams(nu=1.0), 0.01, 0.0, lambda t, x: x)


def test_courant_number_warning():
    grid = Grid1D(0.0, 0.1, 11)
    with pytest.warns(RuntimeWarning, match="Courant number"):
        StepContext(grid, PdeParams(alpha=30.0), 0.01, 0.0, lambda t, x: x)


def test_stable_settings_do_not_warn():
    grid = Grid1D(0.0, 0.1, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        StepContext(grid, PdeParams(alpha=1.0, nu=0.01), 1e-4, 0.0, lambda t, x: x)


def test_tau_must_be_positive():
    grid = Grid1D(0.0, 0.1, 11)
    with pytest.raises(ValueError):
        StepContext(grid, PdeParams(), 0.0, 0.0, lambda t, x: x)


@pytest.mark.parametrize("tau", [float("nan"), float("inf")])
def test_tau_must_be_finite(tau):
    grid = Grid1D(0.0, 0.1, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match="finite"):
            StepContext(grid, PdeParams(), tau, 0.0, lambda t, x: x)


def test_non_finite_input_is_rejected():
    grid, ctx = ctx_1d(0.0)
    bad = np.zeros(grid.n)
    bad[5] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NonFinite):
        step("vbe", "ftcs", bad, ctx)


@pytest.mark.parametrize("field", ["nan", "inf", "both_inf"])
@pytest.mark.parametrize("shape", [(11,), (9, 7)])
def test_finite_check_raises_non_finite_and_nothing_else(field, shape):
    # a sum-first check would warn on +inf with -inf, as would a product that
    # warns on inf * 0; filterwarnings = error would turn that into another
    # exception
    u = np.zeros(shape)
    u.flat[3] = np.nan if field == "nan" else np.inf
    if field == "both_inf":
        u.flat[5] = -np.inf
    with pytest.raises(NonFinite):
        check_finite(u)


FINITE_CHECK_FIELDS = pytest.mark.parametrize(
    "shape, order",
    [((5,), "C"), ((61,), "C"), ((801,), "C"), ((26, 26), "C"), ((26, 26), "F")],
    ids=["n5", "n61", "n801", "26x26_C", "26x26_F"],
)


@FINITE_CHECK_FIELDS
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_finite_check_finds_a_bad_node_at_every_position(shape, order, bad):
    # 0 * bad is NaN wherever the bad node sits; filterwarnings = error turns
    # a warning from inf * 0 into another exception, which fails the test
    u = np.asarray(np.random.default_rng(7).normal(size=shape), order=order)
    for position in np.ndindex(shape):
        field = u.copy(order="K")
        field[position] = bad
        with pytest.raises(NonFinite):
            check_finite(field)
    check_finite(u)


@FINITE_CHECK_FIELDS
def test_finite_check_finds_both_infinities_together(shape, order):
    # +inf + -inf would be NaN in a plain sum too; here each 0 * inf already is
    u = np.zeros(shape, order=order)
    for plus, minus in ((0, -1), (-1, 0), (1, 2), (u.size // 2, u.size // 2 + 1)):
        field = u.copy(order="K")
        field[np.unravel_index(plus % u.size, shape)] = np.inf
        field[np.unravel_index(minus % u.size, shape)] = -np.inf
        with pytest.raises(NonFinite):
            check_finite(field)


@FINITE_CHECK_FIELDS
def test_alternating_huge_field_passes_the_finite_check(shape, order):
    # a sum of the nodes would overflow; the zero-weighted product cannot
    u = np.full(shape, 1e308, order=order)
    u[np.indices(shape).sum(axis=0) % 2 == 1] = -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_finite(u)
        check_finite(np.full(shape, np.finfo(float).max, order=order))


def test_huge_finite_field_steps_without_warning():
    # the nodes' sum overflows (11 x 1e308), which a sum-first check would
    # report. The stored product u + T u does not overflow here either, where
    # the expression form's 2u of the second difference did.
    value = 1e308
    grid, ctx = ctx_1d(value, nu=0.1)
    u = np.full(grid.n, value)
    u[5] *= 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_finite(u)
        for scheme in ("ftcs", "comp"):
            out = step("ade1d", scheme, u, ctx)
            assert np.isfinite(out).all() and np.abs(out).max() < 1.01 * value


def test_shape_mismatch():
    grid, ctx = ctx_1d(0.0)
    with pytest.raises(ShapeMismatch):
        step("ibe", "ftcs", np.zeros(grid.n + 2), ctx)
    grid2, ctx2 = ctx_2d(0.0)
    with pytest.raises(ShapeMismatch):
        step("ade2d", "comp", np.zeros((grid2.ny, grid2.nx)), ctx2)
    with pytest.raises(ShapeMismatch):
        step("ade1d", "ftcs", np.zeros(grid2.nx), ctx2)  # 1d step, 2d grid


def test_inviscid_ftcs_run_ignores_nu(tmp_path, capsys):
    # the inviscid Burgers step has no nu term: nu = 0.1 gives the bits of nu = 0
    outputs = []
    for nu in ("0", "0.1"):
        path = tmp_path / f"nu_{nu}.csv"
        assert main(["run", "pde=ibe", "scheme=ftcs", f"nu={nu}", f"output_path={path}"]) == 0
        summary = capsys.readouterr().out.splitlines()[1].split(",")
        outputs.append((summary[:-1], path.read_bytes()))  # all but the wall time
    assert outputs[0] == outputs[1]


# (pde, grid, params, the step at which the run turns non-finite) at diffusion
# number 0.6, past FTCS's 1/2; the steps as the per-step central updates took them.
UNSTABLE = [
    ("vbe", Grid1D(0.0, 2.0 * np.pi / 100.0, 101), PdeParams(nu=1.0 / 12.0), 12),
    (
        "ade2d",
        Grid2D(-1.92, -1.92, 0.32, 0.32, 13, 13),
        PdeParams(alpha=1.0, beta=1.0, nu=0.25, L=0.4),
        622,
    ),
]


@pytest.mark.parametrize("pde, grid, params, fails_at", UNSTABLE, ids=["vbe", "ade2d"])
def test_unstable_ftcs_run_raises_non_finite_at_its_step(pde, grid, params, fails_at):
    tau = 0.6 * grid.spacing[0] ** 2 / params.nu
    exact = default_exact(pde, params)
    # the screen warns; an overflow inside a step must not (filterwarnings = error)
    with pytest.warns(RuntimeWarning, match="diffusion number"):
        with pytest.raises(NonFinite, match="non-finite values; the run is unstable"):
            evolve(pde, "ftcs", grid, tau, fails_at * tau, params)
        ctx = StepContext(grid, params, tau, 0.0, exact)
    u0 = exact(0.0, *np.meshgrid(*grid.axes, indexing="ij"))
    rows = boundary_values(ctx, np.arange(fails_at) * tau + tau)
    advance = _stepper(pde, "ftcs", ctx)  # one bind, one block
    u = advance(u0, rows[:-1])
    with pytest.raises(NonFinite):
        advance(u0, rows)
    # step by step, one bind per step: finite up to the same step, then raises
    v = u0
    for k in range(fails_at - 1):
        ctx.t = k * tau
        v = step(pde, "ftcs", v, ctx)
    assert np.isfinite(v).all() and np.array_equal(u, v)
    ctx.t = (fails_at - 1) * tau
    with pytest.raises(NonFinite):
        step(pde, "ftcs", v, ctx)
