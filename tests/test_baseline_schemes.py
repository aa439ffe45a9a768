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
    ibe_exact,
    step,
)
from symfd.errors import ShapeMismatch

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


def test_shape_mismatch():
    grid, ctx = ctx_1d(0.0)
    with pytest.raises(ShapeMismatch):
        step("ibe", "ftcs", np.zeros(grid.n + 2), ctx)
    grid2, ctx2 = ctx_2d(0.0)
    with pytest.raises(ShapeMismatch):
        step("ade2d", "comp", np.zeros((grid2.ny, grid2.nx)), ctx2)
    with pytest.raises(ShapeMismatch):
        step("ade1d", "ftcs", np.zeros(grid2.nx), ctx2)  # 1d step, 2d grid
