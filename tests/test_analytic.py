"""Tests for the reference solutions and their defining equations."""

import math

import numpy as np
import pytest

from symfd import analytic
from symfd import (
    NoConvergence,
    PdeParams,
    PostBreakingTime,
    ade1d_exact,
    ade2d_exact,
    galilean_exact,
    galilean_transform_field,
    ibe_breaking_time,
    ibe_exact,
    vbe_exact,
)

ADE_PARAMS = PdeParams(alpha=1.0, beta=1.0, nu=1.0 / 60.0, L=0.4)


def scalar_hump(t, x, sigma=0.5):
    """One node's hump solve as a scalar loop, the reference of ibe_exact:
    (u, whether the fixed point left the node to the bisection)."""
    hump = lambda y: analytic._hump(y, sigma)
    u = hump(x)
    if t == 0.0:
        return float(u), False
    for _ in range(analytic._FIXED_POINT_STEPS):
        nxt = hump(x - u * t)
        settled = abs(nxt - u) <= analytic._SETTLED_REL * (1.0 + abs(nxt))
        u = nxt
        if settled:
            break
    if settled and abs(u - hump(x - u * t)) <= analytic._RESIDUAL:
        return float(u), False
    lo, hi = 0.0, hump(0.0) * (1.0 + 1e-12)
    for _ in range(analytic._BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        residual = mid - hump(x - mid * t)
        if abs(residual) <= analytic._RESIDUAL:
            return float(mid), True
        lo, hi = (mid, hi) if residual <= 0.0 else (lo, mid)
    raise AssertionError(f"no root at t = {t}, x = {x}")


class TestHumpSolution:
    def test_peak_value_at_start(self):
        assert ibe_exact(0.0, 0.0, 0.5) == pytest.approx(
            1.0 / math.sqrt(0.5 * math.pi), abs=1e-15
        )
        assert ibe_exact(0.0, 0.0, 0.5) == pytest.approx(0.7978845608028654, abs=1e-15)

    def test_breaking_time_formula(self):
        assert ibe_breaking_time(0.5) == pytest.approx(
            0.25 * math.sqrt(2.0 * math.pi * math.e), abs=1e-15
        )

    def test_defining_equation_residual(self):
        sigma = 0.5
        amp = 1.0 / math.sqrt(2.0 * math.pi * sigma**2)
        x = np.linspace(-3.0, 3.0, 181)
        for t in (0.1, 0.5, 1.0):  # 1.0 is close to breaking at ~1.0332
            u = ibe_exact(t, x, sigma)
            f = amp * np.exp(-((x - u * t) ** 2) / (2.0 * sigma**2))
            assert np.abs(u - f).max() <= 1e-13

    def test_rejects_post_breaking_times(self):
        t_b = ibe_breaking_time(0.5)
        with pytest.raises(PostBreakingTime):
            ibe_exact(t_b, 0.0, 0.5)
        with pytest.raises(PostBreakingTime):
            ibe_exact(t_b + 0.1, np.zeros(3), 0.5)

    def test_rejects_times_at_or_before_minus_breaking(self):
        # going back the characteristics cross at -t_b: at -2 t_b and x = -1.7
        # u = f(x - u t) has three roots in [0, 0.8]
        t_b, x = ibe_breaking_time(0.5), -1.7
        u = np.linspace(0.0, 0.8, 8001)
        residual = u - analytic._hump(x + 2.0 * t_b * u, 0.5)
        assert np.count_nonzero(np.diff(np.sign(residual))) == 3
        with pytest.raises(PostBreakingTime, match="t = -2.06"):
            ibe_exact(-2.0 * t_b, x, 0.5)
        with pytest.raises(PostBreakingTime):
            ibe_exact(np.array([[0.1], [-t_b]]), np.zeros(3), 0.5)
        inside = ibe_exact(-0.9 * t_b, x, 0.5)
        assert abs(inside - analytic._hump(x + 0.9 * t_b * inside, 0.5)) <= 1e-13

    def test_scalar_and_array_forms_agree(self):
        xs = np.array([-1.0, 0.2, 0.9])
        arr = ibe_exact(0.4, xs, 0.5)
        assert arr.shape == (3,)
        for x, v in zip(xs, arr):
            assert ibe_exact(0.4, float(x), 0.5) == v

    def test_mass_is_conserved(self):
        x = np.linspace(-8.0, 8.0, 4001)
        m0 = np.trapezoid(ibe_exact(0.0, x, 0.5), x)
        m1 = np.trapezoid(ibe_exact(0.8, x, 0.5), x)
        assert m0 == pytest.approx(1.0, abs=1e-9)
        assert abs(m1 - m0) <= 1e-9


class TestDriftingKernel1D:
    def test_peak_value_at_start(self):
        assert ade1d_exact(0.0, 0.0, ADE_PARAMS) == pytest.approx(
            1.0 / math.sqrt(4.0 * math.pi * 0.16), abs=1e-15
        )

    def test_pde_residual_small(self):
        h = tau = 1e-3
        p = ADE_PARAMS
        x = np.linspace(-2.0, 4.0, 2001)
        t = 0.5
        ut = (ade1d_exact(t + tau, x, p) - ade1d_exact(t - tau, x, p)) / (2 * tau)
        ux = (ade1d_exact(t, x + h, p) - ade1d_exact(t, x - h, p)) / (2 * h)
        uxx = (
            ade1d_exact(t, x + h, p)
            - 2 * ade1d_exact(t, x, p)
            + ade1d_exact(t, x - h, p)
        ) / h**2
        assert np.abs(ut + p.alpha * ux - p.nu * uxx).max() <= 1e-4

    def test_mass_is_one(self):
        x = np.linspace(-10.0, 10.0, 2001)
        for t in (0.0, 2.0):
            assert np.trapezoid(ade1d_exact(t, x, ADE_PARAMS), x) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            ade1d_exact(-20.0, 0.0, ADE_PARAMS)


class TestMergingFrontSolution:
    def test_midpoint_value(self):
        assert vbe_exact(0.0, math.pi, 1.0 / 12.0) == pytest.approx(4.0, abs=1e-12)

    def test_odd_symmetry_about_front_center(self):
        t = 0.3
        center = 4.0 * t + math.pi
        x = np.linspace(center - 2.5, center + 2.5, 401)
        u = vbe_exact(t, x, 1.0 / 12.0)
        mirrored = vbe_exact(t, 2.0 * center - x, 1.0 / 12.0)
        assert np.abs(u + mirrored - 8.0).max() <= 1e-10

    def test_far_field_linear_branch(self):
        # away from the transition only the nearer weight survives
        assert vbe_exact(0.0, 20.0, 1.0 / 12.0) == pytest.approx(
            4.0 + 20.0 - 2.0 * math.pi, rel=1e-14
        )
        assert np.isfinite(vbe_exact(0.0, np.array([-100.0, 100.0]), 1.0 / 12.0)).all()

    def test_pde_residual_vanishes_at_second_order_in_stencil_width(self):
        # the moving front is steep, so a fixed-width stencil sees its own
        # truncation error; halving the width must cut the residual 4x
        t, nu = 0.25, 1.0 / 12.0
        x = np.linspace(1.0, 1.0 + 2.0 * math.pi, 2001)
        res = []
        for h in (2e-3, 1e-3, 5e-4, 2.5e-4):
            u = lambda a, b: vbe_exact(a, b, nu)
            ut = (u(t + h, x) - u(t - h, x)) / (2 * h)
            ux = (u(t, x + h) - u(t, x - h)) / (2 * h)
            uxx = (u(t, x + h) - 2 * u(t, x) + u(t, x - h)) / h**2
            res.append(np.abs(ut + u(t, x) * ux - nu * uxx).max())
        for coarse, fine in zip(res, res[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_pde_residual_small_once_front_is_resolved(self):
        t, nu = 8.0, 1.0 / 12.0
        h = tau = 1e-3
        x = np.linspace(4.0 * t, 4.0 * t + 2.0 * math.pi, 2001)
        u = lambda a, b: vbe_exact(a, b, nu)
        ut = (u(t + tau, x) - u(t - tau, x)) / (2 * tau)
        ux = (u(t, x + h) - u(t, x - h)) / (2 * h)
        uxx = (u(t, x + h) - 2 * u(t, x) + u(t, x - h)) / h**2
        assert np.abs(ut + u(t, x) * ux - nu * uxx).max() <= 1e-4

    @pytest.mark.parametrize(
        "t, x",
        [
            (0.3, 1.0),
            (0.0, np.linspace(-100.0, 100.0, 41)),
            (np.linspace(1e-3, 2.0, 300)[:, None], np.array([0.0, 2.0 * math.pi])),
            (np.linspace(-0.5, 3.0, 12).reshape(3, 4), np.linspace(-30.0, 30.0, 4)),
        ],
    )
    def test_in_place_form_keeps_the_bits_of_the_expression(self, t, x):
        # the formula of the docstring, written as one expression
        nu = 1.0 / 12.0
        big_t = t + 1.0
        xi = np.asarray(x, dtype=float) - 4.0 * t
        xi2 = xi - 2.0 * math.pi
        a1 = -xi * xi / (4.0 * nu * big_t)
        a2 = -xi2 * xi2 / (4.0 * nu * big_t)
        m = np.maximum(a1, a2)
        w1, w2 = np.exp(a1 - m), np.exp(a2 - m)
        expected = 4.0 + (xi * w1 + xi2 * w2) / (big_t * (w1 + w2))
        x_before = np.array(x, copy=True)
        u = vbe_exact(t, x, nu)
        assert type(u) is type(expected)
        assert np.shape(u) == np.shape(expected)
        assert np.array_equal(u, expected)
        assert np.array_equal(x, x_before)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            vbe_exact(0.1, 1.0, 0.0)
        with pytest.raises(ValueError):
            vbe_exact(-1.0, 1.0, 0.1)


class TestDriftingKernel2D:
    def test_peak_value_at_start(self):
        assert ade2d_exact(0.0, 0.0, 0.0, ADE_PARAMS) == pytest.approx(
            1.0 / (4.0 * math.pi * 0.16), abs=1e-15
        )
        assert ade2d_exact(0.0, 0.0, 0.0, ADE_PARAMS) == pytest.approx(
            0.49735919716217296, abs=1e-15
        )

    def test_axis_swap_symmetry_for_equal_speeds(self):
        xs = np.linspace(-1.0, 1.5, 31)
        a = ade2d_exact(0.3, xs[:, None], xs[None, :], ADE_PARAMS)
        assert np.abs(a - a.T).max() <= 1e-15

    def test_pde_residual_small(self):
        h = tau = 1e-3
        p = ADE_PARAMS
        t = 0.05
        xs, ys = np.meshgrid(np.linspace(-1.0, 1.2, 45), np.linspace(-1.0, 1.2, 45))
        u = lambda a, b, c: ade2d_exact(a, b, c, p)
        ut = (u(t + tau, xs, ys) - u(t - tau, xs, ys)) / (2 * tau)
        ux = (u(t, xs + h, ys) - u(t, xs - h, ys)) / (2 * h)
        uy = (u(t, xs, ys + h) - u(t, xs, ys - h)) / (2 * h)
        lap = (
            u(t, xs + h, ys)
            + u(t, xs - h, ys)
            + u(t, xs, ys + h)
            + u(t, xs, ys - h)
            - 4 * u(t, xs, ys)
        ) / h**2
        assert np.abs(ut + p.alpha * ux + p.beta * uy - p.nu * lap).max() <= 1e-4

    def test_mass_is_one(self):
        # [-6, 6] keeps the truncated tail below 1e-15; [-4, 4] leaves 2e-9.
        xs = np.linspace(-6.0, 6.0, 601)
        grid_x, grid_y = np.meshgrid(xs, xs)
        u = ade2d_exact(0.5, grid_x, grid_y, ADE_PARAMS)
        mass = np.trapezoid(np.trapezoid(u, xs, axis=1), xs)
        assert mass == pytest.approx(1.0, abs=1e-12)


class TestGalileanHelpers:
    def test_field_boost_adds_constant(self):
        u = np.array([0.0, 1.5, -2.0])
        assert np.array_equal(galilean_transform_field(u, 0.25), u + 0.25)
        assert np.array_equal(galilean_transform_field(u, 0.0), u)

    def test_boosted_solution_identity(self):
        base = lambda t, x: np.asarray(x) * 0.5 + t
        boosted = galilean_exact(base, 0.8)
        t, x = 0.4, 1.3
        assert boosted(t, x) == pytest.approx(base(t, x - 0.8 * t) + 0.8, abs=1e-15)
        zero = galilean_exact(base, 0.0)
        assert zero(t, x) == base(t, x)


def test_params_validation():
    with pytest.raises(ValueError):
        PdeParams(nu=-0.1)
    with pytest.raises(ValueError):
        PdeParams(sigma=0.0)
    with pytest.raises(ValueError):
        PdeParams(L=-1.0)


@pytest.mark.parametrize("field", ["alpha", "beta", "nu", "sigma", "L"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a finite real number"):
        PdeParams(**{field: value})


class TestArrayTimes:
    """t may be an array that broadcasts against the coordinates."""

    def test_vectorised_hump_matches_scalar_path(self):
        # Close to breaking some nodes do not settle in the fixed point and
        # are bisected; every node must still get the scalar loop's value.
        t_b = ibe_breaking_time(0.5)
        ts = np.array([0.0, 0.3, 0.9 * t_b, 0.999 * t_b])
        xs = np.linspace(-3.0, 3.0, 241)
        got = ibe_exact(ts[:, None], xs, 0.5)
        assert got.shape == (4, 241)
        want = [[scalar_hump(t, x) for x in xs] for t in ts]
        assert 0 < sum(bisected for row in want for _, bisected in row) < xs.size
        assert np.array_equal(got, [[u for u, _ in row] for row in want])

    def test_a_node_left_after_the_budget_is_named(self, monkeypatch):
        monkeypatch.setattr(analytic, "_RESIDUAL", -1.0)  # no node ever settles
        with pytest.raises(NoConvergence, match="t = 0.3, x = 0.7 after 200 steps"):
            ibe_exact(np.array([0.3, 0.3]), np.array([0.7, 0.8]), 0.5)

    def test_broadcast_shapes(self):
        ts = np.array([[0.1], [0.2]])
        xs = np.linspace(-1.0, 1.0, 5)
        assert ibe_exact(ts, xs, 0.5).shape == (2, 5)
        assert ade1d_exact(ts, xs, ADE_PARAMS).shape == (2, 5)
        assert vbe_exact(ts, xs, 1.0 / 12.0).shape == (2, 5)
        assert ade2d_exact(ts, xs, 0.3, ADE_PARAMS).shape == (2, 5)
        for k, t in enumerate((0.1, 0.2)):
            assert np.array_equal(vbe_exact(ts, xs, 1.0 / 12.0)[k], vbe_exact(t, xs, 1.0 / 12.0))
            assert np.array_equal(ade1d_exact(ts, xs, ADE_PARAMS)[k], ade1d_exact(t, xs, ADE_PARAMS))

    def test_hump_guard_fires_on_one_entry(self):
        t_b = ibe_breaking_time(0.5)
        with pytest.raises(PostBreakingTime):
            ibe_exact(np.array([0.1, t_b, 0.2]), 0.0, 0.5)
        with pytest.raises(PostBreakingTime):
            ibe_exact(np.array([[0.1], [0.2], [t_b + 0.1]]), np.zeros(3), 0.5)

    def test_front_guard_fires_on_one_entry(self):
        with pytest.raises(ValueError, match="exceed -1"):
            vbe_exact(np.array([0.0, -1.0, 0.5]), 1.0, 1.0 / 12.0)

    def test_kernel_variance_guards_fire_on_one_entry(self):
        # L^2 + nu t <= 0 from t = -L^2 / nu = -9.6 on
        ts = np.array([[0.0], [-20.0], [1.0]])
        with pytest.raises(ValueError, match="variance"):
            ade1d_exact(ts, np.zeros(4), ADE_PARAMS)
        with pytest.raises(ValueError, match="variance"):
            ade2d_exact(ts, np.zeros(4), 0.0, ADE_PARAMS)
