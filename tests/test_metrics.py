"""Tests for error measures, the time loop, and the studies."""

import math
import warnings

import numpy as np
import pytest

from symfd import (
    ConvergenceTable,
    ErrorReport,
    Grid1D,
    Grid2D,
    PdeParams,
    StepContext,
    StepCountMismatch,
    convergence_study,
    evolve,
    fit_slope,
    galilean_exact,
    galilean_experiment,
    grid_for,
    linf,
    rmse,
    step,
)
from symfd import compact_ops, metrics
from symfd.errors import NonFinite, ShapeMismatch
from symfd.metrics import (
    _STEPPERS,
    AFFINE,
    BOUNDARY_BLOCK,
    PDES,
    SCHEMES_BY_PDE,
    SLIDING,
    boundary_values,
    default_exact,
)

ADE_PARAMS = PdeParams(alpha=1.0, nu=1.0 / 60.0, L=0.4)
EPS = np.finfo(float).eps


class TestErrorMeasures:
    def test_hand_values(self):
        assert rmse(np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(
            math.sqrt(12.5), abs=1e-15
        )
        assert linf(np.array([-5.0, 1.0]), np.zeros(2)) == 5.0

    def test_zero_for_identical_fields(self):
        u = np.linspace(-1, 1, 8)
        assert rmse(u, u) == 0.0
        assert linf(u, u) == 0.0

    def test_rmse_never_exceeds_linf(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=40)
        b = rng.normal(size=40)
        assert rmse(a, b) <= linf(a, b) + 1e-15

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=25)
        b = rng.normal(size=25)
        perm = rng.permutation(25)
        assert rmse(a[perm], b[perm]) == pytest.approx(rmse(a, b), abs=1e-15)
        assert linf(a[perm], b[perm]) == linf(a, b)

    def test_translation_covariance(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=25)
        b = rng.normal(size=25)
        assert rmse(a + 3.5, b + 3.5) == pytest.approx(rmse(a, b), abs=1e-12)
        assert linf(a + 3.5, b + 3.5) == pytest.approx(linf(a, b), abs=1e-12)

    def test_rmse_of_a_huge_finite_field_is_finite(self):
        # the squares overflow; rmse scales by the largest difference instead
        # and warns of nothing (filterwarnings = error), like linf
        huge = np.full(101, 1e200)
        assert rmse(huge, np.zeros(101)) == linf(huge, np.zeros(101)) == 1e200
        mixed = np.array([3e200, -4e200, 0.0, 1e-300])
        assert rmse(mixed, np.zeros(4)) == pytest.approx(math.sqrt(25.0 / 4.0) * 1e200, rel=1e-15)
        largest = np.finfo(float).max
        assert rmse(np.array([largest, -largest]), np.zeros(2)) == largest
        # non-finite differences keep the plain form's inf and NaN
        assert rmse(np.array([np.inf, 1.0]), np.zeros(2)) == np.inf
        assert np.isnan(rmse(np.array([np.nan, 1.0]), np.zeros(2)))

    def test_unstable_run_reports_finite_errors(self):
        # vbe FTCS at diffusion number 0.6 reaches max|u| ~ 1e221 at step 11,
        # one step before NonFinite: its report is finite, with only the
        # stability screen's warning
        grid, params = Grid1D(0.0, 2.0 * np.pi / 100.0, 101), PdeParams(nu=1.0 / 12.0)
        tau = 0.6 * grid.h**2 / params.nu
        with pytest.warns(RuntimeWarning) as caught:
            u, _, report = evolve("vbe", "ftcs", grid, tau, 11 * tau, params)
        assert len(caught) == 1 and "diffusion number" in str(caught[0].message)
        assert np.abs(u).max() > 1e200
        assert math.isfinite(report.linf) and report.linf > 1e200
        assert math.isfinite(report.rmse) and 0.0 < report.rmse <= report.linf

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            rmse(np.zeros(3), np.zeros(4))
        with pytest.raises(ShapeMismatch):
            linf(np.zeros((2, 2)), np.zeros(4))


class TestLookups:
    def test_every_registered_pair_resolves(self):
        pairs = [
            ("ibe", "ftcs"), ("ibe", "comp"), ("ibe", "sym"),
            ("ade1d", "ftcs"), ("ade1d", "comp"), ("ade1d", "sym"),
            ("vbe", "ftcs"), ("vbe", "comp"), ("vbe", "sym"),
            ("ade2d", "ftcs"), ("ade2d", "comp"), ("ade2d", "sym1"), ("ade2d", "sym2"),
        ]
        assert list(_STEPPERS) == pairs
        assert [(pde, scheme) for pde in PDES for scheme in SCHEMES_BY_PDE[pde]] == pairs
        assert all(callable(update) for update in _STEPPERS.values())

    def test_unknown_pairs_rejected(self):
        grid = Grid1D(0.0, 0.1, 11)
        ctx = StepContext(grid, PdeParams(), 1e-3, 0.0, lambda t, x: x)
        with pytest.raises(ValueError):
            step("ibe", "sym2", grid.x, ctx)
        with pytest.raises(ValueError):
            default_exact("wave", PdeParams())

    def test_grid_factory(self):
        g = grid_for("vbe", (0.0, 2.0 * math.pi), 101)
        assert isinstance(g, Grid1D)
        assert g.n == 101
        assert g.x[-1] == pytest.approx(2.0 * math.pi, abs=1e-12)
        g2 = grid_for("ade2d", (-1.92, 2.08, -1.92, 2.08), 26)
        assert isinstance(g2, Grid2D)
        assert (g2.nx, g2.ny) == (26, 26)
        assert g2.hx == pytest.approx(0.16, abs=1e-15)
        g3 = grid_for("ade2d", (-1.92, 2.08, -1.92, 2.08), (26, 21))
        assert (g3.nx, g3.ny) == (26, 21)
        assert g3.hy == pytest.approx(0.2, abs=1e-15)
        assert grid_for("vbe", (0.0, 1.0), (11,)) == Grid1D(0.0, 0.1, 11)


class TestEvolve:
    def test_zero_steps_returns_exact_data(self):
        _, _, rep = evolve("ade1d", "comp", Grid1D(-2.0, 0.2, 31), 1e-3, 0.0, ADE_PARAMS)
        assert rep.rmse == 0.0 and rep.linf == 0.0
        assert rep.n_steps == 0

    def test_report_fields(self):
        _, _, rep = evolve("ade1d", "comp", Grid1D(-2.0, 0.2, 31), 1e-3, 0.05, ADE_PARAMS)
        assert isinstance(rep, ErrorReport)
        assert rep.scheme == "comp" and rep.pde == "ade1d"
        assert rep.n == 31 and rep.h == pytest.approx(0.2)
        assert rep.tau == 1e-3 and rep.t_final == 0.05
        assert rep.n_steps == 50
        assert 0.0 < rep.rmse <= rep.linf
        assert rep.wall_time >= 0.0

    def test_report_carries_the_stability_numbers(self):
        params = PdeParams(alpha=-2.0, beta=1.0, nu=0.05, L=0.4)
        _, _, rep = evolve("ade1d", "ftcs", Grid1D(-2.0, 0.2, 31), 1e-3, 0.005, params)
        assert rep.courant == 2.0 * 1e-3 / 0.2
        assert rep.diffusion == 0.05 * 1e-3 / (0.2 * 0.2)
        grid = BLOCK_GRIDS["ade2d"]  # hx = 0.32 < hy = 0.4
        _, _, rep = evolve("ade2d", "comp", grid, 1e-3, 0.005, params)
        assert rep.courant == 2.0 * 1e-3 / 0.32
        assert rep.diffusion == 0.05 * 1e-3 / (0.32 * 0.32)
        # the y axis counts with its own speed beta
        fast_y = PdeParams(alpha=-2.0, beta=4.0, nu=0.05, L=0.4)
        _, _, rep = evolve("ade2d", "ftcs", grid, 1e-3, 0.005, fast_y)
        assert rep.courant == 4.0 * 1e-3 / 0.4
        only_y = PdeParams(alpha=0.0, beta=30.0)
        with pytest.warns(RuntimeWarning, match=r"\|beta\| tau / h = 3 exceeds 1"):
            ctx = StepContext(Grid2D(0, 0, 0.1, 0.1, 9, 9), only_y, 0.01, 0.0, None)
        assert ctx.courant == 30.0 * 0.01 / 0.1

    def test_determinism(self):
        _, _, a = evolve("ade1d", "comp", Grid1D(-2.0, 0.2, 31), 1e-3, 0.05, ADE_PARAMS)
        _, _, b = evolve("ade1d", "comp", Grid1D(-2.0, 0.2, 31), 1e-3, 0.05, ADE_PARAMS)
        assert a.linf == b.linf and a.rmse == b.rmse

    def test_step_count_mismatch(self):
        with pytest.raises(StepCountMismatch):
            evolve("ade1d", "comp", Grid1D(-2.0, 0.2, 31), 3e-3, 0.05, ADE_PARAMS)

    def test_step_count_tolerance_is_relative_to_tau(self):
        # 1.5 steps of a tiny tau must not round to 2 steps and pass
        with pytest.raises(StepCountMismatch):
            evolve("ade1d", "ftcs", Grid1D(-2.0, 0.2, 31), 1e-10, 1.5e-10, ADE_PARAMS)
        _, _, rep = evolve("ade1d", "ftcs", Grid1D(-2.0, 0.2, 31), 1e-10, 3e-10, ADE_PARAMS)
        assert rep.n_steps == 3

    def test_sliding_mesh_restricted_to_invariant_viscous_step(self):
        with pytest.raises(ValueError):
            evolve("vbe", "comp", Grid1D(0.0, 0.1, 11), 1e-3, 0.01, PdeParams(nu=0.1), mesh_velocity=1.0)
        with pytest.raises(ValueError):
            evolve("ibe", "sym", Grid1D(0.0, 0.1, 11), 1e-3, 0.01, PdeParams(), mesh_velocity=1.0)

    @pytest.mark.parametrize(
        "tau, t_final",
        [(1e-3, -0.01), (0.0, 0.01), (np.nan, 0.01), (1e-3, np.nan), (1e-3, np.inf), (-1e-3, 0.01)],
    )
    def test_rejects_bad_step_or_horizon_before_any_step(self, tau, t_final):
        exact, calls = default_exact("ade1d", ADE_PARAMS), []

        def provider(t, x):
            calls.append(t)
            return exact(t, x)

        with pytest.raises(ValueError, match="tau|t_final"):
            evolve("ade1d", "comp", Grid1D(-2.0, 0.2, 31), tau, t_final, ADE_PARAMS, exact=provider)
        assert calls == []

    def test_two_dimensional_report_shapes(self):
        g = grid_for("ade2d", (-1.92, 2.08, -1.92, 2.08), 8)
        _, _, rep = evolve("ade2d", "comp", g, 1e-3, 0.005, ADE_PARAMS)
        assert rep.n == (8, 8)
        assert rep.h[0] == pytest.approx(4.0 / 7.0)


    def test_compact_diffusion_limit_is_screened(self):
        # nu tau / h^2 = 0.34: under FTCS's 1/2, over the compact D2's 1/3
        grid, tau, params = Grid1D(-2.0, 0.2, 31), 1e-3, PdeParams(alpha=1.0, nu=13.6, L=0.4)
        with pytest.warns(RuntimeWarning, match=r"nu tau / h\^2 = 0.34 exceeds 1/3"):
            _, _, rep = evolve("ade1d", "comp", grid, tau, 10.24, params)
        assert rep.linf > 1e100  # the run the screen warns of
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, rep = evolve("ade1d", "ftcs", grid, tau, 10.24, params)
        assert rep.linf < 1.0

    @pytest.mark.parametrize("pde, scheme", [(p, s) for p in PDES for s in SCHEMES_BY_PDE[p]])
    def test_each_scheme_is_screened_at_its_own_limit(self, pde, scheme):
        grid = BLOCK_GRIDS[pde]
        h = min(grid.spacing)
        for number, warns in ((0.33, False), (0.34, scheme != "ftcs"), (0.51, True)):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                ctx = StepContext(grid, PdeParams(nu=number * h * h / 1e-3), 1e-3, 0.0, None)
                metrics._stepper(pde, scheme, ctx)
            assert bool(seen) == warns
            assert all("diffusion number" in str(w.message) for w in seen)

    @pytest.mark.parametrize("pde", PDES)
    def test_exact_off_the_dirichlet_nodes_is_a_shape_mismatch(self, pde):
        grid = BLOCK_GRIDS[pde]
        exact = default_exact(pde, ADE_PARAMS)
        nodes = len(grid.dirichlet[0][0])

        def three_values(t, *xy):
            first = exact(t, *xy)
            return first if np.ndim(t) == 0 else np.ones(3)

        with pytest.raises(ShapeMismatch, match=rf"\(3,\).*\(4, {nodes}\)"):
            evolve(pde, "ftcs", grid, 1e-3, 4e-3, ADE_PARAMS, exact=three_values)
        ctx = StepContext(grid, ADE_PARAMS, 1e-3, 0.0, lambda t, *xy: np.ones(3))
        with pytest.raises(ShapeMismatch, match=rf"\(3,\).*\(1, {nodes}\)"):
            step(pde, "ftcs", np.ones(grid.shape), ctx)


class TestResolvedOnce:
    """evolve resolves the update once per run, step once per call; both run
    the same per-step body (TestBoundaryBlock checks they give the same bits),
    except on the AFFINE pairs' full blocks (TestAffineBlock)."""

    @pytest.mark.parametrize(
        "pde, scheme, velocity",
        [("ade1d", "sym2", 0.0), ("vbe", "comp", 1.0), ("ibe", "sym", 1.0)],
    )
    def test_evolve_rejects_before_any_step(self, pde, scheme, velocity):
        params = PdeParams(nu=0.1)
        exact = default_exact(pde, params)
        times = []

        def provider(t, *x):
            times.append(t)
            return exact(t, *x)

        grid = BLOCK_GRIDS[pde]
        with pytest.raises(ValueError):
            evolve(pde, scheme, grid, 1e-3, 0.01, params, exact=provider, mesh_velocity=velocity)
        assert times == []  # not even the initial data

    @pytest.mark.parametrize(
        "pde, grid", [("ade2d", Grid1D(0.0, 0.1, 11)), ("ade1d", Grid2D(0.0, 0.0, 0.1, 0.1, 7, 7))]
    )
    def test_evolve_rejects_a_grid_of_another_dimension_before_the_initial_data(self, pde, grid):
        exact, times = default_exact(pde, ADE_PARAMS), []

        def provider(t, *x):
            times.append(t)
            return exact(t, *x)

        with pytest.raises(ShapeMismatch):
            evolve(pde, "ftcs", grid, 1e-3, 0.01, ADE_PARAMS, exact=provider)
        assert times == []

    @pytest.mark.parametrize("velocity", [math.inf, -math.inf, math.nan])
    def test_non_finite_mesh_velocity_rejected(self, velocity):
        params, grid = PdeParams(nu=0.1), BLOCK_GRIDS["vbe"]
        exact = default_exact("vbe", params)
        with pytest.raises(ValueError, match="mesh_velocity"):
            StepContext(grid, params, 1e-3, 0.0, exact, mesh_velocity=velocity)
        with pytest.raises(ValueError, match="mesh_velocity"):
            evolve("vbe", "sym", grid, 1e-3, 0.01, params, mesh_velocity=velocity)

    @pytest.mark.parametrize("pde, scheme", list(_STEPPERS))
    def test_step_rejects_a_field_off_the_grid(self, pde, scheme):
        grid = BLOCK_GRIDS[pde]
        ctx = StepContext(grid, PdeParams(nu=0.1), 1e-3, 0.0, default_exact(pde, PdeParams()))
        with pytest.raises(ShapeMismatch):
            step(pde, scheme, np.ones(grid.shape[0] + 1), ctx)


class TestSlopeFit:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_recovers_fabricated_order(self, p):
        hs = np.array([0.4, 0.2, 0.1, 0.05])
        errs = 2.5 * hs**p
        assert fit_slope(hs, errs) == pytest.approx(p, abs=1e-8)

    @pytest.mark.parametrize(
        "hs, errs",
        [
            ([0.4, 0.2, 0.1], [1e-2, 0.0, 1e-4]),
            ([0.4, 0.2, 0.1], [1e-2, -1e-3, 1e-4]),
            ([0.4, 0.2, 0.1], [1e-2, np.nan, 1e-4]),
            ([0.4, 0.2, 0.1], [1e-2, np.inf, 1e-4]),
            ([0.4, 0.0, 0.1], [1e-2, 1e-3, 1e-4]),
            ([0.4, np.nan, 0.1], [1e-2, 1e-3, 1e-4]),
        ],
    )
    def test_rejects_non_positive_or_non_finite_entries(self, hs, errs):
        # a zero error (say, a zero-step run) must not become a silent NaN slope
        with pytest.raises(ValueError, match="positive and finite"):
            fit_slope(hs, errs)


class TestConvergenceStudy:
    def test_needs_three_distinct_sizes(self):
        with pytest.raises(ValueError):
            convergence_study("ade1d", "comp", [11, 11, 21], 1e-3, 0.01, ADE_PARAMS, (-2.0, 4.0))

    def test_rows_are_sorted_and_slope_matches_fit(self):
        table = convergence_study(
            "ade1d", "comp", [21, 11, 16], 5e-3, 0.05, ADE_PARAMS, (-2.0, 4.0)
        )
        assert isinstance(table, ConvergenceTable)
        assert [r[0] for r in table.rows] == [11, 16, 21]
        hs = [r[1] for r in table.rows]
        errs = [r[2] for r in table.rows]
        assert table.slope == pytest.approx(fit_slope(hs, errs), abs=1e-12)


class TestGalileanExperiment:
    def test_invariant_scheme_error_is_boost_independent(self):
        grid = Grid1D(0.0, 2.0 * math.pi / 40.0, 41)
        results = galilean_experiment(
            [0.0, 0.3], schemes=("sym",), grid=grid, tau=1e-3, t_final=0.05,
            params=PdeParams(nu=1.0 / 12.0),
        )
        assert [(c, s) for c, s, _ in results] == [(0.0, "sym"), (0.3, "sym")]
        linfs = [rep.linf for _, _, rep in results]
        assert abs(linfs[1] - linfs[0]) <= 1e-10 * max(linfs)

    def test_zero_boost_matches_plain_run(self):
        grid = Grid1D(0.0, 2.0 * math.pi / 40.0, 41)
        params = PdeParams(nu=1.0 / 12.0)
        results = galilean_experiment(
            [0.0], schemes=("comp",), grid=grid, tau=1e-3, t_final=0.05, params=params
        )
        _, _, plain = evolve("vbe", "comp", grid, 1e-3, 0.05, params)
        assert results[0][2].linf == pytest.approx(plain.linf, rel=1e-14)


def per_piece_boundary(provider, grid, t, shift=0.0):
    """The Dirichlet values at time t written as one provider call per end
    (1D) or per side (2D), on a full field; the nodes off the boundary are
    NaN."""
    if isinstance(grid, Grid2D):
        x, y = grid.x, grid.y
        field = np.full(grid.shape, np.nan)
        field[0, :] = provider(t, x[0], y)
        field[-1, :] = provider(t, x[-1], y)
        field[:, 0] = provider(t, x, y[0])
        field[:, -1] = provider(t, x, y[-1])
        return field
    field = np.full(grid.n, np.nan)
    field[0] = provider(t, grid.x0 + shift)
    field[-1] = provider(t, grid.x0 + (grid.n - 1) * grid.h + shift)
    return field


def single_steps(pde, scheme, grid, params, exact, tau, n_steps, velocity=0.0):
    """n_steps calls of step from the exact data at t = 0."""
    v = exact(0.0, *np.meshgrid(*grid.axes, indexing="ij"))
    ctx = StepContext(grid, params, tau, 0.0, exact, mesh_velocity=velocity)
    for k in range(n_steps):
        ctx.t = k * tau
        v = step(pde, scheme, v, ctx)
    return v


BLOCK_GRIDS = {
    "ibe": Grid1D(-3.0, 0.2, 31),
    "ade1d": Grid1D(-2.0, 0.2, 31),
    "vbe": Grid1D(0.0, 2.0 * math.pi / 20.0, 21),
    "ade2d": Grid2D(-1.92, -1.6, 0.32, 0.4, 13, 9),
}


class TestBoundaryBlock:
    """evolve draws the Dirichlet values of BOUNDARY_BLOCK steps from one
    provider call; they must be the per-step values bit for bit."""

    @pytest.mark.parametrize("pde", ["ibe", "ade1d", "vbe", "ade2d"])
    def test_nodes_are_the_boundary_once_each(self, pde):
        grid = BLOCK_GRIDS[pde]
        index, coords = grid.dirichlet
        mask = np.zeros(grid.shape, bool)
        mask[index] = True
        expected = ~np.isnan(per_piece_boundary(lambda t, *c: 0.0, grid, 0.0))
        assert np.array_equal(mask, expected)
        assert len(index[0]) == expected.sum()
        assert all(len(c) == len(index[0]) for c in coords)

    @pytest.mark.parametrize("pde", ["ibe", "ade1d", "vbe", "ade2d"])
    def test_block_equals_per_step_values(self, pde):
        params = PdeParams(nu=1.0 / 12.0) if pde == "vbe" else ADE_PARAMS
        exact = default_exact(pde, params)
        grid = BLOCK_GRIDS[pde]
        tau = 1e-3
        ctx = StepContext(grid, params, tau, 0.0, exact)
        block = boundary_values(ctx, np.arange(40, 90) * tau + tau)
        for k in range(40, 90):
            field = per_piece_boundary(exact, grid, k * tau + tau)
            assert np.array_equal(block[k - 40], field[grid.dirichlet[0]])

    def test_block_equals_per_step_values_on_sliding_mesh(self):
        params = PdeParams(nu=1.0 / 12.0)
        c = 0.7
        exact = galilean_exact(default_exact("vbe", params), c)
        grid = BLOCK_GRIDS["vbe"]
        tau = 1e-3
        ctx = StepContext(grid, params, tau, 0.0, exact, mesh_velocity=c)
        block = boundary_values(ctx, np.arange(0, 30) * tau + tau)
        for k in range(30):
            t = k * tau + tau
            field = per_piece_boundary(exact, grid, t, shift=c * t)
            assert np.array_equal(block[k], field[[0, -1]])

    @pytest.mark.parametrize(
        "pde, scheme, velocity", [(*pair, 0.0) for pair in _STEPPERS] + [(*SLIDING, 0.7)]
    )
    def test_run_off_a_block_multiple_matches_single_steps(self, pde, scheme, velocity):
        params = PdeParams(nu=1.0 / 12.0) if pde == "vbe" else ADE_PARAMS
        exact = default_exact(pde, params)
        if velocity:
            exact = galilean_exact(exact, velocity)
        grid = BLOCK_GRIDS[pde]
        tau = 1e-4
        n_steps = BOUNDARY_BLOCK + 7
        calls = []

        def provider(*args):
            calls.append(args[0])
            return exact(*args)

        u, _, rep = evolve(pde, scheme, grid, tau, n_steps * tau, params,
                           exact=provider, mesh_velocity=velocity)
        assert rep.n_steps == n_steps
        # the initial data, two blocks of boundary values, the reference
        assert len(calls) == 4
        assert [np.size(t) for t in calls[1:3]] == [BOUNDARY_BLOCK, 7]

        v = single_steps(pde, scheme, grid, params, exact, tau, n_steps, velocity)
        if (pde, scheme) in AFFINE:  # the full block is one product: equal to roundoff
            assert np.abs(u - v).max() <= n_steps * EPS * np.abs(v).max()
        else:
            assert np.array_equal(u, v)

    @pytest.mark.parametrize("pde, scheme", AFFINE)
    def test_run_shorter_than_a_block_matches_single_steps_bit_for_bit(self, pde, scheme):
        exact, grid, tau = default_exact(pde, ADE_PARAMS), BLOCK_GRIDS[pde], 1e-4
        n_steps = BOUNDARY_BLOCK - 1
        u = evolve(pde, scheme, grid, tau, n_steps * tau, ADE_PARAMS)[0]
        v = single_steps(pde, scheme, grid, ADE_PARAMS, exact, tau, n_steps)
        assert np.array_equal(u, v)

    @pytest.mark.parametrize("pde, scheme", [("vbe", "sym"), ("ade2d", "ftcs")])
    def test_single_step_refreshes_from_the_provider(self, pde, scheme):
        params = PdeParams(nu=1.0 / 12.0) if pde == "vbe" else ADE_PARAMS
        velocity = 0.7 if pde == "vbe" else 0.0
        exact = default_exact(pde, params)
        if velocity:
            exact = galilean_exact(exact, velocity)
        grid = BLOCK_GRIDS[pde]
        t0, tau = 0.1, 1e-3
        if pde == "ade2d":
            u = exact(t0, *np.meshgrid(grid.x, grid.y, indexing="ij"))
        else:
            u = exact(t0, grid.x + velocity * t0)
        ctx = StepContext(grid, params, tau, t0, exact, mesh_velocity=velocity)
        out = step(pde, scheme, u, ctx)
        index = grid.dirichlet[0]
        field = per_piece_boundary(exact, grid, t0 + tau, shift=velocity * (t0 + tau))
        assert np.array_equal(out[index], field[index])
        row = boundary_values(ctx, np.array([t0 + tau]))[0]
        assert np.array_equal(step(pde, scheme, u, ctx, row), out)


class TestAffineBlock:
    """The AFFINE pairs take each full block of steps as one product with the
    block map [M^m G]. They must agree with their step-by-step runs to
    roundoff, fail as loudly, keep the band step on long lines, and build the
    map only when a full block comes."""

    @pytest.mark.parametrize("n", [31, 41, 61])
    @pytest.mark.parametrize("scheme", ["ftcs", "comp"])
    def test_criterion_5_runs_match_their_steps(self, scheme, n, monkeypatch):
        grid = grid_for("ade1d", (-2.0, 4.0), n)
        u, _, rep = evolve("ade1d", scheme, grid, 1e-5, 0.5, ADE_PARAMS)
        monkeypatch.setattr(metrics, "AFFINE", ())  # one step per row
        v, _, stepwise = evolve("ade1d", scheme, grid, 1e-5, 0.5, ADE_PARAMS)
        assert rep.n_steps == stepwise.n_steps == 50_000
        assert np.abs(u - v).max() <= rep.n_steps * EPS * np.abs(v).max()

    @pytest.mark.parametrize("scheme", ["ftcs", "comp"])
    def test_unstable_block_map_raises_when_built(self, scheme):
        # diffusion number 5: the FTCS factor 1 - 4 * 5 = -19 per step, and
        # 19^256 is past the largest float
        grid, tau = BLOCK_GRIDS["ade1d"], 1e-3
        params = PdeParams(alpha=1.0, nu=5.0 * grid.h**2 / tau, L=0.4)
        exact, blocks = default_exact("ade1d", params), []
        with pytest.warns(RuntimeWarning, match="diffusion number"):
            steps = metrics._stepper("ade1d", scheme, StepContext(grid, params, tau, 0.0, exact))
        with pytest.raises(NonFinite):
            metrics._block_map(steps, grid, BOUNDARY_BLOCK)

        def provider(t, x):
            blocks.append(np.size(t))
            return exact(t, x)

        with pytest.warns(RuntimeWarning, match="diffusion number"):
            with pytest.raises(NonFinite):
                evolve("ade1d", scheme, grid, tau, 10 * BOUNDARY_BLOCK * tau, params,
                       exact=provider)
        assert blocks == [1, BOUNDARY_BLOCK]  # the initial data and the first block

    @pytest.mark.parametrize("scheme", ["ftcs", "comp"])
    def test_unstable_field_raises_a_few_blocks_in(self, scheme):
        # diffusion number 0.7: the block map is finite, the field grows by
        # at most about 1.8^256 per block and overflows after a few
        grid, tau = BLOCK_GRIDS["ade1d"], 1e-3
        params = PdeParams(alpha=1.0, nu=0.7 * grid.h**2 / tau, L=0.4)
        exact, blocks = default_exact("ade1d", params), []
        with pytest.warns(RuntimeWarning, match="diffusion number"):
            steps = metrics._stepper("ade1d", scheme, StepContext(grid, params, tau, 0.0, exact))
        block = metrics._block_map(steps, grid, BOUNDARY_BLOCK)
        assert np.isfinite(block).all()

        def provider(t, x):
            blocks.append(np.size(t))
            return exact(t, x)

        with pytest.warns(RuntimeWarning, match="diffusion number"):
            with pytest.raises(NonFinite):
                evolve("ade1d", scheme, grid, tau, 10 * BOUNDARY_BLOCK * tau, params,
                       exact=provider)
        assert 3 <= len(blocks) - 1 < 10

    @pytest.mark.parametrize("scheme", ["ftcs", "comp"])
    def test_line_past_dense_max_keeps_the_stepwise_bits(self, scheme):
        grid = grid_for("ade1d", (-2.0, 4.0), compact_ops.DENSE_MAX + 1)
        exact, tau, n_steps = default_exact("ade1d", ADE_PARAMS), 1e-3, BOUNDARY_BLOCK + 3
        u = evolve("ade1d", scheme, grid, tau, n_steps * tau, ADE_PARAMS)[0]
        v = single_steps("ade1d", scheme, grid, ADE_PARAMS, exact, tau, n_steps)
        assert np.array_equal(u, v)

    @pytest.mark.parametrize("pair", AFFINE)
    def test_only_a_full_block_builds_the_map(self, pair, monkeypatch):
        entry, calls = _STEPPERS[pair], []

        def counted_binder(*bind):  # a bound advance steps each row it is given
            advance = entry(*bind)

            def counting(u, rows):
                calls.extend([u.shape] * len(rows))
                return advance(u, rows)

            return counting

        monkeypatch.setitem(_STEPPERS, pair, counted_binder)
        grid, tau = BLOCK_GRIDS["ade1d"], 1e-4
        exact = default_exact("ade1d", ADE_PARAMS)
        ctx = StepContext(grid, ADE_PARAMS, tau, 0.0, exact)
        u = exact(0.0, grid.x)
        for _ in range(3):
            u = step(*pair, u, ctx)
        assert len(calls) == 3  # one row stepped per step
        calls.clear()
        evolve(*pair, grid, tau, (BOUNDARY_BLOCK - 1) * tau, ADE_PARAMS)
        assert len(calls) == BOUNDARY_BLOCK - 1
        calls.clear()
        evolve(*pair, grid, tau, (2 * BOUNDARY_BLOCK + 5) * tau, ADE_PARAMS)
        # one probe per node, once per run, then the last partial block's steps
        assert len(calls) == grid.n + 5
