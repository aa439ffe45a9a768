"""Tests for error measures, the time loop, and the studies."""

import math
import warnings
import weakref

import numpy as np
import pytest

from symfd import (
    BoundaryPolicy,
    ConvergenceTable,
    ErrorReport,
    Grid1D,
    Grid2D,
    PdeParams,
    StepContext,
    StepCountMismatch,
    convergence_study,
    d1,
    evolve,
    fit_slope,
    galilean_exact,
    galilean_experiment,
    grid_for,
    ibe_breaking_time,
    ibe_exact,
    linf,
    rmse,
    step,
    vbe_exact,
)
from symfd import baseline_schemes, compact_ops, metrics
from symfd.baseline_schemes import BLOCK_VALUES, BOUNDARY_BLOCK, block_steps
from symfd.errors import NonFinite, ShapeMismatch
from symfd.metrics import (
    _STEPPERS,
    PDES,
    SCHEMES_BY_PDE,
    SLIDING,
    boundary_values,
    default_exact,
)

ADE_PARAMS = PdeParams(alpha=1.0, nu=1.0 / 60.0, L=0.4)
# The pairs whose full blocks on short lines are one product with the block map.
MAPPED = (("ade1d", "ftcs"), ("ade1d", "comp"))
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
        # non-finite differences keep the plain form's inf and NaN, as in linf
        assert rmse(np.array([np.inf, 1.0]), np.zeros(2)) == np.inf
        assert np.isnan(rmse(np.array([np.nan, 1.0]), np.zeros(2)))
        assert linf(np.array([np.inf, 1.0]), np.zeros(2)) == np.inf
        assert np.isnan(linf(np.array([np.nan, 1.0]), np.zeros(2)))

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
    except on the MAPPED pairs' full blocks (TestAffineBlock)."""

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

    def test_sizes_may_be_a_generator(self):
        args = ("ade1d", "comp", [21, 11, 16], 5e-3, 0.05, ADE_PARAMS, (-2.0, 4.0))
        table = convergence_study(*args)
        assert convergence_study(*args[:2], (n for n in args[2]), *args[3:]) == table

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
    """evolve draws the Dirichlet values of a block of block_steps(grid) steps
    from one provider call; they must be the per-step values bit for bit."""

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
        rows = block_steps(grid)
        n_steps = rows + 7
        calls = []

        def provider(*args):
            calls.append(args[0])
            return exact(*args)

        u, _, rep = evolve(pde, scheme, grid, tau, n_steps * tau, params,
                           exact=provider, mesh_velocity=velocity)
        assert rep.n_steps == n_steps
        # the initial data, two blocks of boundary values, the reference
        assert len(calls) == 4
        assert [np.size(t) for t in calls[1:3]] == [rows, 7]

        v = single_steps(pde, scheme, grid, params, exact, tau, n_steps, velocity)
        if (pde, scheme) in MAPPED:  # the full block is one product: equal to roundoff
            assert np.abs(u - v).max() <= n_steps * EPS * np.abs(v).max()
        else:
            assert np.array_equal(u, v)

    @pytest.mark.parametrize("pde, scheme", MAPPED)
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

    @pytest.mark.parametrize(
        "pde, grid, rows",
        [
            ("ibe", BLOCK_GRIDS["ibe"], 4096),
            ("ade1d", BLOCK_GRIDS["ade1d"], 4096),
            ("vbe", BLOCK_GRIDS["vbe"], 4096),
            ("ade2d", BLOCK_GRIDS["ade2d"], BOUNDARY_BLOCK),  # 40 Dirichlet nodes
            ("ade2d", Grid2D(-1.92, -1.6, 0.32, 0.4, 5, 5), 512),  # 16 nodes
        ],
    )
    def test_a_block_draws_at_most_block_values_on_few_nodes(self, pde, grid, rows):
        exact, sizes = default_exact(pde, ADE_PARAMS), []

        def provider(t, *coords):
            sizes.append(np.broadcast(t, *coords).size)
            return exact(t, *coords)

        nodes, tau = len(grid.dirichlet[0][0]), 1e-5
        evolve(pde, "ftcs", grid, tau, (2 * rows + 3) * tau, ADE_PARAMS, exact=provider)
        assert block_steps(grid) == rows
        # the initial data, two full blocks and the last three steps, the reference
        assert sizes[1:-1] == [rows * nodes, rows * nodes, 3 * nodes]
        if nodes < BLOCK_VALUES // BOUNDARY_BLOCK:
            assert BLOCK_VALUES // 2 < rows * nodes <= BLOCK_VALUES

    @pytest.mark.parametrize("pde, scheme", [("vbe", "ftcs"), ("ade1d", "ftcs"),
                                             ("ade2d", "ftcs"), ("ibe", "sym")])
    def test_a_block_frees_its_rows_before_the_next_provider_call(self, pde, scheme):
        # a block's rows held through the next call would add one block to
        # the run's peak memory
        params = PdeParams(nu=1.0 / 12.0) if pde == "vbe" else ADE_PARAMS
        exact, grid, tau = default_exact(pde, params), BLOCK_GRIDS[pde], 1e-5
        drawn, alive = [], []

        def provider(*args):
            alive.append([ref() is not None for ref in drawn])
            values = np.array(exact(*args), dtype=float)
            drawn.append(weakref.ref(values))
            return values

        evolve(pde, scheme, grid, tau, 3 * block_steps(grid) * tau, params, exact=provider)
        # the initial data, three blocks, the reference
        assert len(alive) == 5
        assert not any(any(flags) for flags in alive[2:])


def short_blocks(pde, scheme, grid, params, tau, n_steps):
    """n_steps from the exact data at t = 0 in blocks one row short of
    BOUNDARY_BLOCK, each stepped row by row: the step-by-step run, with
    evolve's boundary rows and one bind."""
    exact = default_exact(pde, params)
    ctx = StepContext(grid, params, tau, 0.0, exact)
    advance, u = metrics._stepper(pde, scheme, ctx), exact(0.0, grid.x)
    for k0 in range(0, n_steps, BOUNDARY_BLOCK - 1):
        k1 = min(k0 + BOUNDARY_BLOCK - 1, n_steps)
        u = advance(u, boundary_values(ctx, np.arange(k0, k1) * tau + tau))
    return u


def first_non_finite_step(scheme, grid, params, exact, tau):
    """The 1-based step at which an ade1d run of step() calls from the exact
    data at t = 0 first raises NonFinite."""
    v = exact(0.0, grid.x)
    ctx = StepContext(grid, params, tau, 0.0, exact)
    for k in range(100 * BOUNDARY_BLOCK):
        ctx.t = k * tau
        try:
            v = step("ade1d", scheme, v, ctx)
        except NonFinite:
            return k + 1
    raise AssertionError("the steps never failed")


class TestAffineBlock:
    """The MAPPED pairs take each full BOUNDARY_BLOCK of a block's steps as one
    product with the block map [M^m G]. They must agree with their
    step-by-step runs to roundoff, keep the bits of 256-row blocks, fail as
    loudly at the same step, fall back to their steps when the map overflows,
    keep the band step on long lines, and build the map only when a full
    BOUNDARY_BLOCK of rows comes."""

    def test_boundary_block_is_a_power_of_two(self):
        # the block map is squared up from M, so it reaches only powers of two
        assert BOUNDARY_BLOCK > 1 and BOUNDARY_BLOCK & (BOUNDARY_BLOCK - 1) == 0

    @pytest.mark.parametrize("n", [31, 41, 61])
    @pytest.mark.parametrize("scheme", ["ftcs", "comp"])
    def test_criterion_5_runs_match_their_steps(self, scheme, n):
        grid = grid_for("ade1d", (-2.0, 4.0), n)
        u, _, rep = evolve("ade1d", scheme, grid, 1e-5, 0.5, ADE_PARAMS)
        v = short_blocks("ade1d", scheme, grid, ADE_PARAMS, 1e-5, 50_000)
        assert rep.n_steps == 50_000
        assert np.abs(u - v).max() <= rep.n_steps * EPS * np.abs(v).max()

    @pytest.mark.parametrize("scheme", ["ftcs", "comp"])
    def test_unstable_block_map_raises_when_built(self, scheme):
        # diffusion number 5: the FTCS factor 1 - 4 * 5 = -19 per step, and
        # 19^256 is past the largest float; the field overflows in the first
        # block too
        grid, tau = BLOCK_GRIDS["ade1d"], 1e-3
        params = PdeParams(alpha=1.0, nu=5.0 * grid.h**2 / tau, L=0.4)
        exact = default_exact("ade1d", params)
        with pytest.warns(RuntimeWarning, match="diffusion number"):
            with pytest.raises(NonFinite) as raised:
                evolve("ade1d", scheme, grid, tau, 10 * BOUNDARY_BLOCK * tau, params)
            fails_at = first_non_finite_step(scheme, grid, params, exact, tau)
        assert fails_at <= BOUNDARY_BLOCK  # in the first chunk, which the map takes
        assert raised.value.step == fails_at
        assert raised.value.t == (fails_at - 1) * tau + tau
        assert f"(step {fails_at}, t = " in str(raised.value)

    @pytest.mark.parametrize("scheme", ["ftcs", "comp"])
    def test_overflowing_map_returns_the_stepwise_field(self, scheme):
        # the map of the case above overflows, but data scaled by 1e-300 stay
        # finite for a full block: max|u| ~ 2e21 (ftcs) and 3e67 (comp)
        grid, tau = grid_for("ade1d", (-2.0, 4.0), 31), 1e-3
        params = PdeParams(alpha=1.0, nu=5.0 * grid.h**2 / tau, L=0.4)
        plain = default_exact("ade1d", params)
        exact = lambda t, x: 1e-300 * plain(t, x)
        with pytest.warns(RuntimeWarning, match="diffusion number"):
            u = evolve("ade1d", scheme, grid, tau, BOUNDARY_BLOCK * tau, params, exact=exact)[0]
            v = single_steps("ade1d", scheme, grid, params, exact, tau, BOUNDARY_BLOCK)
        assert np.isfinite(v).all() and np.abs(v).max() > 1e20
        assert np.array_equal(u, v)

    @pytest.mark.parametrize("scheme", ["ftcs", "comp"])
    def test_unstable_field_raises_a_few_blocks_in(self, scheme):
        # diffusion number 0.7: the block map is finite, the field grows by
        # at most about 1.8^256 per block and overflows after a few
        grid, tau = BLOCK_GRIDS["ade1d"], 1e-3
        params = PdeParams(alpha=1.0, nu=0.7 * grid.h**2 / tau, L=0.4)
        exact = default_exact("ade1d", params)
        with pytest.warns(RuntimeWarning, match="diffusion number"):
            with pytest.raises(NonFinite) as raised:
                evolve("ade1d", scheme, grid, tau, 10 * BOUNDARY_BLOCK * tau, params)
            fails_at = first_non_finite_step(scheme, grid, params, exact, tau)
        # in the third to ninth chunk of 256 steps, where 256-row blocks raised
        assert 2 * BOUNDARY_BLOCK < fails_at <= 9 * BOUNDARY_BLOCK
        assert raised.value.step == fails_at
        assert raised.value.t == (fails_at - 1) * tau + tau

    @pytest.mark.parametrize("pde, scheme", MAPPED)
    def test_a_long_block_keeps_the_bits_of_256_row_blocks(self, pde, scheme):
        # one block of 3 x 256 + 5 rows: three products with the map, then
        # five steps, as a run fed 256-row blocks takes them
        grid, tau, n_steps = BLOCK_GRIDS[pde], 1e-4, 3 * BOUNDARY_BLOCK + 5
        exact = default_exact(pde, ADE_PARAMS)
        assert block_steps(grid) > n_steps
        u = evolve(pde, scheme, grid, tau, n_steps * tau, ADE_PARAMS)[0]
        ctx = StepContext(grid, ADE_PARAMS, tau, 0.0, exact)
        advance, v = metrics._stepper(pde, scheme, ctx), exact(0.0, grid.x)
        for k0 in range(0, n_steps, BOUNDARY_BLOCK):
            k1 = min(k0 + BOUNDARY_BLOCK, n_steps)
            v = advance(v, boundary_values(ctx, np.arange(k0, k1) * tau + tau))
        assert np.array_equal(u, v)

    @pytest.mark.parametrize("scheme", ["ftcs", "comp"])
    def test_line_past_dense_max_keeps_the_stepwise_bits(self, scheme):
        grid = grid_for("ade1d", (-2.0, 4.0), compact_ops.DENSE_MAX + 1)
        exact, tau, n_steps = default_exact("ade1d", ADE_PARAMS), 1e-3, BOUNDARY_BLOCK + 3
        u = evolve("ade1d", scheme, grid, tau, n_steps * tau, ADE_PARAMS)[0]
        v = single_steps("ade1d", scheme, grid, ADE_PARAMS, exact, tau, n_steps)
        assert np.array_equal(u, v)

    @pytest.mark.parametrize("pair", MAPPED)
    def test_only_a_full_block_builds_the_map(self, pair, monkeypatch):
        bind, calls = baseline_schemes.bind_steps, []

        def counted_bind(grid, stencil, **kwargs):  # counts every step taken
            def counted_stencil(src, dst):
                step = stencil(src, dst)

                def counting():
                    calls.append(1)
                    step()

                return counting

            return bind(grid, counted_stencil, **kwargs)

        monkeypatch.setattr(baseline_schemes, "bind_steps", counted_bind)
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


def _ibe_step_with_boundary(boundary):
    grid, params = Grid1D(0.0, 0.1, 11), PdeParams(sigma=0.5)
    ctx = StepContext(grid, params, 1e-3, 0.0, default_exact("ibe", params))
    return step("ibe", "ftcs", np.ones(grid.n), ctx, boundary=boundary)


def _evolve_from_nan(t_final):
    """An ibe FTCS run whose initial data are NaN at one node."""
    params = PdeParams(sigma=0.5)
    exact = default_exact("ibe", params)

    def provider(t, x):
        return np.where((t == 0.0) & (x == 0.5), np.nan, exact(t, x))

    return evolve("ibe", "ftcs", Grid1D(0.0, 0.1, 11), 1e-3, t_final, params, exact=provider)


# Malformed input at the public entry points: each raises a SymfdError subclass,
# or a ValueError that names the argument, where an untyped error escaped or the
# input was silently cut before.
MISUSE = {
    "grid_for-ade2d-one-axis-domain": (
        lambda: grid_for("ade2d", (0.0, 1.0), 10), ValueError, "domain"),
    "grid_for-ibe-two-axis-domain": (
        lambda: grid_for("ibe", (0.0, 1.0, 0.0, 1.0), 10), ValueError, "domain"),
    "grid_for-unknown-pde": (lambda: grid_for("nope", (0.0, 1.0), 10), ValueError, "pde"),
    "grid_for-one-node": (lambda: grid_for("ibe", (0.0, 1.0), 1), ValueError, "^n "),
    "grid_for-ade2d-one-count": (
        lambda: grid_for("ade2d", (0.0, 1.0, 0.0, 1.0), (10,)), ValueError, "^n "),
    "convergence_study-ade2d-one-axis-domain": (
        lambda: convergence_study("ade2d", "ftcs", [9, 11, 13], 1e-3, 2e-3, ADE_PARAMS, (-3, 3)),
        ValueError, "domain"),
    "step-boundary-off-the-nodes": (
        lambda: _ibe_step_with_boundary(np.zeros(5)), ShapeMismatch, r"boundary.*\(5,\).*\(2,\)"),
    "fit_slope-unequal-lengths": (
        lambda: fit_slope([0.1, 0.05, 0.025], [1e-2, 1e-3]), ValueError, r"errors.*\(3,\).*\(2,\)"),
    "fit_slope-one-point": (lambda: fit_slope([0.1], [1e-2]), ValueError, "hs and errors"),
    "convergence_study-fractional-size": (
        lambda: convergence_study("ade1d", "ftcs", (11.5, 21, 31), 1e-3, 2e-3, ADE_PARAMS,
                                  (-2.0, 4.0)),
        ValueError, "^sizes "),
    "StepContext-nan-t": (
        lambda: StepContext(Grid1D(0.0, 0.1, 11), PdeParams(), 1e-3, math.nan,
                            default_exact("ibe", PdeParams())),
        ValueError, "^t "),
    "evolve-nan-initial-data-no-steps": (lambda: _evolve_from_nan(0.0), NonFinite, "initial data"),
    "evolve-nan-initial-data": (lambda: _evolve_from_nan(5e-3), NonFinite, "initial data"),
    "linear-nan-c1": (
        lambda: compact_ops.bound_linear(Grid1D(0.0, 0.1, 11), 0, math.nan, 1.0)(np.zeros(11)),
        ValueError, "^c1 "),
    "bound_pair-nan-c1": (
        lambda: compact_ops.bound_pair(Grid1D(0.0, 0.1, 11), 0, math.nan, 1.0), ValueError, "^c1 "),
    "bound_pair-inf-c2": (
        lambda: compact_ops.bound_pair(Grid1D(0.0, 0.1, 11), 0, 1.0, -math.inf), ValueError,
        "^c2 "),
    "bound_linear-inf-c2": (
        lambda: compact_ops.bound_linear(Grid1D(0.0, 0.1, 11), 0, 1.0, math.inf), ValueError, "^c2 "),
    **{
        f"{name}-{case}": (lambda bind=bind, args=args: bind(*args), ValueError, names)
        for name, bind in (("bound_pair", compact_ops.bound_pair),
                           ("bound_linear", compact_ops.bound_linear))
        for case, args, names in (
            ("axis-past-1d", (Grid1D(0.0, 0.1, 11), 1, 1.0, 0.5), "^axis "),
            ("fractional-axis", (Grid2D(0, 0, 0.1, 0.1, 7, 9), 0.5, 1.0, 0.5), "^axis "),
            ("negative-axis", (Grid2D(0, 0, 0.1, 0.1, 7, 9), -1, 1.0, 0.5), "^axis "),
            ("string-c1", (Grid1D(0.0, 0.1, 11), 0, "x", 0.5), "^c1 "),
        )
    },
    **{
        f"{name}-fractional-axis": (
            lambda reader=reader: reader(np.zeros((7, 9)), Grid2D(0, 0, 0.1, 0.1, 7, 9), 0.5),
            ValueError, "^axis ")
        for name, reader in (
            ("d1", compact_ops.d1),
            ("d2", compact_ops.d2),
            ("derivatives", compact_ops.derivatives),
            ("linear", lambda u, grid, axis: compact_ops.bound_linear(grid, axis, 1.0, 0.5)(u)),
        )
    },
    "galilean_experiment-no-speeds": (lambda: galilean_experiment([]), ValueError, "^c_values "),
    "galilean_experiment-string-speeds": (
        lambda: galilean_experiment("0.5"), ValueError, "^c_values "),
    "invariantize_check-no-speeds": (
        lambda: metrics.invariantize_check("vbe", []), ValueError, "^group_params "),
    "galilean_experiment-word-speed": (
        lambda: galilean_experiment(["fast"]), ValueError, "^c_values "),
    "galilean_experiment-nan-speed": (
        lambda: galilean_experiment([math.nan]), ValueError, "^c_values "),
    "galilean_experiment-inf-speed": (
        lambda: galilean_experiment([math.inf]), ValueError, "^c_values "),
    "invariantize_check-inf-speed": (
        lambda: metrics.invariantize_check("vbe", [math.inf]), ValueError, "^group_params "),
    "invariantize_check-nan-scale": (
        lambda: metrics.invariantize_check("ibe", [math.nan]), ValueError, "^group_params "),
    "galilean_experiment-no-schemes": (
        lambda: galilean_experiment([0.0], schemes=[]), ValueError, "^schemes "),
    "galilean_experiment-string-schemes": (
        lambda: galilean_experiment([0.0], schemes="sym"), ValueError, "^schemes "),
    "rmse-empty-fields": (lambda: rmse(np.zeros(0), np.zeros(0)), ShapeMismatch, "no node"),
    "linf-empty-fields": (lambda: linf(np.zeros(0), np.zeros(0)), ShapeMismatch, "no node"),
    "galilean_experiment-number-schemes": (
        lambda: galilean_experiment([0.0], schemes=5), ValueError, "^schemes "),
    "grid_for-string-n": (lambda: grid_for("ibe", (-3, 3), "31"), ValueError, "^n "),
    "grid_for-no-domain": (lambda: grid_for("ibe", None, 31), ValueError, "^domain "),
    "grid_for-ragged-domain": (lambda: grid_for("ibe", [(0, 1), 2], 11), ValueError, "^domain "),
    "convergence_study-no-sizes": (
        lambda: convergence_study("ibe", "ftcs", None, 1e-3, 2e-3, PdeParams(), (-3, 3)),
        ValueError, "^sizes "),
    "d1-nan-pinned-left": (
        lambda: d1(np.zeros(11), Grid1D(0.0, 0.1, 11), bp=BoundaryPolicy.exact(math.nan, 0.0)),
        ValueError, "^left "),
    "d1-inf-pinned-right": (
        lambda: d1(np.zeros(11), Grid1D(0.0, 0.1, 11), bp=BoundaryPolicy.exact(0.0, -math.inf)),
        ValueError, "^right "),
    "vbe_exact-nan-nu": (lambda: vbe_exact(0.1, 0.0, math.nan), ValueError, "^nu "),
    "vbe_exact-inf-nu": (lambda: vbe_exact(0.1, 0.0, math.inf), ValueError, "^nu "),
    "vbe_exact-nan-t": (lambda: vbe_exact(math.nan, 1.0, 0.1), ValueError, "^t "),
    "vbe_exact-inf-t": (lambda: vbe_exact(math.inf, 1.0, 0.1), ValueError, "^t "),
    "ibe_exact-zero-sigma": (lambda: ibe_exact(0.1, 0.0, sigma=0.0), ValueError, "^sigma "),
    "ibe_exact-nan-sigma": (lambda: ibe_exact(0.1, 0.0, sigma=math.nan), ValueError, "^sigma "),
    "ibe_exact-nan-t": (lambda: ibe_exact(math.nan, np.array([0.0, 1.0])), ValueError, "^t "),
    "ibe_exact-inf-time-entry": (
        lambda: ibe_exact(np.array([0.1, -math.inf]), 0.0), ValueError, "^t "),
    "ibe_breaking_time-inf-sigma": (lambda: ibe_breaking_time(math.inf), ValueError, "^sigma "),
    "evolve-subnormal-tau": (
        lambda: evolve("ibe", "ftcs", Grid1D(-3.0, 0.2, 31), 5e-324, 0.2, PdeParams()),
        ValueError, "^tau "),
    "grid_for-string-bounds": (lambda: grid_for("ibe", ("a", "b"), 31), ValueError, "^domain "),
    "convergence_study-generator-of-two-sizes": (
        lambda: convergence_study("ibe", "ftcs", (n for n in (11, 21)), 1e-3, 2e-3, PdeParams(),
                                  (-3, 3)),
        ValueError, r"^sizes .*\[11, 21\]"),
    "PdeParams-string-nu": (lambda: PdeParams(nu="0.1"), ValueError, "^nu "),
    "PdeParams-no-sigma": (lambda: PdeParams(sigma=None), ValueError, "^sigma "),
    "PdeParams-integer-past-the-float-range": (
        lambda: PdeParams(nu=10**400), ValueError, "^nu "),
    "Grid1D-string-spacing": (lambda: Grid1D(0.0, "0.1", 11), ValueError, "^h "),
    "Grid1D-no-origin": (lambda: Grid1D(None, 0.1, 11), ValueError, "^x0 "),
    "StepContext-string-tau": (
        lambda: StepContext(Grid1D(0.0, 0.1, 11), PdeParams(), "1e-3", 0.0,
                            default_exact("ibe", PdeParams())),
        ValueError, "^tau "),
    "evolve-string-tau": (
        lambda: evolve("ibe", "ftcs", Grid1D(-3.0, 0.2, 31), "1e-3", 2e-3, PdeParams()),
        ValueError, "^tau "),
    "evolve-string-t_final": (
        lambda: evolve("ibe", "ftcs", Grid1D(-3.0, 0.2, 31), 1e-3, "2e-3", PdeParams()),
        ValueError, "^t_final "),
    "evolve-string-mesh_velocity": (
        lambda: evolve("vbe", "sym", Grid1D(0.0, 0.2, 31), 1e-3, 2e-3, PdeParams(nu=0.1),
                       mesh_velocity="0.5"),
        ValueError, "^mesh_velocity "),
    "evolve-no-params": (
        lambda: evolve("ibe", "ftcs", Grid1D(-3.0, 0.2, 31), 1e-3, 2e-3, None),
        ValueError, "^params "),
    "evolve-exact-returns-none": (
        lambda: evolve("ibe", "ftcs", Grid1D(-3.0, 0.2, 31), 1e-3, 2e-3, PdeParams(),
                       exact=lambda t, x: None),
        NonFinite, "initial data"),
    "convergence_study-string-tau": (
        lambda: convergence_study("ibe", "ftcs", [11, 21, 31], "1e-3", 2e-3, PdeParams(),
                                  (-3, 3)),
        ValueError, "^tau "),
    "galilean_experiment-string-tau": (
        lambda: galilean_experiment([0.0], schemes=["ftcs"], tau="1e-3"), ValueError, "^tau "),
    "galilean_experiment-numeric-string-speed": (
        lambda: galilean_experiment(["0.5"]), ValueError, "^c_values "),
    "invariantize_check-numeric-string-scale": (
        lambda: metrics.invariantize_check("ibe", ["0.1"]), ValueError, "^group_params "),
    "vbe_exact-string-t": (lambda: vbe_exact("0.1", 0.0, 0.1), ValueError, "^t "),
    "galilean_exact-nan-c": (
        lambda: galilean_exact(default_exact("vbe", PdeParams(nu=0.1)), math.nan), ValueError,
        "^c "),
}


@pytest.mark.parametrize("call, error, names", MISUSE.values(), ids=MISUSE.keys())
def test_misuse_raises_a_typed_error_naming_the_argument(call, error, names):
    with pytest.raises(error, match=names):
        call()
