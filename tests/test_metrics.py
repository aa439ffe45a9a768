"""Tests for error measures, the time loop, and the studies."""

import math

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
from symfd.errors import ShapeMismatch
from symfd.metrics import (
    _STEPPERS,
    BOUNDARY_BLOCK,
    PDES,
    SCHEMES_BY_PDE,
    SLIDING,
    boundary_values,
    default_exact,
)

ADE_PARAMS = PdeParams(alpha=1.0, nu=1.0 / 60.0, L=0.4)


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

    def test_two_dimensional_report_shapes(self):
        g = grid_for("ade2d", (-1.92, 2.08, -1.92, 2.08), 8)
        _, _, rep = evolve("ade2d", "comp", g, 1e-3, 0.005, ADE_PARAMS)
        assert rep.n == (8, 8)
        assert rep.h[0] == pytest.approx(4.0 / 7.0)


class TestResolvedOnce:
    """evolve resolves the update once per run, step once per call; both run
    the same per-step body (TestBoundaryBlock checks they give the same bits)."""

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
        assert times == [0.0]  # the initial data, and no boundary values

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

        if pde == "ade2d":
            v = exact(0.0, *np.meshgrid(grid.x, grid.y, indexing="ij"))
        else:
            v = exact(0.0, grid.x)
        ctx = StepContext(grid, params, tau, 0.0, exact, mesh_velocity=velocity)
        for k in range(n_steps):
            ctx.t = k * tau
            v = step(pde, scheme, v, ctx)
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
