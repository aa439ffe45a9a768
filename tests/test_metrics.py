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
    galilean_experiment,
    grid_for,
    linf,
    rmse,
    step,
)
from symfd.errors import ShapeMismatch
from symfd.metrics import _STEPPERS, PDES, SCHEMES_BY_PDE, default_exact

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
        pairs = {(pde, scheme) for pde in PDES for scheme in SCHEMES_BY_PDE[pde]}
        assert set(_STEPPERS) == pairs
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

    def test_report_fields(self):
        _, _, rep = evolve("ade1d", "comp", Grid1D(-2.0, 0.2, 31), 1e-3, 0.05, ADE_PARAMS)
        assert isinstance(rep, ErrorReport)
        assert rep.scheme == "comp" and rep.pde == "ade1d"
        assert rep.n == 31 and rep.h == pytest.approx(0.2)
        assert rep.tau == 1e-3 and rep.t_final == 0.05
        assert 0.0 < rep.rmse <= rep.linf
        assert rep.wall_time >= 0.0

    def test_determinism(self):
        _, _, a = evolve("ade1d", "comp", Grid1D(-2.0, 0.2, 31), 1e-3, 0.05, ADE_PARAMS)
        _, _, b = evolve("ade1d", "comp", Grid1D(-2.0, 0.2, 31), 1e-3, 0.05, ADE_PARAMS)
        assert a.linf == b.linf and a.rmse == b.rmse

    def test_step_count_mismatch(self):
        with pytest.raises(StepCountMismatch):
            evolve("ade1d", "comp", Grid1D(-2.0, 0.2, 31), 3e-3, 0.05, ADE_PARAMS)

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


class TestSlopeFit:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_recovers_fabricated_order(self, p):
        hs = np.array([0.4, 0.2, 0.1, 0.05])
        errs = 2.5 * hs**p
        assert fit_slope(hs, errs) == pytest.approx(p, abs=1e-8)


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
