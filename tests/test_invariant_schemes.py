"""Tests for the symmetry-preserving steps, their jet updates, and equivariance."""

import math

import numpy as np
import pytest

from symfd import (
    FrameSingularity,
    Grid1D,
    Grid2D,
    NonFinite,
    PdeParams,
    StepContext,
    ZeroState,
    evolve,
    galilean_exact,
    invariantize_check,
    step,
    vbe_exact,
)
from symfd import invariant_schemes as inv
from symfd.invariant_schemes import LAMBDA_TOL, ZERO_STATE_TOL
from symfd.metrics import _STEPPERS

TAU = 1e-3
VBE_NU = 1.0 / 12.0


def rarefaction(t, x):
    return np.asarray(x, float) / (1.0 + t)


def make_ctx(grid, tau, t, provider, nu=0.0, mesh_velocity=0.0):
    return StepContext(grid, PdeParams(nu=nu), tau, t, provider, mesh_velocity)


def jet_update(pde, scheme, grid, params):
    """The pair's production jet update (the advance's update) as a function
    update(u, jets, tau) -> the new field, bound at that tau: it scales the
    jets (u_x, u_xx[, u_y, u_yy]) by the advance's own scales, steps as the
    advance does, and checks the advance's guards as a replayed step does."""

    def update(u, jets, tau):
        out = np.empty(grid.shape)
        advance = _STEPPERS[pde, scheme](grid, params, tau)
        scaled = tuple(jet * c for jet, c in zip(jets, advance.scales * (len(jets) // 2)))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            advance.update(u, scaled, out)()
        for guard in advance.guards:
            guard.check()
        return out

    return update


class TestJetUpdates:
    """Each update against the projective group of its equation (see the
    invariant_schemes docstring), on random positive u and random jets at
    tau = 1e-2: Burgers maps the jet to (u, u_x + eps, u_xx) and tau to
    tau / q, q = 1 - eps tau, and scales the new value by q; advection-
    diffusion maps u_kk to u_kk - 2 eps u and tau to tau / q, q = 1 - 4 nu eps
    tau, and scales the new value by q^(d/2) exp(-eps speed^2 tau^2 / q)."""

    TAU, PARAMS = 1e-2, PdeParams(alpha=1.5, beta=-0.5, nu=0.2)
    LINE, PLANE = Grid1D(0.0, 0.25, 9), Grid2D(0.0, 0.0, 0.2, 0.2, 8, 7)

    def defect(self, update, pde, grid):
        """The largest relative defect of the group identity on interior nodes,
        over three eps."""
        rng = np.random.default_rng(17)
        u = rng.uniform(0.5, 2.0, grid.shape)
        jets = tuple(rng.normal(size=grid.shape) for _ in range(2 * u.ndim))
        tau, p, d = self.TAU, self.PARAMS, u.ndim
        speed2 = p.alpha**2 + (p.beta**2 if d == 2 else 0.0)
        burgers, interior, worst = pde in ("ibe", "vbe"), (slice(1, -1),) * d, 0.0
        for eps in (-2.0, 0.5, 3.0) if burgers else (-0.7, 0.3, 1.1):
            if burgers:
                q = 1.0 - eps * tau
                moved, scale = (jets[0] + eps, jets[1]), q
            else:
                q = 1.0 - 4.0 * p.nu * eps * tau
                moved = tuple(jet - 2.0 * eps * u if k % 2 else jet for k, jet in enumerate(jets))
                scale = q ** (d / 2.0) * math.exp(-eps * speed2 * tau * tau / q)
            lhs, rhs = update(u, moved, tau / q), scale * update(u, jets, tau)
            worst = max(worst, (np.abs(lhs - rhs) / np.abs(rhs))[interior].max())
        return worst

    @pytest.mark.parametrize(
        "pde, scheme",
        [("ibe", "sym"), ("vbe", "sym"), ("ade1d", "sym"), ("ade2d", "sym1"), ("ade2d", "sym2")],
    )
    def test_invariant_updates_commute_with_the_projective_group(self, pde, scheme):
        grid = self.PLANE if pde == "ade2d" else self.LINE
        assert self.defect(jet_update(pde, scheme, grid, self.PARAMS), pde, grid) <= 1e-13

    @pytest.mark.parametrize("pde", ["ibe", "vbe"])
    def test_compact_burgers_updates_do_not(self, pde):
        update = jet_update(pde, "comp", self.LINE, self.PARAMS)
        assert self.defect(update, pde, self.LINE) > 1e-6

    @pytest.mark.parametrize("grid", [LINE, PLANE], ids=["1d", "2d"])
    def test_a_forward_euler_advection_diffusion_map_does_not(self, grid):
        p = self.PARAMS

        def euler(u, jets, tau):  # u + tau (nu u_kk - speed_k u_k), summed over the axes
            terms = zip(jets[::2], jets[1::2], (p.alpha, p.beta))
            return u + tau * sum(p.nu * ukk - speed * uk for uk, ukk, speed in terms)

        assert self.defect(euler, "ade", grid) > 1e-6

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            inv.ade_sym(self.PLANE, PdeParams(), TAU, "sym3")


class TestFixedPointsAndExactness:
    def test_constants_are_fixed_points(self):
        grid = Grid1D(0.5, 0.25, 9)
        const = lambda t, x: np.full_like(np.asarray(x, float), 2.5)
        u = np.full(9, 2.5)
        for pde, nu in (("ibe", 0.0), ("ade1d", 0.1), ("vbe", 0.1)):
            out = step(pde, "sym", u.copy(), make_ctx(grid, TAU, 0.0, const, nu=nu))
            assert np.abs(out - 2.5).max() <= 1e-13

    def test_constants_are_fixed_points_2d(self):
        grid = Grid2D(0.0, 0.0, 0.2, 0.2, 8, 8)
        const = lambda t, x, y: np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, 1.5)
        u = np.full((8, 8), 1.5)
        for variant in ("sym1", "sym2"):
            ctx = StepContext(grid, PdeParams(nu=0.1), TAU, 0.0, const)
            out = step("ade2d", variant, u.copy(), ctx)
            assert np.abs(out - 1.5).max() <= 1e-13

    def test_one_step_exact_on_expanding_linear_profile(self):
        # u = x / (1 + t) solves both 1d Burgers problems; the frame turns
        # one invariant step into the exact update
        grid = Grid1D(1.0, 0.25, 9)
        for pde, nu in (("ibe", 0.0), ("vbe", VBE_NU)):
            for t0 in (0.0, 0.5):
                u0 = rarefaction(t0, grid.x)
                out = step(pde, "sym", u0, make_ctx(grid, TAU, t0, rarefaction, nu=nu))
                assert np.abs(out - rarefaction(t0 + TAU, grid.x)).max() <= 1e-12

    def test_many_steps_stay_exact_on_expanding_profile(self):
        grid = Grid1D(1.0, 0.25, 9)
        steps = 50
        for pde, nu in (("ibe", 0.0), ("vbe", VBE_NU)):
            _, _, report = evolve(
                pde, "sym", grid, TAU, steps * TAU, PdeParams(nu=nu), exact=rarefaction
            )
            assert report.linf <= 1e-12

    def test_sliding_mesh_keeps_boosted_linear_profile_exact(self):
        c = 0.6
        grid = Grid1D(1.0, 0.25, 9)
        boosted = galilean_exact(rarefaction, c)
        u0 = boosted(0.0, grid.x)
        ctx = make_ctx(grid, TAU, 0.0, boosted, nu=VBE_NU, mesh_velocity=c)
        out = step("vbe", "sym", u0, ctx)
        assert np.abs(out - boosted(TAU, grid.x + c * TAU)).max() <= 1e-12

    def test_advection_reduction_matches_base_scheme_on_linear_data(self):
        # with no curvature the drift frame is trivial and the invariant
        # update must agree with the plain compact step
        grid = Grid1D(0.0, 0.2, 13)
        linear = lambda t, x: 2.0 + 0.5 * np.asarray(x, float)
        u = linear(0.0, grid.x)
        p = PdeParams(alpha=1.0, nu=1.0 / 60.0)
        ctx = StepContext(grid, p, TAU, 0.0, linear)
        out_sym = step("ade1d", "sym", u.copy(), ctx)
        out_comp = step("ade1d", "comp", u.copy(), ctx)
        assert np.abs(out_sym - out_comp).max() <= 1e-12

    def test_advection_reduction_matches_base_scheme_on_linear_data_2d(self):
        grid = Grid2D(0.0, 0.0, 0.2, 0.2, 9, 9)
        plane = lambda t, x, y: 5.0 + np.asarray(x, float) + 2.0 * np.asarray(y, float)
        u = plane(0.0, grid.x[:, None], grid.y[None, :])
        p = PdeParams(alpha=1.0, beta=1.0, nu=1.0 / 60.0)
        ctx = StepContext(grid, p, TAU, 0.0, plane)
        out_comp = step("ade2d", "comp", u.copy(), ctx)
        for variant in ("sym1", "sym2"):
            out_sym = step("ade2d", variant, u.copy(), ctx)
            assert np.abs(out_sym - out_comp).max() <= 1e-12


class TestGuards:
    def test_projective_factor_blowup_is_detected(self):
        # slope -1/tau drives the factor to zero mid-domain
        grid = Grid1D(0.0, 0.25, 9)
        u = -10.0 * grid.x
        ctx = make_ctx(grid, 0.1, 0.0, lambda t, x: -10.0 * np.asarray(x, float))
        with pytest.raises(FrameSingularity):
            step("ibe", "sym", u, ctx)
        with pytest.raises(FrameSingularity):
            step("vbe", "sym", u, make_ctx(grid, 0.1, 0.0, lambda t, x: -10.0 * np.asarray(x, float), nu=VBE_NU))

    def test_negative_projective_factor_is_detected(self):
        # tau = 0.2 takes lambda = 1 - 10 tau through zero to -1; the Burgers
        # frames have no chart there, so the step must fail, not flip the sign
        grid = Grid1D(0.0, 0.25, 9)
        provider = lambda t, x: -10.0 * np.asarray(x, float)
        u = provider(0.0, grid.x)
        for pde, nu in (("ibe", 0.0), ("vbe", VBE_NU)):
            with pytest.raises(FrameSingularity):
                step(pde, "sym", u, make_ctx(grid, 0.2, 0.0, provider, nu=nu))

    def test_positive_branch_violation_is_detected(self):
        # strong positive curvature with large diffusion flips the factor
        # sign; spacing 0.2 keeps the run below the stability screens
        grid = Grid1D(0.0, 0.2, 11)
        steep = lambda t, x: np.exp(8.0 * np.asarray(x, float))
        u = steep(0.0, grid.x)
        ctx = StepContext(grid, PdeParams(alpha=1.0, nu=1.0), 0.01, 0.0, steep)
        with pytest.raises(FrameSingularity):
            step("ade1d", "sym", u, ctx)

    def test_positive_branch_violation_is_detected_2d(self):
        grid = Grid2D(0.0, 0.0, 0.2, 0.2, 11, 6)
        steep = lambda t, x, y: np.exp(8.0 * np.asarray(x, float)) + 0.0 * np.asarray(y, float)
        u = steep(0.0, grid.x[:, None], grid.y[None, :])
        ctx = StepContext(grid, PdeParams(alpha=1.0, beta=1.0, nu=1.0), 0.01, 0.0, steep)
        with pytest.raises(FrameSingularity):
            step("ade2d", "sym1", u, ctx)

    def test_zero_state_is_detected(self):
        grid = Grid1D(-1.0, 0.2, 11)  # node 5 sits exactly at zero
        sign_change = lambda t, x: np.asarray(x, float)
        ctx = StepContext(grid, PdeParams(alpha=1.0, nu=0.01), TAU, 0.0, sign_change)
        with pytest.raises(ZeroState):
            step("ade1d", "sym", grid.x.copy(), ctx)

    def test_zero_state_is_detected_2d(self):
        grid = Grid2D(0.0, 0.0, 0.2, 0.2, 8, 8)
        u = np.ones((8, 8))
        u[3, 4] = 0.0
        const = lambda t, x, y: np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, 1.0)
        ctx = StepContext(grid, PdeParams(nu=0.1), TAU, 0.0, const)
        with pytest.raises(ZeroState):
            step("ade2d", "sym2", u, ctx)

    def test_non_finite_output_is_detected(self):
        grid = Grid1D(0.0, 0.25, 9)
        bad = np.ones(9)
        bad[4] = np.nan
        ctx = make_ctx(grid, TAU, 0.0, lambda t, x: np.ones_like(np.asarray(x, float)), nu=VBE_NU)
        with pytest.raises(NonFinite):
            step("vbe", "sym", bad, ctx)


class TestGuardThresholds:
    """ZeroState below ZERO_STATE_TOL and FrameSingularity at or below
    LAMBDA_TOL, on interior nodes only; a NaN frame is left to NonFinite."""

    LINE, PLANE = Grid1D(0.0, 0.25, 9), Grid2D(0.0, 0.0, 0.2, 0.2, 8, 8)

    @staticmethod
    def constant(value):
        return lambda t, *xy: np.full(np.broadcast(*map(np.asarray, xy)).shape, value)

    @pytest.mark.parametrize("grid", [LINE, PLANE], ids=["1d", "2d"])
    @pytest.mark.parametrize("variant", ["sym1", "sym2"])
    def test_zero_state_threshold(self, grid, variant):
        p = PdeParams(alpha=1.0, beta=1.0, nu=0.1)
        # on a line both variants are the one sym step
        pair = ("ade1d", "sym") if grid is self.LINE else ("ade2d", variant)
        for sign in (1.0, -1.0):
            ctx = StepContext(grid, p, TAU, 0.0, self.constant(sign * ZERO_STATE_TOL))
            at = np.full(grid.shape, sign * ZERO_STATE_TOL)  # flat: s1 = 0, lambda = 1
            assert np.isfinite(step(*pair, at, ctx)).all()
            below = at.copy()
            below[(3,) * at.ndim] = sign * np.nextafter(ZERO_STATE_TOL, 0.0)
            with pytest.raises(ZeroState):
                step(*pair, below, ctx)

    @staticmethod
    def lambda_at(value, node, shape):
        lam = np.ones(shape)
        lam[node] = value
        return lam

    @pytest.mark.parametrize("grid", [LINE, PLANE], ids=["1d", "2d"])
    def test_frame_singularity_threshold_in_the_ade_step(self, grid):
        # u = 1 and u_xx = 2 d s1 at one interior node give lambda = 1 - (4 nu tau) s1
        # there and 1 elsewhere. 1 - x is exact near 1, so lambda cannot be
        # LAMBDA_TOL itself: take the two adjacent s1 whose lambda brackets it.
        # alpha = beta = 0 keeps the Gaussian weight at 1.
        u, p = np.ones(grid.shape), PdeParams(alpha=0.0, beta=0.0, nu=0.1)
        k, node = 4.0 * p.nu * TAU, (3,) * u.ndim
        s1 = (1.0 - LAMBDA_TOL) / k
        while 1.0 - k * s1 <= LAMBDA_TOL:
            s1 = np.nextafter(s1, 0.0)
        while 1.0 - k * np.nextafter(s1, np.inf) > LAMBDA_TOL:
            s1 = np.nextafter(s1, np.inf)
        above, at_or_below = s1, np.nextafter(s1, np.inf)
        assert 1.0 - k * above > LAMBDA_TOL >= 1.0 - k * at_or_below
        pair = ("ade1d", "sym") if grid is self.LINE else ("ade2d", "sym2")
        for s1, raises in ((at_or_below, True), (above, False)):
            uxx, zero = np.zeros(grid.shape), np.zeros(grid.shape)
            uxx[node] = 2.0 * u.ndim * s1  # exact: a power of two
            jets = (zero, uxx) + (zero, zero) * (u.ndim - 1)
            if raises:
                with pytest.raises(FrameSingularity):
                    jet_update(*pair, grid, p)(u, jets, TAU)
            else:
                assert np.isfinite(jet_update(*pair, grid, p)(u, jets, TAU)).all()

    def test_frame_singularity_threshold_of_the_guard(self):
        interior = np.s_[1:-1]
        guard = inv._frame_guard(self.lambda_at(LAMBDA_TOL, 4, 9)[interior])
        with pytest.raises(FrameSingularity):  # a replayed step
            guard.check()
        guard.running[...] = guard.values  # a block
        assert not guard.passed() and guard.lowest == math.inf
        above = np.nextafter(LAMBDA_TOL, 1.0)
        guard = inv._frame_guard(self.lambda_at(above, 4, 9)[interior])
        guard.check()
        guard.running[...] = guard.values
        assert guard.passed() and guard.lowest == above
        guard.running[0] = np.nan  # a NaN sends the block to the replay
        assert not guard.passed() and guard.lowest == above

    @pytest.mark.parametrize("pde", ["ibe", "vbe"])
    def test_burgers_lambda_is_one_plus_tau_ux_on_interior_nodes(self, pde):
        # lambda = 1 + tau u_x: -1 on both end nodes raises nothing, and an
        # interior node at lambda = 1 - 2 tau / tau = -1 raises
        grid, tau, p = self.LINE, 0.01, PdeParams(nu=VBE_NU)
        ux = np.zeros(9)
        ux[[0, -1]] = -2.0 / tau
        jets = (ux, np.zeros(9))
        assert np.isfinite(jet_update(pde, "sym", grid, p)(np.ones(9), jets, tau)).all()
        ux[4] = -2.0 / tau
        with pytest.raises(FrameSingularity):
            jet_update(pde, "sym", grid, p)(np.ones(9), jets, tau)

    @pytest.mark.parametrize(
        "pde, scheme", [("ade1d", "sym"), ("ade2d", "sym1"), ("ade2d", "sym2")]
    )
    def test_bad_boundary_values_raise_neither(self, pde, scheme):
        # a zero end node divides by zero there (s1 = inf, lambda = -inf) and a
        # negative one sends lambda below zero; only interior nodes count
        grid = self.LINE if pde == "ade1d" else self.PLANE
        one = lambda t, *xy: np.ones(np.broadcast(*map(np.asarray, xy)).shape)
        ctx = StepContext(grid, PdeParams(alpha=1.0, beta=1.0, nu=0.1), TAU, 0.0, one)
        for bad in (0.0, -1e-13, -5.0):
            u = np.ones(grid.shape)
            u[(0,) * u.ndim] = bad
            out = step(pde, scheme, u, ctx)
            assert np.isfinite(out).all()

    @pytest.mark.parametrize(
        "pde, scheme",
        [("ibe", "sym"), ("vbe", "sym"), ("ade1d", "sym"), ("ade2d", "sym1"), ("ade2d", "sym2")],
    )
    def test_nan_frame_ends_in_non_finite(self, pde, scheme):
        grid = self.LINE if pde != "ade2d" else self.PLANE
        one = lambda t, *xy: np.ones(np.broadcast(*map(np.asarray, xy)).shape)
        ctx = StepContext(grid, PdeParams(alpha=1.0, beta=1.0, nu=0.1), TAU, 0.0, one)
        u = np.ones(grid.shape)
        u[(3,) * u.ndim] = np.nan  # every lambda is NaN: no guard fires
        with pytest.raises(NonFinite):
            step(pde, scheme, u, ctx)


class TestEquivariance:
    def test_commutation_defect_is_roundoff(self):
        assert invariantize_check("vbe", [0.0, 0.5, 1.0]) <= 1e-12
        assert invariantize_check("ibe", [-0.3, 0.0, 0.4]) <= 1e-12

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            invariantize_check("ade1d", [0.0])

    def test_multi_step_boost_commutation(self):
        # boost speeds chosen so c * t_final lands on a whole number of
        # cells: the boosted fixed-grid run can then be compared with the
        # node-shifted unboosted run without interpolation
        n, t_final, tau = 101, 0.25, 1e-3
        grid = Grid1D(0.0, 2.0 * math.pi / (n - 1), n)
        params = PdeParams(nu=VBE_NU)
        plain_exact = lambda t, x: vbe_exact(t, x, VBE_NU)
        plain = {
            s: evolve("vbe", s, grid, tau, t_final, params)[0]
            for s in ("ftcs", "comp", "sym")
        }
        defects = {"ftcs": [], "comp": [], "sym": []}
        for k in (1, 2, 4):
            c = k * grid.h / t_final
            boosted = galilean_exact(plain_exact, c)
            for s in defects:
                velocity = c if s == "sym" else 0.0
                shifted, _, _ = evolve(
                    "vbe", s, grid, tau, t_final, params, exact=boosted, mesh_velocity=velocity
                )
                if s == "sym":
                    # nodes slide with the boost: same index, same point
                    d = np.abs(shifted - (plain[s] + c)).max()
                else:
                    # fixed grid: the boost maps node i-k onto node i
                    d = np.abs(shifted[k:] - (plain[s][:-k] + c)).max()
                defects[s].append(float(d))
        assert max(defects["sym"]) <= 1e-10
        # the non-invariant schemes must fail the same test, more so for
        # faster boosts
        assert defects["ftcs"][0] > 1e-2
        assert defects["comp"][0] > 5e-3
        assert defects["ftcs"] == sorted(defects["ftcs"])
        assert defects["comp"] == sorted(defects["comp"])


class TestPublishedErrorLevels:
    def test_merging_front_errors_at_small_step(self):
        # frozen benchmark pair for the 101-node merging-front run with the
        # time step small enough that the spatial error dominates
        grid = Grid1D(0.0, 2.0 * math.pi / 100.0, 101)
        params = PdeParams(nu=VBE_NU)
        _, _, comp = evolve("vbe", "comp", grid, 1e-5, 0.25, params)
        _, _, sym = evolve("vbe", "sym", grid, 1e-5, 0.25, params)
        assert comp.linf == pytest.approx(0.0994, rel=0.02)
        assert comp.rmse == pytest.approx(0.0143, rel=0.02)
        assert sym.linf == pytest.approx(0.1060, rel=0.02)
        assert sym.rmse == pytest.approx(0.0140, rel=0.02)
