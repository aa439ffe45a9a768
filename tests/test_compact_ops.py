"""Tests for the compact derivative operators and grid types."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from symfd import BoundaryPolicy, Grid1D, Grid2D, PdeParams, ade1d_exact, ade2d_exact, d1, d2
from symfd import fit_slope
from symfd import compact_ops
from symfd.compact_ops import DENSE_MAX, HALF_WIDTH, ONE_SIDED, _operator, derivatives, linear
from symfd.compact_ops import _first_derivative_rhs, _second_derivative_rhs
from symfd.errors import ShapeMismatch
from symfd.metrics import _STEPPERS
from symfd.tridiag import solve


class Central:
    """Second-order central differences: the derivative pair of FTCS, kept here
    as a reference pair for compact_ops.linear and for the FTCS stencils.

    Same call as compact_ops.d1/d2/derivatives on 1D and 2D fields; the end
    nodes along the axis get 0. linear stores its three-point operator as a
    band at every n: a dense n x n product costs n/3 times as much.
    """

    HALF_WIDTH, DENSE_MAX = {1: 1, 2: 1}, 0

    @staticmethod
    def d1(u, grid, axis=0):
        d = np.empty_like(u)
        v, dv = (u.T, d.T) if axis else (u, d)
        dv[1:-1] = (v[2:] - v[:-2]) / (2.0 * grid.spacing[axis])
        dv[0] = dv[-1] = 0.0
        return d

    @staticmethod
    def d2(u, grid, axis=0):
        h = grid.spacing[axis]
        d = np.empty_like(u)
        v, dv = (u.T, d.T) if axis else (u, d)
        dv[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
        dv[0] = dv[-1] = 0.0
        return d

    @staticmethod
    def derivatives(u, grid, axis=0):
        return Central.d1(u, grid, axis), Central.d2(u, grid, axis)


# The longest line a dense D served before DENSE_MAX was set at the measured
# crossover, and one past it: two band lines now, checked beside the new bound.
OLD_BOUNDARY = (256, 257)


def cubic(x):
    return 1.0 + 2.0 * x - x**2 + 0.5 * x**3


def cubic_dx(x):
    return 2.0 - 2.0 * x + 1.5 * x**2


def cubic_dxx(x):
    return -2.0 + 3.0 * x


@pytest.fixture
def grid():
    return Grid1D(-1.0, 0.2, 16)


def test_first_derivative_exact_on_cubics_one_sided(grid):
    x = grid.x
    out = d1(cubic(x), grid)
    assert np.abs(out - cubic_dx(x)).max() <= 1e-10


def test_first_derivative_exact_on_cubics_pinned_ends(grid):
    x = grid.x
    bp = BoundaryPolicy.exact(cubic_dx(x[0]), cubic_dx(x[-1]))
    out = d1(cubic(x), grid, bp=bp)
    assert np.abs(out - cubic_dx(x)).max() <= 1e-10


def test_second_derivative_exact_on_cubics(grid):
    x = grid.x
    assert np.abs(d2(cubic(x), grid) - cubic_dxx(x)).max() <= 1e-10
    bp = BoundaryPolicy.exact(cubic_dxx(x[0]), cubic_dxx(x[-1]))
    assert np.abs(d2(cubic(x), grid, bp=bp) - cubic_dxx(x)).max() <= 1e-10


def test_quartic_exactness_boundaries_included(grid):
    # the interior first-derivative rows and the one-sided second-derivative
    # closure are both exact one degree beyond cubics
    x = grid.x
    bp = BoundaryPolicy.exact(4.0 * x[0] ** 3, 4.0 * x[-1] ** 3)
    assert np.abs(d1(x**4, grid, bp=bp) - 4.0 * x**3).max() <= 1e-9
    assert np.abs(d2(x**4, grid) - 12.0 * x**2).max() <= 1e-9


def test_one_sided_first_derivative_closure_is_third_order(grid):
    # on a quartic the end rows leave an O(h^3) defect while the pinned-end
    # variant stays exact; keeps the two policies honestly distinct
    x = grid.x
    err = np.abs(d1(x**4, grid) - 4.0 * x**3).max()
    assert 1e-6 < err < 1.0


def test_linearity(grid):
    rng = np.random.default_rng(3)
    u = rng.normal(size=grid.n)
    v = rng.normal(size=grid.n)
    a, b = 0.7, -1.3
    for op in (d1, d2):
        combined = op(a * u + b * v, grid)
        assert np.abs(combined - (a * op(u, grid) + b * op(v, grid))).max() <= 1e-11
        pinned = BoundaryPolicy.exact(0.0, 0.0)
        combined = op(a * u + b * v, grid, bp=pinned)
        assert (
            np.abs(combined - (a * op(u, grid, bp=pinned) + b * op(v, grid, bp=pinned))).max()
            <= 1e-11
        )


def refinement_errors(op, ref_fn, exact_ends, core_only):
    hs, errs = [], []
    for n in (17, 33, 65):
        g = Grid1D(0.25, 1.5 / (n - 1), n)
        x = g.x
        if exact_ends:
            bp = BoundaryPolicy.exact(ref_fn(x[0]), ref_fn(x[-1]))
        else:
            bp = BoundaryPolicy.one_sided()
        err = np.abs(op(np.sin(x), g, bp=bp) - ref_fn(x))
        if core_only:
            err = err[n // 3 : 2 * n // 3 + 1]
        hs.append(g.h)
        errs.append(err.max())
    return hs, errs


@pytest.mark.parametrize(
    "op,ref",
    [(d1, np.cos), (d2, lambda x: -np.sin(x))],
    ids=["dx", "dxx"],
)
def test_fourth_order_slope_pinned_ends(op, ref):
    hs, errs = refinement_errors(op, ref, exact_ends=True, core_only=False)
    assert 3.8 <= fit_slope(hs, errs) <= 4.5


@pytest.mark.parametrize(
    "op,ref",
    [(d1, np.cos), (d2, lambda x: -np.sin(x))],
    ids=["dx", "dxx"],
)
def test_fourth_order_slope_interior_one_sided(op, ref):
    # closure influence decays geometrically away from the ends, so the
    # middle third sees the pure interior-stencil order
    hs, errs = refinement_errors(op, ref, exact_ends=False, core_only=True)
    assert 3.8 <= fit_slope(hs, errs) <= 4.5


@pytest.fixture
def grid2():
    return Grid2D(0.0, -0.5, 0.1, 0.125, 9, 7)


def test_axis_operators_match_per_line_solves(grid2):
    rng = np.random.default_rng(7)
    u = rng.normal(size=(grid2.nx, grid2.ny))
    gx = Grid1D(grid2.x0, grid2.hx, grid2.nx)
    gy = Grid1D(grid2.y0, grid2.hy, grid2.ny)
    ref_x = np.stack([d1(u[:, j], gx) for j in range(grid2.ny)], axis=1)
    assert np.abs(d1(u, grid2, 0) - ref_x).max() <= 1e-13
    ref_y = np.stack([d1(u[i, :], gy) for i in range(grid2.nx)], axis=0)
    assert np.abs(d1(u, grid2, 1) - ref_y).max() <= 1e-13
    ref_xx = np.stack([d2(u[:, j], gx) for j in range(grid2.ny)], axis=1)
    assert np.abs(d2(u, grid2, 0) - ref_xx).max() <= 1e-13
    ref_yy = np.stack([d2(u[i, :], gy) for i in range(grid2.nx)], axis=0)
    assert np.abs(d2(u, grid2, 1) - ref_yy).max() <= 1e-13


def test_axis_operators_on_polynomial_fields(grid2):
    x = grid2.x[:, None]
    y = grid2.y[None, :]
    u = x + 2.0 * y
    assert np.abs(d1(u, grid2, 0) - 1.0).max() <= 1e-11
    assert np.abs(d1(u, grid2, 1) - 2.0).max() <= 1e-11
    v = x**2 * y**2
    assert np.abs(d1(v, grid2, 0) - 2.0 * x * y**2).max() <= 1e-9
    assert np.abs(d2(v, grid2, 0) - 2.0 * y**2).max() <= 1e-9
    assert np.abs(d2(v, grid2, 1) - 2.0 * x**2).max() <= 1e-9


def test_shape_mismatch(grid, grid2):
    with pytest.raises(ShapeMismatch):
        d1(np.zeros(grid.n + 1), grid)
    with pytest.raises(ShapeMismatch):
        d2(np.zeros((grid.n, 2)), grid)
    with pytest.raises(ShapeMismatch):
        d1(np.zeros((grid2.ny, grid2.nx)), grid2, 0)  # transposed
    with pytest.raises(ValueError):
        d1(np.zeros(grid.n), grid, 1)  # no second axis on a 1D grid


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(0.0, -0.1, 11)
    with pytest.raises(ValueError):
        Grid1D(0.0, 0.1, 4)
    with pytest.raises(ValueError):
        Grid2D(0.0, 0.0, 0.1, 0.0, 9, 9)
    with pytest.raises(ValueError):
        Grid2D(0.0, 0.0, 0.1, 0.1, 9, 4)
    # non-finite geometry (a NaN spacing gave NaN derivatives without an
    # error) and non-integral node counts
    for bad in ((0.0, np.nan, 11), (0.0, np.inf, 11), (-np.inf, 0.1, 11), (0.0, 0.1, 11.5),
                (0.0, 0.1, 11.0)):
        with pytest.raises(ValueError):
            Grid1D(*bad)
    for bad in ((0.0, np.nan, 0.1, 0.1, 9, 9), (0.0, 0.0, 0.1, np.inf, 9, 9),
                (0.0, 0.0, 0.1, 0.1, 9, 9.5)):
        with pytest.raises(ValueError):
            Grid2D(*bad)


def test_grid_nodes():
    g = Grid1D(-1.0, 0.5, 5)
    assert g.x == pytest.approx([-1.0, -0.5, 0.0, 0.5, 1.0], abs=0)
    g2 = Grid2D(0.0, 1.0, 0.25, 0.5, 5, 5)
    assert g2.x[-1] == pytest.approx(1.0)
    assert g2.y[-1] == pytest.approx(3.0)


def test_boundary_policy_validation():
    with pytest.raises(ValueError):
        BoundaryPolicy("mystery")
    assert BoundaryPolicy.exact(1.0, -1.0).kind == "exact"
    assert BoundaryPolicy.one_sided().kind == "one_sided"


def dense_system(op, u, h, bp):
    """The compact system of one line as a dense matrix and its rhs."""
    n = u.shape[0]
    if op is d1:
        a = np.diag(np.full(n, 2.0 / 3.0)) + np.diag(np.full(n - 1, 1.0 / 6.0), 1)
        a += np.diag(np.full(n - 1, 1.0 / 6.0), -1)
        rhs = np.zeros(n)
        rhs[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
        closure = 2.0
        ends = ((-5.0 * u[0] + 4.0 * u[1] + u[2]) / (2.0 * h),
                (5.0 * u[-1] - 4.0 * u[-2] - u[-3]) / (2.0 * h))
    else:
        a = np.diag(np.full(n, 5.0 / 6.0)) + np.diag(np.full(n - 1, 1.0 / 12.0), 1)
        a += np.diag(np.full(n - 1, 1.0 / 12.0), -1)
        rhs = np.zeros(n)
        rhs[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
        closure = 11.0
        ends = ((13.0 * u[0] - 27.0 * u[1] + 15.0 * u[2] - u[3]) / h**2,
                (13.0 * u[-1] - 27.0 * u[-2] + 15.0 * u[-3] - u[-4]) / h**2)
    a[0, :] = 0.0
    a[-1, :] = 0.0
    a[0, 0] = a[-1, -1] = 1.0
    if bp.kind == "one_sided":
        a[0, 1] = a[-1, -2] = closure
        rhs[0], rhs[-1] = ends
    else:
        rhs[0], rhs[-1] = bp.left, bp.right
    return a, rhs


def assert_matches_oracle(op, line, out, h, bp):
    a, rhs = dense_system(op, line, h, bp)
    ref = np.linalg.solve(a, rhs)
    assert np.abs(out - ref).max() <= 1e-13 * (1.0 + np.abs(rhs).max())


@pytest.mark.parametrize("axis", [None, 0, 1], ids=["1d", "axis0", "axis1"])
@pytest.mark.parametrize("kind", ["one_sided", "exact"])
@pytest.mark.parametrize("n", [5, 26, 101, DENSE_MAX, DENSE_MAX + 1, *OLD_BOUNDARY, 801])
@pytest.mark.parametrize("op", [d1, d2], ids=["d1", "d2"])
def test_matches_dense_solve_oracle(op, n, kind, axis):
    # covers all three forms: the stored D = A^-1 B up to DENSE_MAX, its band
    # above, and substitution for the pinned ends at every n
    rng = np.random.default_rng(n)
    bp = BoundaryPolicy.exact(0.3, -0.7) if kind == "exact" else BoundaryPolicy.one_sided()
    h = 1.0 / (n - 1)
    if axis is None:
        u = rng.normal(size=n)
        assert_matches_oracle(op, u, op(u, Grid1D(0.0, h, n), bp=bp), h, bp)
        return
    m = 5
    grid = Grid2D(0.0, 0.0, h, 0.25, n, m) if axis == 0 else Grid2D(0.0, 0.0, 0.25, h, m, n)
    u = rng.normal(size=grid.shape)
    out = op(u, grid, axis, bp)
    for k in range(m):
        line = (slice(None), k) if axis == 0 else (k, slice(None))
        assert_matches_oracle(op, u[line], out[line], h, bp)


@pytest.mark.parametrize("n", [26, DENSE_MAX + 1, 257])
def test_2d_inputs_are_left_untouched(n):
    rng = np.random.default_rng(11)
    grid = Grid2D(0.0, 0.0, 0.1, 0.2, n, 7)
    u = rng.normal(size=grid.shape)
    strided = np.asfortranarray(u)
    before = u.copy()
    for op in (d1, d2):
        for axis in (0, 1):
            for field in (u, strided):
                op(field, grid, axis)
                assert np.array_equal(field, before)


def test_exact_policies_share_one_factor():
    # the factor depends on the policy's kind, never on its pinned values
    grid = Grid1D(0.0, 0.1, 17)
    u = np.sin(grid.x)
    _operator.cache_clear()
    for k in range(100):
        out = d1(u, grid, bp=BoundaryPolicy.exact(float(k), -0.5 * k))
        assert (out[0], out[-1]) == (k, -0.5 * k)
    assert _operator.cache_info().currsize == 1


def test_cached_factor_is_read_only():
    f = _operator(2, 26, "one_sided")
    assert f is _operator(2, 26, "one_sided")
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.pivots = ()
    assert all(type(v) is tuple for v in (f.multipliers, f.pivots, f.upper))


def test_derivative_matrix_is_read_only():
    grid = Grid1D(0.0, 0.1, 26)
    d2(np.sin(grid.x), grid)
    d = grid.derivative_matrices[2, 0]
    assert d.shape == (26, 26) and not d.flags.writeable
    with pytest.raises(ValueError):
        d[0, 0] = 0.0


def test_derivative_matrices_built_once_per_grid(monkeypatch):
    builds = []
    real_solve = compact_ops.solve

    def counting_solve(f, rhs):
        builds.append(f.n)
        return real_solve(f, rhs)

    monkeypatch.setattr(compact_ops, "solve", counting_solve)
    grid = Grid2D(0.0, 0.0, 0.1, 0.2, 9, 7)
    u = np.random.default_rng(2).normal(size=grid.shape)
    stored = []
    for _ in range(3):
        for op in (d1, d2):
            for axis in (0, 1):
                op(u, grid, axis)
        stored.append(dict(grid.derivative_matrices))
    assert sorted(builds) == [7, 7, 9, 9]
    assert set(stored[0]) == {(1, 0), (1, 1), (2, 0), (2, 1)}
    assert all(later[k] is d for later in stored for k, d in stored[0].items())
    # the same for a banded D: one probe per (order, axis) on a 257 x 7 grid
    builds.clear()
    long = Grid2D(0.0, 0.0, 0.1, 0.2, DENSE_MAX + 1, 7)
    field = np.random.default_rng(3).normal(size=long.shape)
    for _ in range(3):
        for op in (d1, d2):
            for axis in (0, 1):
                op(field, long, axis)
    assert sorted(builds) == [7, 7, DENSE_MAX + 1, DENSE_MAX + 1]
    for order in (1, 2):
        band = long.derivative_matrices[order, 0]
        assert band.shape == (DENSE_MAX + 1, 2 * HALF_WIDTH[order] + 1)
        assert not band.flags.writeable
    # grids that differ only in h share no D: a cache keyed without h fails here
    for n in (17, DENSE_MAX + 1):
        fine, coarse = Grid1D(0.0, 0.1, n), Grid1D(0.0, 0.2, n)
        v = np.sin(fine.x)
        for op, order in ((d1, 1), (d2, 2)):
            assert not np.array_equal(op(v, fine), op(v, coarse))
            assert not np.array_equal(
                fine.derivative_matrices[order, 0], coarse.derivative_matrices[order, 0]
            )


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("n", [5, 26, 101, DENSE_MAX, DENSE_MAX + 1, *OLD_BOUNDARY, 801])
@pytest.mark.parametrize("op", [d1, d2], ids=["d1", "d2"])
def test_2d_lines_are_bit_identical_to_1d_calls(op, n, axis):
    # a line's derivative does not depend on the other lines or the memory order
    m = 7
    grid = Grid2D(0.0, 0.0, 0.1, 0.3, n, m) if axis == 0 else Grid2D(0.0, 0.0, 0.3, 0.1, m, n)
    line_grid = Grid1D(0.0, 0.1, n)
    u = np.random.default_rng(n).normal(size=grid.shape)
    for field in (u, np.asfortranarray(u)):
        out = op(field, grid, axis)
        for k in range(m):
            line = (slice(None), k) if axis == 0 else (k, slice(None))
            assert np.array_equal(out[line], op(u[line], line_grid))


def separate_product(order, u, grid, axis):
    """The order's derivative of u as its own stored product computed it before
    the pair was stacked: its own dense D, or its own band read through its own
    zero-padded lines; the reference for the stored pair [D1; D2]."""
    n, h = grid.shape[axis], grid.spacing[axis]
    rhs_of = _first_derivative_rhs if order == 1 else _second_derivative_rhs
    across = u.ndim == 2 and axis == 0
    w = HALF_WIDTH[order]
    p = n if n <= DENSE_MAX else 2 * w + 1
    comb = np.zeros((n, p))
    comb[np.arange(n), np.arange(n) % p] = 1.0
    d = solve(_operator(order, n, "one_sided"), rhs_of(comb, h, ONE_SIDED))
    if p == n:
        spec = "kj,ij->ik" if across else "...j,ij->...i"
        return np.einsum(spec, np.ascontiguousarray(u.T if across else u), d)
    j = np.arange(n)[:, None] + np.arange(p) - w
    d = np.take_along_axis(d, j % p, axis=1)
    d[(j < 0) | (j >= n)] = 0.0
    lines = u.T if across else u
    padded = np.zeros(lines.shape[:-1] + (n + 2 * w,))
    padded[..., w : n + w] = lines
    window = np.lib.stride_tricks.sliding_window_view(padded, p, axis=-1)
    out = np.einsum("ik,...ik->...i", d, window)
    return np.ascontiguousarray(out.T) if across else out


# dense and band lines, and the 2D axes of each kind: (shape, axis)
PAIR_CASES = [
    ((31,), 0), ((101,), 0), ((257,), 0), ((801,), 0),
    ((26, 26), 0), ((26, 26), 1), ((DENSE_MAX + 1, 7), 0), ((7, DENSE_MAX + 1), 1),
]


@pytest.mark.parametrize("shape, axis", PAIR_CASES)
@pytest.mark.parametrize("order", ["C", "F"])
def test_stacked_pair_is_bit_identical_to_separate_products(shape, axis, order):
    grid = Grid1D(-1.0, 0.05, *shape) if len(shape) == 1 else Grid2D(-1, 0, 0.05, 0.07, *shape)
    u = np.asarray(np.random.default_rng(sum(shape)).normal(size=shape), order=order)
    first, second = derivatives(u, grid, axis)
    for got, order_ in ((first, 1), (second, 2), (d1(u, grid, axis), 1), (d2(u, grid, axis), 2)):
        assert got.shape == grid.shape
        assert np.array_equal(got, separate_product(order_, u, grid, axis))


@pytest.mark.parametrize("shape", [(31,), (26, 26), (DENSE_MAX + 1,), (DENSE_MAX + 1, 7)])
def test_each_operator_is_stored_once(shape):
    grid = Grid1D(0.0, 0.1, *shape) if len(shape) == 1 else Grid2D(0, 0, 0.1, 0.2, *shape)
    u = np.random.default_rng(4).normal(size=shape)
    derivatives(u, grid)
    d2(u, grid)
    assert len(grid.products) == 2
    first, second = grid.derivative_matrices[1, 0], grid.derivative_matrices[2, 0]
    n = shape[0]
    if n <= DENSE_MAX:  # two halves of one stack
        assert first.shape == second.shape == (n, n)
        assert first.base is second.base and first.base.shape == (2, n, n)
    else:
        assert first.shape == (n, 2 * HALF_WIDTH[1] + 1)
        assert second.shape == (n, 2 * HALF_WIDTH[2] + 1)
        assert not np.shares_memory(first, second)
    assert grid.products[1, 0].pair is grid.products[2, 0].pair


LONG_LINES = [DENSE_MAX + 1, 200, 257, 300, 401, 513, 801, 1601]


def exact_band(order, n, h):
    """D = A^-1 B in full, by one solve on the identity, its row masses, the
    entries of its band |i - j| <= HALF_WIDTH[order] and where they are on
    the line (band entries off it are 0)."""
    rhs_of = _first_derivative_rhs if order == 1 else _second_derivative_rhs
    d = solve(_operator(order, n, "one_sided"), rhs_of(np.eye(n), h, ONE_SIDED))
    w = HALF_WIDTH[order]
    cols = np.arange(n)[:, None] + np.arange(-w, w + 1)
    on_line = (cols >= 0) & (cols < n)
    band = np.where(on_line, np.take_along_axis(d, np.clip(cols, 0, n - 1), axis=1), 0.0)
    return d, np.abs(d).sum(axis=1), band, on_line


@pytest.mark.parametrize("n", LONG_LINES)
@pytest.mark.parametrize("order", [1, 2])
def test_band_drops_under_one_rounding_of_row_mass(order, n):
    d, mass, _, _ = exact_band(order, n, 1.0 / (n - 1))
    off_band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > HALF_WIDTH[order]
    dropped = np.where(off_band, np.abs(d), 0.0).sum(axis=1)
    assert np.all(dropped <= 2.0**-53 * mass)


@pytest.mark.parametrize("n", LONG_LINES)
@pytest.mark.parametrize("op, order", [(d1, 1), (d2, 2)], ids=["d1", "d2"])
def test_probed_band_matches_exact_band(op, order, n):
    # each dropped column of D lands in one band entry of its row
    grid = Grid1D(0.0, 1.0 / (n - 1), n)
    op(np.sin(grid.x), grid)
    _, mass, band, on_line = exact_band(order, n, grid.h)
    probed = grid.derivative_matrices[order, 0]
    assert np.all(np.abs(probed - band).sum(axis=1) <= 2.0**-53 * mass)
    assert not probed[~on_line].any()


def test_long_line_operators_never_build_an_n_by_n_array():
    n = 1601
    grid = Grid1D(0.0, 1.0 / (n - 1), n)
    u = np.sin(grid.x)
    tracemalloc.start()
    try:
        d1(u, grid)
        d2(u, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n / 4


# The stored step operator T = c1 D1 + c2 D2 of compact_ops.linear.
STEP_PARAMS = PdeParams(alpha=1.0, beta=-0.5, nu=1.0 / 60.0, L=0.4)
OPS = pytest.mark.parametrize("ops", [Central, compact_ops], ids=["central", "compact"])


def stable_tau(*hs):
    """The largest step with Courant number <= 1/2 and diffusion number <= 0.4."""
    return min(min(0.5 * h, 0.4 * h * h / STEP_PARAMS.nu) for h in hs)


@OPS
@pytest.mark.parametrize("n", [5, 31, DENSE_MAX, DENSE_MAX + 1, *OLD_BOUNDARY, 401])
def test_ade1d_step_matches_expression_form(n, ops):
    # u + T u sums the step u - tau (alpha d1 - nu d2) in another order
    grid, p = Grid1D(-2.0, 6.0 / (n - 1), n), STEP_PARAMS
    tau = stable_tau(grid.h)
    u = ade1d_exact(0.3, grid.x, p)
    expression = u - tau * (p.alpha * ops.d1(u, grid) - p.nu * ops.d2(u, grid))
    product = u + linear(u, grid, 0, ops, -tau * p.alpha, tau * p.nu)  # the COMP step's u + T u
    error = np.abs(product - expression).max()
    assert error <= 8 * np.spacing(np.abs(u).max())


@OPS
@pytest.mark.parametrize("shape", [(26, 17), (9, 26), (DENSE_MAX + 1, 9)])
@pytest.mark.parametrize("axis", [0, 1])
def test_step_operator_matches_expression_form_on_each_axis(axis, shape, ops):
    grid = Grid2D(-1.92, -1.6, 4.0 / (shape[0] - 1), 3.2 / (shape[1] - 1), *shape)
    tau, p = stable_tau(*grid.spacing), STEP_PARAMS
    speed = (p.alpha, p.beta)[axis]
    u = ade2d_exact(0.3, *np.meshgrid(grid.x, grid.y, indexing="ij"), p)
    product = u + linear(u, grid, axis, ops, -tau * speed, tau * p.nu)
    expression = u - tau * (speed * ops.d1(u, grid, axis) - p.nu * ops.d2(u, grid, axis))
    assert np.abs(product - expression).max() <= 8 * np.spacing(np.abs(u).max())


@pytest.mark.parametrize("n", [5, 31, DENSE_MAX, DENSE_MAX + 1, *OLD_BOUNDARY, 401, 1601])
def test_probed_step_operator_reproduces_stored_operators(n):
    # probing d1 and d2 on the comb returns their stored D or band exactly
    grid = Grid1D(0.0, 1.0 / (n - 1), n)
    u = np.sin(grid.x)
    d1(u, grid)
    d2(u, grid)
    for order, (c1, c2) in ((1, (1.0, 0.0)), (2, (0.0, 1.0))):
        linear(u, grid, 0, compact_ops, c1, c2)
        probed = grid.derivative_matrices[compact_ops, 0, c1, c2]
        stored = grid.derivative_matrices[order, 0]
        if n > DENSE_MAX:  # D2's band is the middle of T's wider one
            pad = HALF_WIDTH[1] - HALF_WIDTH[order]
            stored = np.pad(stored, ((0, 0), (pad, pad)))
        assert np.array_equal(probed, stored)


def test_step_operator_built_once_per_grid():
    probes = []

    class Counting:
        """Central's pair, stored dense up to DENSE_MAX, recording every probe."""

        HALF_WIDTH, DENSE_MAX = Central.HALF_WIDTH, DENSE_MAX

        @staticmethod
        def d1(u, grid, axis=0):
            probes.append(u.shape)
            return Central.d1(u, grid, axis)

        @staticmethod
        def d2(u, grid, axis=0):
            probes.append(u.shape)
            return Central.d2(u, grid, axis)

    for n, width in ((17, 17), (DENSE_MAX + 1, 3)):
        probes.clear()
        grid = Grid2D(0.0, 0.0, 0.1, 0.2, n, 9)
        u = np.random.default_rng(n).normal(size=grid.shape)
        stored = []
        for _ in range(3):
            for axis in (0, 1):
                linear(u, grid, axis, Counting, -0.01, 0.002)
            stored.append(dict(grid.derivative_matrices))
        assert probes == [(n, width), (n, width), (9, 9), (9, 9)]
        assert set(stored[0]) == {(Counting, 0, -0.01, 0.002), (Counting, 1, -0.01, 0.002)}
        assert all(later[k] is t for later in stored for k, t in stored[0].items())
        t = grid.derivative_matrices[Counting, 0, -0.01, 0.002]
        assert t.shape == (n, width) and not t.flags.writeable
        with pytest.raises(ValueError):
            t[0, 0] = 0.0
        # other coefficients are another operator
        linear(u, grid, 0, Counting, -0.02, 0.002)
        assert len(probes) == 6 and len(grid.derivative_matrices) == 3
    # grids that differ only in h share no operator
    for n in (17, DENSE_MAX + 1):
        fine, coarse = Grid1D(0.0, 0.1, n), Grid1D(0.0, 0.2, n)
        v = np.sin(fine.x)
        for ops in (Central, compact_ops):
            steps = [linear(v, g, 0, ops, -0.01, 0.002) for g in (fine, coarse)]
            assert not np.array_equal(*steps)
            stored = [g.derivative_matrices[ops, 0, -0.01, 0.002] for g in (fine, coarse)]
            assert not np.array_equal(*stored)


@pytest.mark.parametrize("n", [5, 31, DENSE_MAX, 256, 801])
def test_central_step_operator_is_its_three_point_band(n):
    # FTCS's operator is stored at its own half-width on every line length
    grid, c1, c2 = Grid1D(0.0, 1.0 / (n - 1), n), -0.01, 0.002
    linear(np.sin(grid.x), grid, 0, Central, c1, c2)
    h, band = grid.h, np.zeros((n, 3))
    band[1:-1] = c1 * np.array([-1.0, 0.0, 1.0]) / (2.0 * h)
    band[1:-1] += c2 * np.array([1.0, -2.0, 1.0]) / (h * h)
    assert np.array_equal(grid.derivative_matrices[Central, 0, c1, c2], band)


@OPS
def test_long_line_step_never_builds_an_n_by_n_array(ops):
    n = 1601
    grid = Grid1D(0.0, 1.0 / (n - 1), n)
    u = np.sin(grid.x)
    tracemalloc.start()
    try:
        tau = stable_tau(grid.h)
        u + linear(u, grid, 0, ops, -tau * STEP_PARAMS.alpha, tau * STEP_PARAMS.nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n / 4


# Each stored operator is bound to one product per grid and key; a band's
# product copies the field into the grid's own zero-padded line buffer.
BOUND = pytest.mark.parametrize(
    "apply, n",
    [
        (d2, 26),
        (d1, DENSE_MAX + 1),
        (lambda u, grid, axis: linear(u, grid, axis, compact_ops, -0.01, 0.002), DENSE_MAX + 1),
        (lambda u, grid, axis: linear(u, grid, axis, Central, -0.01, 0.002), 26),
    ],
    ids=["dense", "band", "compact_step_band", "central"],
)
MEMORY_ORDER = pytest.mark.parametrize("order", ["C", "F"])


def bound_case(n, axis, order, seed):
    """A grid with n nodes along axis and two fields on it in the memory order."""
    grid = Grid2D(0.0, 0.0, 0.1, 0.3, n, 7) if axis == 0 else Grid2D(0.0, 0.0, 0.3, 0.1, 7, n)
    rng = np.random.default_rng(seed)
    return grid, [np.asarray(rng.normal(size=grid.shape), order=order) for _ in range(2)]


@BOUND
@MEMORY_ORDER
@pytest.mark.parametrize("axis", [0, 1])
def test_bound_product_results_keep_their_values(apply, n, axis, order):
    # no result is, or views, the grid's line buffer
    grid, (u, v) = bound_case(n, axis, order, n)
    first = apply(u, grid, axis)
    kept = first.copy()
    later = [apply(field, grid, axis) for field in (v, u, v)]
    assert np.array_equal(first, kept)
    assert not any(np.shares_memory(first, out) for out in later)


@BOUND
@MEMORY_ORDER
@pytest.mark.parametrize("axis", [0, 1])
def test_bound_product_leaks_nothing_between_fields(apply, n, axis, order):
    # alternating fields on one grid gives the bits of fresh grids
    grid, (u, v) = bound_case(n, axis, order, n + 1)
    shared = [apply(field, grid, axis) for field in (u, v, u, v)]
    fresh = [apply(field, dataclasses.replace(grid), axis) for field in (u, v, u, v)]
    assert all(np.array_equal(a, b) for a, b in zip(shared, fresh))
    assert not np.array_equal(shared[0], shared[1])


@pytest.mark.parametrize(
    "apply",
    [
        d1,
        lambda u, grid: linear(u, grid, 0, compact_ops, -0.01, 0.002),
        lambda u, grid: linear(u, grid, 0, Central, -0.01, 0.002),
    ],
    ids=["d1", "compact_step", "central_step"],
)
def test_second_call_on_a_long_line_allocates_only_its_output(apply):
    n = 801
    grid = Grid1D(0.0, 1.0 / (n - 1), n)
    u = np.sin(grid.x)
    apply(u, grid)
    tracemalloc.start()
    try:
        out = apply(u, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a new padded line would add 6.4 kB or more; the array object, 2 kB at most
    assert peak <= out.nbytes + 2048


# The bound FTCS stencils against the central pair. The Burgers stencils round
# as the pair's expression did; the advection-diffusion stencil sums u + T u in
# another order than u - tau (alpha d1 - nu d2), on the flattened field.
FTCS_CASES = pytest.mark.parametrize(
    "pde, grid",
    [
        ("ibe", Grid1D(-3.0, 0.2, 31)),
        ("vbe", Grid1D(0.0, 2.0 * np.pi / 30.0, 31)),
        ("ade1d", Grid1D(-2.0, 0.2, 31)),
        ("ade2d", Grid2D(-1.92, -1.92, 0.16, 0.16, 26, 26)),
        ("ade2d", Grid2D(-1.92, -1.6, 0.5, 0.25, 9, 13)),  # a stride mix-up shows here
        ("ade2d", Grid2D(-1.92, -1.6, 0.25, 0.5, 13, 9)),
    ],
    ids=["ibe", "vbe", "ade1d", "ade2d_26x26", "ade2d_9x13", "ade2d_13x9"],
)
FTCS_PARAMS = PdeParams(alpha=1.0, beta=-0.5, nu=1.0 / 60.0, sigma=0.5, L=0.4)


def central_step(pde, u, grid, p, tau):
    """One FTCS step of the interior written with the central pair: the reference
    of the bound stencils."""
    if pde == "ibe":
        return u - tau * u * Central.d1(u, grid)
    if pde == "vbe":
        ux, uxx = Central.derivatives(u, grid)
        return u - tau * (u * ux - p.nu * uxx)
    t = -tau * (p.alpha * Central.d1(u, grid, 0) - p.nu * Central.d2(u, grid, 0))
    if u.ndim == 2:
        t -= tau * (p.beta * Central.d1(u, grid, 1) - p.nu * Central.d2(u, grid, 1))
    return u + t


@FTCS_CASES
def test_bound_ftcs_steps_match_the_central_pair(pde, grid):
    rng = np.random.default_rng(len(grid.shape) * 100 + grid.shape[-1])
    tau = 0.2 * min(grid.spacing) ** 2
    u = 1.0 + rng.normal(size=grid.shape)
    index = grid.dirichlet[0]
    rows = rng.normal(size=(3, len(index[0])))
    advance = _STEPPERS[pde, "ftcs"](grid, FTCS_PARAMS, tau)
    v = u
    for k, row in enumerate(rows, 1):  # a block of k rows from u
        v = central_step(pde, v, grid, FTCS_PARAMS, tau)
        v[index] = row
        out = advance(u, rows[:k])
        if pde in ("ibe", "vbe"):
            assert np.array_equal(out, v)
        else:
            assert np.abs(out - v).max() <= 4 * k * np.spacing(np.abs(v).max())


@FTCS_CASES
def test_bound_ftcs_blocks_return_their_own_arrays(pde, grid):
    # the buffers are the run's; no result is, or views, one of them
    rng = np.random.default_rng(3)
    advance = _STEPPERS[pde, "ftcs"](grid, FTCS_PARAMS, 1e-4)
    rows = np.zeros((2, len(grid.dirichlet[0][0])))
    u, v = 1.0 + rng.normal(size=(2,) + grid.shape)
    first = advance(u, rows)
    kept = first.copy()
    later = [advance(field, rows[:k]) for field in (v, u) for k in (1, 2)]
    assert np.array_equal(first, kept)
    assert np.array_equal(later[3], first)
    assert not any(np.shares_memory(first, out) for out in later)
