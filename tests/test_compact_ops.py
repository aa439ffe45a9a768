"""Tests for the compact derivative operators and grid types."""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from symfd import BoundaryPolicy, Grid1D, Grid2D, PdeParams, ade1d_exact, ade2d_exact, d1, d2
from symfd import evolve, fit_slope
from symfd import compact_ops
from symfd.compact_ops import DENSE_MAX, HALF_WIDTH, ONE_SIDED, derivatives
from symfd.compact_ops import _bands, _rhs
from symfd.errors import ShapeMismatch
from symfd.metrics import _STEPPERS, galilean_experiment
from symfd.tridiag import solve


class Central:
    """Second-order central differences: the derivative pair of FTCS, kept here
    as the reference of the bound FTCS stencils.

    Same call as compact_ops.d1/d2/derivatives on 1D and 2D fields; the end
    nodes along the axis get 0.
    """

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
# The widest half-width, that of the window every tile row is placed in.
WIDEST = max(HALF_WIDTH.values())


def band_of(tiles, n, w):
    """The (n, 2w + 1) band of one operator of a line of n nodes, read back from
    its (q, b, b + 2 WIDEST) tiles (compact_ops._tiled): band row qb + r is
    row r of tile q at columns r + WIDEST - w .. r + WIDEST + w."""
    b = tiles.shape[1]
    i = np.arange(n)[:, None]
    return tiles[i // b, i % b, i % b + WIDEST - w + np.arange(2 * w + 1)]


@pytest.mark.parametrize("n", [DENSE_MAX + 1, 201, 801])
def test_bands_come_back_from_their_tiles(n):
    rng = np.random.default_rng(n)
    bands = [rng.normal(size=(n, 2 * w + 1)) for w in HALF_WIDTH.values()]
    tiles = compact_ops._tiled(bands)
    rest = tiles.reshape(len(bands), -1).copy()
    where = np.arange(rest.shape[1]).reshape(tiles.shape[1:])  # each tile entry's index
    for k, (band, w) in enumerate(zip(bands, HALF_WIDTH.values())):
        assert band_of(tiles[k], n, w).tobytes() == band.tobytes()
        rest[k, band_of(where, n, w)] = 0.0
    assert not rest.any()  # every other entry, rows past n included, is 0


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


def test_exact_policies_pin_their_end_values():
    # each call solves with the policy's own pinned values
    grid = Grid1D(0.0, 0.1, 17)
    u = np.sin(grid.x)
    for k in range(100):
        out = d1(u, grid, bp=BoundaryPolicy.exact(float(k), -0.5 * k))
        assert (out[0], out[-1]) == (k, -0.5 * k)


def test_derivative_matrix_is_read_only():
    grid = Grid1D(0.0, 0.1, 26)
    d2(np.sin(grid.x), grid)
    d = grid.products[0].operator[1]  # D2, the second half of the unit pair
    assert d.shape == (26, 26) and not d.flags.writeable
    with pytest.raises(ValueError):
        d[0, 0] = 0.0


def test_derivative_matrices_built_once_per_grid(monkeypatch):
    builds = []
    real_solve = compact_ops.solve

    def counting_solve(lower, diag, upper, rhs):
        builds.append(len(diag))
        return real_solve(lower, diag, upper, rhs)

    monkeypatch.setattr(compact_ops, "solve", counting_solve)
    grid = Grid2D(0.0, 0.0, 0.1, 0.2, 9, 7)
    u = np.random.default_rng(2).normal(size=grid.shape)
    stored = []
    for _ in range(3):
        for op in (d1, d2):
            for axis in (0, 1):
                op(u, grid, axis)
        stored.append(dict(grid.products))
    assert sorted(builds) == [7, 7, 9, 9]  # one probe of each order per axis
    assert set(stored[0]) == {0, 1}  # the unit pair of each axis, which d1 and d2 read
    assert all(later[k] is pair for later in stored for k, pair in stored[0].items())
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
        tiles = long.products[0].operator[order - 1]
        band = band_of(tiles, DENSE_MAX + 1, HALF_WIDTH[order])
        assert band.shape == (DENSE_MAX + 1, 2 * HALF_WIDTH[order] + 1)
        assert not tiles.flags.writeable
    # grids that differ only in h share no D: a cache keyed without h fails here
    for n in (17, DENSE_MAX + 1):
        fine, coarse = Grid1D(0.0, 0.1, n), Grid1D(0.0, 0.2, n)
        v = np.sin(fine.x)
        for op, order in ((d1, 1), (d2, 2)):
            assert not np.array_equal(op(v, fine), op(v, coarse))
            assert not np.array_equal(
                fine.products[0].operator[order - 1], coarse.products[0].operator[order - 1]
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


def written_out_rhs(order, u, h, bp):
    """B U of the order's system with each row written out as an expression."""
    rhs = np.empty_like(u)
    if order == 1:
        rhs[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
        rhs[0] = (-5.0 * u[0] + 4.0 * u[1] + u[2]) / (2.0 * h)
        rhs[-1] = (5.0 * u[-1] - 4.0 * u[-2] - u[-3]) / (2.0 * h)
    else:
        rhs[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
        rhs[0] = (13.0 * u[0] - 27.0 * u[1] + 15.0 * u[2] - u[3]) / (h * h)
        rhs[-1] = (13.0 * u[-1] - 27.0 * u[-2] + 15.0 * u[-3] - u[-4]) / (h * h)
    if bp.kind == "exact":
        rhs[0], rhs[-1] = bp.left, bp.right
    return rhs


@pytest.mark.parametrize("bp", [ONE_SIDED, BoundaryPolicy.exact(0.25, -1.5)], ids=["one", "pin"])
@pytest.mark.parametrize("shape", [(9,), (9, 4)])
@pytest.mark.parametrize("order", [1, 2])
def test_rhs_rows_keep_the_rounding_of_the_written_out_rows(order, shape, bp):
    u = np.random.default_rng(order).normal(size=shape)
    u[3], u[5] = 0.0, -0.0  # order 1's row 4 is -0.0, its sign kept
    got = _rhs(order, u, 0.3, bp)
    assert got.tobytes() == written_out_rhs(order, u, 0.3, bp).tobytes()


def separate_product(order, u, grid, axis):
    """The order's derivative of u as its own stored product computes it, apart
    from the pair: its own dense D times each contiguous line, or its own band
    cut into tiles of TILE_ROWS rows, each row at its node's place in the
    window of the widest half-width, times each contiguous window of the
    zero-padded line, one matrix-vector product per (line, tile); the
    reference for the stored pair [D1; D2]."""
    n, h = grid.shape[axis], grid.spacing[axis]
    across = u.ndim == 2 and axis == 0
    w = HALF_WIDTH[order]
    p = n if n <= DENSE_MAX else 2 * w + 1
    comb = np.zeros((n, p))
    comb[np.arange(n), np.arange(n) % p] = 1.0
    d = solve(*_bands(order, n, "one_sided"), _rhs(order, comb, h, ONE_SIDED))
    lines = (u.T if across else u).reshape(-1, n)
    if p == n:  # one matrix-vector product per contiguous line
        d = np.ascontiguousarray(d)
        out = np.stack([np.matmul(d, np.ascontiguousarray(line)) for line in lines])
        return np.ascontiguousarray(out.T) if across else out.reshape(u.shape)
    j = np.arange(n)[:, None] + np.arange(p) - w
    d = np.take_along_axis(d, j % p, axis=1)
    d[(j < 0) | (j >= n)] = 0.0
    b, wide = compact_ops.TILE_ROWS, max(HALF_WIDTH.values())
    count = -(-n // b)
    rows = np.zeros((count * b, b + 2 * wide))  # tile q is rows qb .. qb + b - 1
    i = np.arange(n)[:, None]
    rows[i, i % b + wide - w + np.arange(p)] = d
    out = []
    for line in lines:
        padded = np.zeros(count * b + 2 * wide)
        padded[wide : n + wide] = line
        windows = [np.ascontiguousarray(padded[q * b : (q + 1) * b + 2 * wide]) for q in range(count)]
        tiles = [np.matmul(rows[q * b : (q + 1) * b], window) for q, window in enumerate(windows)]
        out.append(np.concatenate(tiles)[:n])
    out = np.stack(out)
    return np.ascontiguousarray(out.T) if across else out.reshape(u.shape)


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


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("n", [5, 26, 101, DENSE_MAX, DENSE_MAX + 1, 257])
def test_a_lines_derivatives_do_not_depend_on_the_line_count(n, axis):
    # one gemv per line, and per tile on band lines: a gemm over the block of
    # lines sums in an order that changes with the line count; the line alone,
    # on its 1D grid, is the first
    line = np.random.default_rng(n).normal(size=n)
    alone = Grid1D(0.0, 0.1, n)
    seen = [np.stack([d1(line, alone), d2(line, alone), *derivatives(line, alone)])]
    for m in (5, 6, 7, 8, 13, 40):
        grid = Grid2D(0.0, 0.0, 0.1, 0.3, n, m) if axis == 0 else Grid2D(0.0, 0.0, 0.3, 0.1, m, n)
        u = np.random.default_rng(m).normal(size=grid.shape)
        first, last = [(slice(None), k) if axis == 0 else (k, slice(None)) for k in (0, m - 1)]
        u[first] = u[last] = line
        pair = derivatives(u, grid, axis)
        for k in (first, last):
            ends = (d1(u, grid, axis)[k], d2(u, grid, axis)[k], *pair[(slice(None),) + k])
            seen.append(np.stack(ends))
    assert all(np.array_equal(got, seen[0]) for got in seen)


# A field holding inf, NaN or values near the float limit: the readers give the
# bits their bound products give, and no warning (the suite makes it an error).
@pytest.mark.parametrize("shape, axis", PAIR_CASES)
@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e308], ids=["inf", "nan", "huge"])
def test_readers_neither_warn_nor_change_on_non_finite_fields(shape, axis, bad):
    grid = Grid1D(-1.0, 0.05, *shape) if len(shape) == 1 else Grid2D(-1, 0, 0.05, 0.07, *shape)
    u = np.random.default_rng(sum(shape)).normal(size=shape)
    u[(3,) * len(shape)] = bad
    with np.errstate(all="ignore"):
        want = [separate_product(order, u, grid, axis) for order in (1, 2)]
    got = [d1(u, grid, axis), d2(u, grid, axis), *derivatives(u, grid, axis)]
    assert all(np.array_equal(g, w, equal_nan=True) for g, w in zip(got, want + want))
    assert not np.isfinite(got[0]).all()


@pytest.mark.parametrize("shape", [(31,), (26, 26), (DENSE_MAX + 1,), (DENSE_MAX + 1, 7)])
def test_each_operator_is_stored_once(shape):
    grid = Grid1D(0.0, 0.1, *shape) if len(shape) == 1 else Grid2D(0, 0, 0.1, 0.2, *shape)
    u = np.random.default_rng(4).normal(size=shape)
    derivatives(u, grid)
    d2(u, grid)
    d1(u, grid)
    # d1 and d2 read the unit pair; a scaled pair and a step operator are their caller's
    compact_ops.bound_pair(grid, 0, 0.5, 0.25)
    compact_ops.bound_linear(grid, 0, 0.5, 0.25)
    assert set(grid.products) == {0}
    pair = grid.products[0]
    assert pair is compact_ops.bound_pair(grid)
    first, second = pair.operator
    n = shape[0]
    # two halves of one stack: the dense D, or on long lines the tiles alone
    assert first.base is second.base is pair.operator
    assert not np.shares_memory(first, second)
    if n <= DENSE_MAX:
        assert pair.operator.shape == (2, n, n)
    else:
        bands = [band_of(first, n, HALF_WIDTH[1]), band_of(second, n, HALF_WIDTH[2])]
        assert bands[0].shape == (n, 2 * HALF_WIDTH[1] + 1)
        assert bands[1].shape == (n, 2 * HALF_WIDTH[2] + 1)
        assert np.array_equal(compact_ops._tiled(bands), pair.operator)  # and nothing else


@pytest.mark.parametrize("n", [31, DENSE_MAX + 1, 801])
def test_the_views_of_a_long_line_read_the_pairs_tiles(n):
    # d1 and d2 keep no views or tiles of their own: they read their half of
    # the unit pair's out, with the bits of a product of their operator alone
    grid = Grid1D(0.0, 0.1, n)
    u = np.random.default_rng(n).normal(size=n)
    both = derivatives(u, grid)
    pair = grid.products[0]
    first, second = d1(u, grid), d2(u, grid)
    assert set(grid.products) == {0} and grid.products[0] is pair
    assert not np.shares_memory(first, pair.out) and not np.shares_memory(second, pair.out)
    for order, got in ((1, first), (2, second)):
        assert np.array_equal(got, both[order - 1])
        own = compact_ops._bind(grid, 0, pair.operator[order - 1 : order])
        assert np.array_equal(got, own(u)[0])


def test_d1_and_d2_after_derivatives_keep_only_their_outputs():
    # d1 and d2 run the pair that derivatives bound and copy their half of its
    # out: a product, tiles or a whole out of their own would stay behind
    n = 801
    grid = Grid1D(0.0, 1.0 / (n - 1), n)
    u = np.sin(grid.x)
    derivatives(u, grid)
    tracemalloc.start()
    try:
        kept = d1(u, grid), d2(u, grid)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # each output's data, and its array object in 2 kB at most
    assert held <= sum(out.nbytes + 2048 for out in kept)


@pytest.mark.parametrize("shape, axis", [((31,), 0), ((DENSE_MAX + 1,), 0), ((9, 13), 0),
                                         ((9, 13), 1), ((DENSE_MAX + 1, 7), 0)])
def test_a_scaled_pair_is_each_operator_times_its_scale(shape, axis):
    grid = Grid1D(0.0, 0.1, *shape) if len(shape) == 1 else Grid2D(0, 0, 0.1, 0.2, *shape)
    c1, c2 = 1e-4, 1e-4 / 12.0
    unit, scaled = compact_ops.bound_pair(grid, axis), compact_ops.bound_pair(grid, axis, c1, c2)
    assert set(grid.products) == {axis}  # the scaled pair is its caller's
    assert compact_ops.bound_pair(grid, axis, c1, c2) is not scaled  # bound anew per caller
    n = shape[axis]
    for op, unit_op, c, w in zip(scaled.operator, unit.operator, (c1, c2), HALF_WIDTH.values()):
        assert op.shape == unit_op.shape and not op.flags.writeable
        assert np.array_equal(op, unit_op * c)
        if n > DENSE_MAX:  # each band, read back from its tiles
            assert np.array_equal(band_of(op, n, w), band_of(unit_op, n, w) * c)
    # one stack of the unit pair's form: dense, or on long lines its tiles
    assert isinstance(scaled.operator, np.ndarray) and scaled.operator.shape[0] == 2
    assert scaled.operator.shape == unit.operator.shape
    u = np.random.default_rng(5).normal(size=shape)
    jets = scaled(u)
    assert jets is scaled.out and jets.shape == (2,) + shape
    derivs = derivatives(u, grid, axis)
    for jet, deriv, c in zip(jets, derivs, (c1, c2)):  # c D u is c (D u) to roundoff
        np.testing.assert_allclose(jet, c * deriv, rtol=1e-12, atol=1e-12 * c * np.abs(deriv).max())


@pytest.mark.parametrize("shape", [(801,), (DENSE_MAX + 1, 7)], ids=["801", "113x7"])
@pytest.mark.parametrize(
    "bind, k",
    [(lambda grid: compact_ops.bound_pair(grid, 0, 1e-3, 2e-4), 2),
     (lambda grid: compact_ops.bound_linear(grid, 0, -0.01, 0.002), 1)],
    ids=["scaled_pair", "step_operator"],
)
def test_a_long_lines_product_holds_only_its_tiles_and_buffers(bind, k, shape):
    # a band kept beside the tiles, or a padded copy of one, would show here
    grid = Grid1D(0.0, 0.1, *shape) if len(shape) == 1 else Grid2D(0, 0, 0.1, 0.2, *shape)
    u = np.random.default_rng(6).normal(size=shape)
    compact_ops.bound_pair(grid)  # the grid's unit pair, which it keeps
    tracemalloc.start()
    try:
        product = bind(grid)
        product(u)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    n, b = shape[0], compact_ops.TILE_ROWS
    lines, count = math.prod(shape) // n, -(-n // b)
    tiles = k * count * b * (b + 2 * WIDEST)
    buffers = lines * (count * b + 2 * WIDEST) + k * lines * count * b  # padded lines, results
    assert held <= 8 * (tiles + k * math.prod(shape) + buffers) + 2048


def test_a_galilean_study_leaves_its_grid_only_the_unit_pair():
    grid, tau, params = Grid1D(0.0, 2.0 * np.pi / 30.0, 31), 1e-3, PdeParams(nu=1.0 / 12.0)
    galilean_experiment([0.0, 0.5, 1.0], grid=grid, tau=tau, t_final=5e-3, params=params)
    assert set(grid.products) == {0}


def test_runs_at_many_step_sizes_leave_their_grid_only_the_unit_pair():
    # each comp run binds its pair scaled by its own tau and drops it with the run
    n = 801
    grid, params = Grid1D(0.0, 2.0 * np.pi / (n - 1), n), PdeParams(nu=1.0 / 12.0)
    for k in range(1, 9):
        tau = k * 1e-6
        evolve("vbe", "comp", grid, tau, 2 * tau, params)
    assert set(grid.products) == {0}


LONG_LINES = [DENSE_MAX + 1, 200, 257, 300, 401, 513, 801, 1601]


def exact_band(order, n, h):
    """D = A^-1 B in full, by one solve on the identity, its row masses, the
    entries of its band |i - j| <= HALF_WIDTH[order] and where they are on
    the line (band entries off it are 0)."""
    d = solve(*_bands(order, n, "one_sided"), _rhs(order, np.eye(n), h, ONE_SIDED))
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
    probed = band_of(grid.products[0].operator[order - 1], n, HALF_WIDTH[order])
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


# The step operator T = c1 D1 + c2 D2 of compact_ops.bound_linear, and the
# central pair's, which the bound FTCS step of ade1d and ade2d applies.
STEP_PARAMS = PdeParams(alpha=1.0, beta=-0.5, nu=1.0 / 60.0, L=0.4)
OPS = pytest.mark.parametrize("ops", [Central, compact_ops], ids=["central", "compact"])
BINDS = {}  # (id(grid), key) -> (grid, what was bound for it under key)


def bound_once(grid, key, bind):
    """bind(), called once per grid and key and then held, as a run holds its
    products and steps; the grid is kept, so its id is not reused."""
    if (id(grid), key) not in BINDS:
        BINDS[id(grid), key] = grid, bind()
    return BINDS[id(grid), key][1]


def held_linear(u, grid, axis, c1, c2):
    """(c1 D1 + c2 D2) u along axis: the out of a step operator's product bound
    once per grid and coefficients."""
    product = bound_once(grid, ("linear", axis, c1, c2),
                         lambda: compact_ops.bound_linear(grid, axis, c1, c2))
    return product(np.ascontiguousarray(u))[0]


def held_pair(u, grid, axis):
    """(c1 u', c2 u'') along axis: the out of a scaled pair bound once per grid."""
    pair = bound_once(grid, ("pair", axis), lambda: compact_ops.bound_pair(grid, axis, 1e-3, 2e-4))
    return pair(np.ascontiguousarray(u))


def stable_tau(*hs):
    """The largest step with Courant number <= 1/2 and diffusion number <= 0.4."""
    return min(min(0.5 * h, 0.4 * h * h / STEP_PARAMS.nu) for h in hs)


def linear_step(ops, u, grid, axis, tau, speed, nu):
    """u + T u for T = tau (nu D2 - speed D1) along axis of ops' pair, each
    bound once per grid and coefficients: for compact_ops the product of
    bound_linear; for Central the FTCS step of ade1d or ade2d with the speed
    along axis, which diffuses along every axis and keeps u's Dirichlet
    values."""
    if ops is compact_ops:
        return u + held_linear(u, grid, axis, -tau * speed, tau * nu)

    def bind():
        speeds = [speed if k == axis else 0.0 for k in range(2)]
        params = PdeParams(alpha=speeds[0], beta=speeds[1], nu=nu, L=0.4)
        return _STEPPERS["ade2d" if u.ndim == 2 else "ade1d", "ftcs"](grid, params, tau)

    advance = bound_once(grid, ("ftcs", axis, tau, speed, nu), bind)
    return advance(u, u[grid.dirichlet[0]][None])


def expression_step(ops, u, grid, axis, tau, speed, nu):
    """linear_step's u + T u as the expression u - tau (speed d1 - nu d2) of ops'
    d1 and d2; for Central on a 2D field also the diffusion along the other axis,
    and u's Dirichlet values."""
    out = u - tau * (speed * ops.d1(u, grid, axis) - nu * ops.d2(u, grid, axis))
    if ops is Central and u.ndim == 2:
        out += tau * nu * Central.d2(u, grid, 1 - axis)
        out[grid.dirichlet[0]] = u[grid.dirichlet[0]]
    return out


@OPS
@pytest.mark.parametrize("n", [5, 31, DENSE_MAX, DENSE_MAX + 1, *OLD_BOUNDARY, 401])
def test_ade1d_step_matches_expression_form(n, ops):
    # u + T u sums the step u - tau (alpha d1 - nu d2) in another order
    grid, p = Grid1D(-2.0, 6.0 / (n - 1), n), STEP_PARAMS
    tau = stable_tau(grid.h)
    u = ade1d_exact(0.3, grid.x, p)
    expression = expression_step(ops, u, grid, 0, tau, p.alpha, p.nu)
    product = linear_step(ops, u, grid, 0, tau, p.alpha, p.nu)  # the COMP or FTCS step
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
    product = linear_step(ops, u, grid, axis, tau, speed, p.nu)
    expression = expression_step(ops, u, grid, axis, tau, speed, p.nu)
    assert np.abs(product - expression).max() <= 8 * np.spacing(np.abs(u).max())


@pytest.mark.parametrize("n", [5, 31, DENSE_MAX, DENSE_MAX + 1, *OLD_BOUNDARY, 401, 1601])
def test_probed_step_operator_reproduces_stored_operators(n):
    # T formed from the pair at (c1, c2) = (1, 0) and (0, 1) is its D1 or D2 exactly
    grid = Grid1D(0.0, 1.0 / (n - 1), n)
    u = np.sin(grid.x)
    d1(u, grid)
    d2(u, grid)
    for order, (c1, c2) in ((1, (1.0, 0.0)), (2, (0.0, 1.0))):
        (formed,) = compact_ops.bound_linear(grid, 0, c1, c2).operator
        stored = grid.products[0].operator[order - 1]
        if n > DENSE_MAX:  # D2's band is the middle of T's wider one
            formed = band_of(formed, n, WIDEST)
            stored = band_of(stored, n, HALF_WIDTH[order])
            pad = WIDEST - HALF_WIDTH[order]
            stored = np.pad(stored, ((0, 0), (pad, pad)))
        assert np.array_equal(formed, stored)


def probed_step_operator(grid, axis, c1, c2):
    """T = c1 D1 + c2 D2 along axis as it was probed before it was formed from
    the stored pair: d1 and d2 on the comb over a bare grid of the comb's shape
    (a Grid2D would refuse a comb of fewer than 5 columns), then (D2 c2) +
    (D1 c1); on long lines T's band, at D1's half-width, read off the comb."""
    n, h = grid.shape[axis], grid.spacing[axis]
    w = max(HALF_WIDTH.values())
    p = n if n <= DENSE_MAX else 2 * w + 1
    comb = np.zeros((n, p))
    comb[np.arange(n), np.arange(n) % p] = 1.0
    lines = SimpleNamespace(shape=comb.shape, spacing=(h, 1.0), products={})
    t = d1(comb, lines)
    t *= c1
    second = d2(comb, lines)
    second *= c2
    second += t
    if p == n:
        return second
    j = np.arange(n)[:, None] + np.arange(p) - w  # the node of band[i, k]
    band = np.take_along_axis(second, j % p, axis=1)
    band[(j < 0) | (j >= n)] = 0.0
    return band


STEP_OPERATOR_CASES = [((n,), 0) for n in (5, 11, 31, 61, 101, 112, 113, 201, 256, 257, 401, 801)]
STEP_OPERATOR_CASES += [
    (shape, axis)
    for shape in ((26, 26), (16, 16), (21, 21), (9, 13), (13, 9), (113, 9))
    for axis in (0, 1)
]


@pytest.mark.parametrize(
    "shape, axis", STEP_OPERATOR_CASES,
    ids=["x".join(map(str, shape)) + f"-axis{axis}" for shape, axis in STEP_OPERATOR_CASES],
)
def test_step_operator_is_bit_identical_to_its_probe(shape, axis):
    grid = Grid1D(-1.0, 0.05, *shape) if len(shape) == 1 else Grid2D(-1, 0, 0.05, 0.07, *shape)
    n = shape[axis]
    for c1, c2 in ((-0.01, 0.002), (-1e-3, 1e-3 / 60.0), (0.37, -1.3e-4), (-2.5e-5, 3e-7)):
        (t,) = compact_ops.bound_linear(grid, axis, c1, c2).operator
        t = t if n <= DENSE_MAX else band_of(t, n, WIDEST)
        assert np.array_equal(t, probed_step_operator(grid, axis, c1, c2))


def test_step_operator_built_once_per_grid(monkeypatch):
    # T is formed from the grid's pair, so the pair's probes are the only solves
    builds = []
    real_solve = compact_ops.solve

    def counting_solve(lower, diag, upper, rhs):
        builds.append(len(diag))
        return real_solve(lower, diag, upper, rhs)

    monkeypatch.setattr(compact_ops, "solve", counting_solve)
    for n in (17, DENSE_MAX + 1):
        builds.clear()
        grid = Grid2D(0.0, 0.0, 0.1, 0.2, n, 9)
        steps = [
            compact_ops.bound_linear(grid, axis, -0.01, 0.002) for _ in range(3) for axis in (0, 1)
        ]
        assert sorted(builds) == sorted([n, n, 9, 9])  # one probe of each order per axis
        assert set(grid.products) == {0, 1}  # the grid keeps its pairs, not T
        # a product bound anew forms the same T, bit for bit
        assert all(np.array_equal(later.operator, first.operator)
                   for later, first in zip(steps[2:], steps))
        (t,) = steps[0].operator
        width = n if n <= DENSE_MAX else 2 * WIDEST + 1
        band = t if n <= DENSE_MAX else band_of(t, n, WIDEST)
        assert band.shape == (n, width) and not t.flags.writeable
        with pytest.raises(ValueError):
            t[0, 0] = 0.0
        # other coefficients are another operator, formed from the same pair
        other = compact_ops.bound_linear(grid, 0, -0.02, 0.002)
        assert len(builds) == 4 and set(grid.products) == {0, 1}
        assert not np.array_equal(other.operator, steps[0].operator)
    # grids that differ only in h share no operator
    for n in (17, DENSE_MAX + 1):
        fine, coarse = Grid1D(0.0, 0.1, n), Grid1D(0.0, 0.2, n)
        v = np.sin(fine.x)
        products = [compact_ops.bound_linear(g, 0, -0.01, 0.002) for g in (fine, coarse)]
        assert not np.array_equal(*(product(v)[0] for product in products))
        assert not np.array_equal(*(product.operator for product in products))


@OPS
def test_long_line_step_never_builds_an_n_by_n_array(ops):
    n = 1601
    grid = Grid1D(0.0, 1.0 / (n - 1), n)
    u = np.sin(grid.x)
    tracemalloc.start()
    try:
        tau = stable_tau(grid.h)
        linear_step(ops, u, grid, 0, tau, STEP_PARAMS.alpha, STEP_PARAMS.nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n / 4


# A grid binds its unit pair once per axis, and a run its scaled pair or step
# operator once; each product writes its own out, and a band's copies the
# field into its own zero-padded line buffer. The readers return a copy of
# the out; a held product's out is read before the next call, as a run reads
# it, here as a copy. The central case is the FTCS step, bound once per grid
# and coefficients (linear_step).
BOUND = pytest.mark.parametrize(
    "apply, n",
    [
        (d2, 26),
        (d1, DENSE_MAX + 1),
        (lambda u, grid, axis: held_linear(u, grid, axis, -0.01, 0.002).copy(), DENSE_MAX + 1),
        (lambda u, grid, axis: linear_step(Central, u, grid, axis, 0.01, 1.0, 0.2), 26),
        (derivatives, 26),
        (lambda u, grid, axis: held_pair(u, grid, axis).copy(), DENSE_MAX + 1),
    ],
    ids=["dense", "band", "compact_step_band", "central", "derivatives", "scaled_pair_band"],
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
    "apply, held",
    [
        pytest.param(d1, False, id="d1"),
        pytest.param(derivatives, False, id="derivatives"),
        pytest.param(lambda u, grid: held_linear(u, grid, 0, -0.01, 0.002), True, id="compact_step"),
        pytest.param(lambda u, grid: held_pair(u, grid, 0), True, id="scaled_pair"),
        pytest.param(lambda u, grid: linear_step(Central, u, grid, 0, 0.01, 1.0, 0.2), False,
                     id="central_step"),
    ],
)
def test_second_call_on_a_long_line_allocates_only_its_output(apply, held):
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
    # a new padded line would add 6.4 kB or more; the array object, 2 kB at
    # most; a held product writes the out it made at the bind
    assert peak <= (0 if held else out.nbytes) + 2048


# The bound FTCS stencils against the central pair and against their own
# rounding. The advection-diffusion stencil sums u + T u in another order than
# u - tau (alpha d1 - nu d2), on the flattened field; the Burgers stencils fold
# tau into their coefficients, and the viscous one reads its neighbours through
# one window product (ftcs_step), so all stay within a few ulp of the pair.
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
    of every bound stencil to a few ulp."""
    if pde == "ibe":
        return u - tau * u * Central.d1(u, grid)
    if pde == "vbe":
        ux, uxx = Central.derivatives(u, grid)
        return u - tau * (u * ux - p.nu * uxx)
    t = -tau * (p.alpha * Central.d1(u, grid, 0) - p.nu * Central.d2(u, grid, 0))
    if u.ndim == 2:
        t -= tau * (p.beta * Central.d1(u, grid, 1) - p.nu * Central.d2(u, grid, 1))
    return u + t


def ftcs_step(pde, u, grid, p, tau):
    """One Burgers FTCS step of the interior in the bound stencil's own rounded
    operations: its bit-exact reference. ibe: u - ((tau / 2h) u)(u_{i+1} -
    u_{i-1}); vbe: the jets (tau u_x, tau nu u_xx) as the window product of the
    three neighbours with [[-a, b], [0, -2b], [a, b]], a = tau / 2h and b =
    tau nu / h^2, then u - (u (tau u_x) - tau nu u_xx)."""
    h, v, centre = grid.h, u.copy(), u[1:-1]
    a = tau / (2.0 * h)
    if pde == "ibe":
        v[1:-1] = centre - centre * a * (u[2:] - u[:-2])
        return v
    b = (tau * p.nu) / (h * h)
    jets = sliding_window_view(u, 3) @ np.array([[-a, b], [0.0, -2.0 * b], [a, b]])
    v[1:-1] = centre - (centre * jets[:, 0] - jets[:, 1])
    return v


@FTCS_CASES
def test_bound_ftcs_steps_match_the_central_pair(pde, grid):
    rng = np.random.default_rng(len(grid.shape) * 100 + grid.shape[-1])
    tau = 0.2 * min(grid.spacing) ** 2
    u = 1.0 + rng.normal(size=grid.shape)
    index = grid.dirichlet[0]
    rows = rng.normal(size=(3, len(index[0])))
    advance = _STEPPERS[pde, "ftcs"](grid, FTCS_PARAMS, tau)
    v = w = u
    for k, row in enumerate(rows, 1):  # a block of k rows from u
        v = central_step(pde, v, grid, FTCS_PARAMS, tau)
        v[index] = row
        out = advance(u, rows[:k])
        assert np.abs(out - v).max() <= 4 * k * np.spacing(np.abs(v).max())
        if pde in ("ibe", "vbe"):
            w = ftcs_step(pde, w, grid, FTCS_PARAMS, tau)
            w[index] = row
            assert np.array_equal(out, w)


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
