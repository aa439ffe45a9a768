"""Fourth-order compact (Pade) first and second derivatives on uniform grids.

Interior rows couple neighbouring derivative values implicitly:

    (1/6)  U'_{i-1} + (2/3) U'_i  + (1/6)  U'_{i+1}  = (U_{i+1} - U_{i-1}) / (2h)
    (1/12) U''_{i-1} + (5/6) U''_i + (1/12) U''_{i+1} = (U_{i+1} - 2U_i + U_{i-1}) / h^2

both fourth-order accurate. The end rows either close the system with
one-sided third-order compact rows (exact for cubics resp. quartics) or pin
the end derivatives to caller-supplied exact values. d1 and d2 take the axis
to differentiate along.

Written as A U' = B U (Lele, J. Comput. Phys. 103, 1992), a one-sided
derivative is one product with D = A^-1 B. A grid keeps one thing per axis,
for its life: the product of the one-sided unit pair [D1; D2], probed on
first use, in grid.products[axis]. Each operator is stored in one form, the
one its product applies: on axes of n <= DENSE_MAX nodes the pair is the
stacked (2, n, n) D, and on longer ones the tiles of the two bands |i - j|
<= w = HALF_WIDTH[order], each band cut into tiles of TILE_ROWS rows as it
is probed, each row at its nodes' columns of the tile's window of one
zero-padded line buffer; the band itself is not kept. One builder binds a
read-only stack of operators, dense or tiled, to its product(u), which
writes every operator's product into the product's own output array,
product.out, made at the bind, and returns it. A dense stack is applied by
one matmul that runs one BLAS gemv per (operator, line), so a line's bits
are those of its own 1D product whatever the other lines; one gemm over a
block of lines would not keep that, as its summation order changes with the
line count. Tiles are applied by one matmul that runs one gemv per
(operator, line, tile), so a line's bits do not depend on the other lines
either, and a call costs one copy of the field into the buffer and one of
the result into out. An operator formed from the pair belongs to the caller
that binds it and lives as long as the caller holds it: bound_pair with a
scale other than 1 binds [c1 D1; c2 D2], the unit pair's stack times c1 and
c2, which the Burgers steps read their jets from with the step's scalars
folded in, and bound_linear binds the step operator c1 D1 + c2 D2, formed
from the stored stacks as they are, tiles included: every entry is the
stored one times the same scalar, summed in the same order. A step binds
its product once per run and reads its derivatives from the product's out
with no allocation. derivatives, d1 and d2 are thin readers of the unit pair
that return a copy of its out, or of their half of it, with inf or NaN for a
field that overflows and no floating-point warning. A tiled product writes
its line and result buffers, and a dense product across the lines of a 2D
field's x axis its transposed copy of the field, so one grid must not be
stepped from two threads at once.
The pinned-end closure stores nothing: each call builds B U and solves A for
it (see tridiag). One builder, _rhs, writes B U of either order from a table
of its rows, and the probes are its products with the comb below.

The interior rows of A are (1, 4, 1)/6 and (1, 10, 1)/12, so the entries of
A^-1, and of D, decay as r^|i-j| with r = 2 - sqrt(3) ~ 0.27 (order 1) and
5 - sqrt(24) ~ 0.10 (order 2), the roots of r^2 - 4r + 1 and r^2 - 10r + 1
(Demko, Moss & Smith, Math. Comp. 43, 1984); h only scales D. HALF_WIDTH is
the smallest w for which every row's mass of |D| outside the band is at most
2^-53 of sum_j |D_ij|: 4.9e-17 and 6.4e-17 at w = 29 and 18, against 1.8e-16
and 6.3e-16 at one less, for every n > DENSE_MAX tested. The band is probed
with no n x n array: one solve of A Y = B E for the (n, 2w+1) comb
E[j, j mod (2w+1)] = 1 sums the columns of D of one residue, of which row i
has exactly one in the band, so band[i, k] = Y[i, (i - w + k) mod (2w+1)].
Each dropped column lands in one band entry, so the band product is off by
at most 2^-52 sum_j |D_ij| max|U|, about one rounding of the dense sum. The
tiles hold exactly the band's entries and zeros, so the bound holds for
them unchanged. The zeros do reach a non-finite node, though (0 inf is
NaN): it spoils every row of each tile whose window holds it, up to b + 2W
rows, where the band's 2w + 1 nearest rows were spoiled before. Either way
the field it makes is not finite, so evolve still raises NonFinite at the
same step.
"""

import numbers
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Tuple

import numpy as np

from .errors import ShapeMismatch, finite
from .tridiag import solve

# A field is a plain array of node values: shape (n,) on Grid1D and
# row-major (nx, ny) on Grid2D.
Field = np.ndarray


# Largest line length whose operators are stored as a dense D. It was the
# speed crossover of one (d1, d2) pair on one line when both kinds were
# applied by einsum (14.2 vs 11.2 us, dense vs band, at n = 116). With one
# gemv per line for a dense D and one per tile for a band (see _bind), the 1D
# crossover lies between 113 and 129 nodes: dense vs tiled 4.7 vs 4.9 us at
# n = 113, 6.0 vs 5.4 us at 129 and 12.6 vs 7.1 us at 201 (median of 8
# processes of the median of 5 rounds of a best of 5 x 500 calls, one BLAS
# thread, 2-core x86-64, numpy 2.4.6, OpenBLAS 0.3.31). It stays 112, the
# bound of the ade1d block map too (baseline_schemes.bind_steps). On square
# 2D grids the dense D wins at least to 61 a side (54 vs 97 us per pair at
# 61^2 along x), as a tile's gemv costs b + 2W products per row where a
# dense row costs n; no study grid has more than 26 a side.
DENSE_MAX = 112
# Half-width of the stored band of D per derivative order (see above).
HALF_WIDTH = {1: 29, 2: 18}
# Rows per tile of a band product (see _bind). One (d1, d2) pair call took
# 7.0, 7.4 and 7.6 us at n = 201 and 22.6, 22.6 and 25.2 us at n = 801 with
# tiles of 16, 24 and 32 rows (median of 5 processes, measured as above).
TILE_ROWS = 24
# Fewest nodes per axis for the one-sided closures; Grid and grid_for both
# check a node count by node_count.
MIN_NODES = 5


def node_count(name, n):
    """n, if it is an integer of at least MIN_NODES; else a ValueError naming name."""
    if not isinstance(n, numbers.Integral) or n < MIN_NODES:
        raise ValueError(f"{name} must be an integer node count >= {MIN_NODES}, not {n!r}")
    return n


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Grid:
    """Uniform tensor-product mesh, the base of Grid1D and Grid2D: node i along
    axis k sits at origin[k] + i * spacing[k], for shape[k] nodes."""

    def __post_init__(self):
        # A grid's fields are its origin, its spacing and its node counts, in
        # that order, one of each per axis.
        names = [field.name for field in fields(self)]
        dim = len(names) // 3
        for name in names[: 2 * dim]:
            finite(name, getattr(self, name))
        for name in names[dim : 2 * dim]:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, not {getattr(self, name)!r}")
        for name in names[2 * dim :]:
            node_count(name, getattr(self, name))

    @property
    def axes(self) -> tuple:
        """The node coordinates along each axis: (x,) or (x, y)."""
        return tuple(o + h * np.arange(n) for o, h, n in zip(self.origin, self.spacing, self.shape))

    @property
    def x(self) -> np.ndarray:
        return self.axes[0]

    @cached_property
    def dirichlet(self) -> Tuple[tuple, tuple]:
        """The Dirichlet nodes, the ends of every axis with each node once:
        (index, coordinates); values[index] are theirs."""
        edge = np.zeros(self.shape, bool)
        for axis in range(edge.ndim):
            edge.swapaxes(0, axis)[[0, -1]] = True
        index = np.nonzero(edge)
        coords = (a[i] for a, i in zip(self.axes, index))
        return tuple(map(_read_only, index)), tuple(map(_read_only, coords))

    @cached_property
    def products(self) -> dict:
        """The product of the probed unit pair [D1; D2] along each axis, by axis,
        bound on first use (bound_pair)."""
        return {}


@dataclass(frozen=True)
class Grid1D(Grid):
    """Uniform 1D mesh: nodes x0 + i*h for i = 0 .. n-1."""

    x0: float
    h: float
    n: int

    origin = property(lambda self: (self.x0,))
    spacing = cached_property(lambda self: (self.h,))
    shape = cached_property(lambda self: (self.n,))


@dataclass(frozen=True)
class Grid2D(Grid):
    """Uniform tensor-product mesh; fields are indexed values[ix, iy]."""

    x0: float
    y0: float
    hx: float
    hy: float
    nx: int
    ny: int

    origin = property(lambda self: (self.x0, self.y0))
    spacing = cached_property(lambda self: (self.hx, self.hy))
    shape = cached_property(lambda self: (self.nx, self.ny))

    @property
    def y(self) -> np.ndarray:
        return self.axes[1]


@dataclass(frozen=True)
class BoundaryPolicy:
    """End-row treatment for the derivative systems.

    "one_sided": third-order one-sided compact rows; keeps the system
    self-contained when only node values are known.
    "exact": identity end rows pinning the end derivatives to (left,
    right), which must be finite; isolates the interior stencil order in
    property tests. On 2D fields the two scalars apply to every grid line,
    so this kind is only useful there when the true end derivative is
    constant along the boundary.
    """

    kind: str
    left: float = 0.0
    right: float = 0.0

    def __post_init__(self):
        if self.kind not in ("one_sided", "exact"):
            raise ValueError(f"unknown boundary policy kind {self.kind!r}")
        finite("left", self.left)
        finite("right", self.right)

    @classmethod
    def one_sided(cls) -> "BoundaryPolicy":
        return cls("one_sided")

    @classmethod
    def exact(cls, left: float, right: float) -> "BoundaryPolicy":
        return cls("exact", float(left), float(right))


ONE_SIDED = BoundaryPolicy.one_sided()


def _bands(order, n, kind):
    """Lower, main and upper diagonals of the order-1 or order-2 system."""
    if order == 1:
        off, mid, closure = 1.0 / 6.0, 2.0 / 3.0, 2.0
    else:
        off, mid, closure = 1.0 / 12.0, 5.0 / 6.0, 11.0
    lower = np.full(n - 1, off)
    diag = np.full(n, mid)
    upper = np.full(n - 1, off)
    diag[0] = diag[-1] = 1.0
    # one-sided end rows couple the end value to its neighbour; exact ones pin it
    upper[0] = lower[-1] = closure if kind == "one_sided" else 0.0
    return lower, diag, upper


# The right-hand side B U of each order: its interior row on (U_{i+1}, U_i,
# U_{i-1}), its one-sided closure row on (U_1, U_2, ...), the sign of that
# row's mirror on (U_n, U_{n-1}, ...), and its denominator. The closures are
# U'_1 + 2 U'_2 = (-5 U_1 + 4 U_2 + U_3) / (2h) and
# U''_1 + 11 U''_2 = (13 U_1 - 27 U_2 + 15 U_3 - U_4) / h^2.
_B_ROWS = {
    1: ((1.0, 0.0, -1.0), (-5.0, 4.0, 1.0), -1.0, lambda h: 2.0 * h),
    2: ((1.0, -2.0, 1.0), (13.0, -27.0, 15.0, -1.0), 1.0, lambda h: h * h),
}


def _row(coefficients, terms, scale, out):
    """out = (sum c_k terms_k) / scale, summed from the left over the nonzero c_k
    in place: a unit c_k scales exactly, so these are the rounded operations
    of the row written out, such as ((U_{i+1} - 2 U_i) + U_{i-1}) / h^2."""
    (c, term), *rest = [(c, term) for c, term in zip(coefficients, terms) if c]
    np.multiply(term, c, out=out)
    for c, term in rest:
        out += c * term
    out /= scale


def _rhs(order, u, h, bp):
    """Right-hand side(s) B U of the order's system; u may be (n,) or (n, m).
    The closure rows are those of the one-sided ends, or the pinned values."""
    interior, closure, mirror, denominator = _B_ROWS[order]
    scale, rhs = denominator(h), np.empty_like(u)
    _row(interior, (u[2:], u[1:-1], u[:-2]), scale, rhs[1:-1])
    if bp.kind == "one_sided":
        _row(closure, u, scale, rhs[:1])
        _row([mirror * c for c in closure], u[::-1], scale, rhs[-1:])
    else:
        rhs[0], rhs[-1] = bp.left, bp.right
    return rhs


def _check(grid, axis, **scales):
    """ValueError naming axis unless it is an integer in [0, ndim) of grid, else
    naming the first of scales that is not a finite real number."""
    ndim = len(grid.shape)
    if not isinstance(axis, numbers.Integral) or not 0 <= axis < ndim:
        raise ValueError(f"axis {axis!r} is not an axis of a {ndim}D grid")
    for name, c in scales.items():
        finite(name, c)


def _checked(u, grid, axis):
    """u as a checked C-contiguous float field of grid, differentiated along axis."""
    u = np.ascontiguousarray(u, dtype=float)
    if u.shape != grid.shape:
        raise ShapeMismatch(f"field shape {u.shape} does not match grid {grid.shape}")
    _check(grid, axis)
    return u


def _comb(n, p):
    """The (n, p) probe E[j, j mod p] = 1: the identity for p = n (see above)."""
    comb = np.zeros((n, p))
    comb[np.arange(n), np.arange(n) % p] = 1.0
    return comb


def _solved(lines, n, h, order, bp=ONE_SIDED):
    """The order's compact derivative of each column of lines, by one solve."""
    return solve(*_bands(order, n, bp.kind), _rhs(order, lines, h, bp))


def _probed(n, h):
    """The one-sided [D1; D2] of a line of n nodes spaced h, probed on the comb
    (see above): the read-only (2, n, n) D for n <= DENSE_MAX, else the
    read-only tiles (_tiled) of its two bands, band[i, k] being the entry of
    node i - w + k; the bands do not outlive the probe."""
    if n <= DENSE_MAX:
        return _read_only(np.stack([_solved(_comb(n, n), n, h, order) for order in (1, 2)]))
    bands = []
    for order, w in HALF_WIDTH.items():
        p = 2 * w + 1
        j = np.arange(n)[:, None] + np.arange(p) - w  # the node of band[i, k]
        band = np.take_along_axis(_solved(_comb(n, p), n, h, order), j % p, axis=1)
        band[(j < 0) | (j >= n)] = 0.0
        bands.append(band)
    return _tiled(bands)


def _tiled(bands):
    """The read-only (k, q, b, b + 2W) tiles of a stack of k bands of n rows, b
    = TILE_ROWS and W the widest HALF_WIDTH: row r of tile q holds band row qb
    + r at columns r + W - w .. r + W + w and zeros elsewhere, so its product
    with the tile's window of the zero-padded line sums that row's band. Each
    band is written once, through a strided view of its tiles' diagonal strip."""
    b, widest = TILE_ROWS, max(HALF_WIDTH.values())
    full, rest = divmod(len(bands[0]), b)
    tiles = np.zeros((len(bands), full + (rest > 0), b, b + 2 * widest))
    down, across = tiles.strides[-2:]
    for tile, band in zip(tiles, bands):
        w = band.shape[1] // 2
        strip = np.ndarray(
            tile.shape[:2] + band.shape[1:], float, tile, (widest - w) * across,
            tile.strides[:1] + (down + across, across),
        )
        strip[:full] = band[: full * b].reshape(full, b, -1)
        strip[full:, :rest] = band[full * b :]
    return _read_only(tiles)


def _bind(grid, axis, operators):
    """The product along axis of grid of a read-only stack of k operators, in
    one of the two forms _probed gives: on lines of n <= DENSE_MAX nodes one
    (k, n, n) array, else the (k, q, b, b + 2W) tiles of k bands (_tiled).
    product(u) writes each operator's product of a C-contiguous field u of
    grid into product.out, of shape (k,) + grid.shape and made at the bind,
    and returns it; product.operator is the stack. A dense stack is applied by
    one matmul that runs one BLAS gemv per (operator, line). Tiles are applied
    by one matmul that runs one gemv per (operator, line, tile) over
    read-only windows of one zero-padded line buffer, into which a call copies
    u; the result is copied into out. Every operator's tiles have the width of
    the widest HALF_WIDTH, so a band's bits are the same in any stack, and
    the bind builds nothing but out and the line buffers."""
    n, shape = grid.shape[axis], grid.shape
    dense = operators.ndim == 3  # else (k, q, b, b + 2W) tiles
    across = len(shape) == 2 and axis == 0  # the lines are the columns of u
    out = np.empty((len(operators),) + shape)
    # One gemv per line, or per tile of a line, sums that line's outputs in the
    # same order alone as among many lines or operators, so its bits depend on neither the field
    # nor the stacking; one gemm over a block of lines would not, its blocking
    # changing with the line count.
    if dense and across:
        lines = np.empty(shape[::-1])  # u's columns as contiguous rows, per call
        stack, columns = operators[:, None], lines[None, :, :, None]  # (k, 1, n, n), (1, m, n, 1)
        into = out.transpose(0, 2, 1)[..., None]

        def product(u):
            lines[...] = u.T
            np.matmul(stack, columns, out=into)
            return out

    elif dense and len(shape) == 2:
        stack, into = operators[:, None], out[..., None]

        def product(u):
            np.matmul(stack, u[None, :, :, None], out=into)
            return out

    elif dense:
        product = lambda u: np.matmul(operators, u, out=out)
    else:
        # tile q of a line reads its window of the zero-padded line: the b + 2W
        # nodes from qb - W on, as a read-only view
        count, b, span = operators.shape[1:]
        widest, lined = (span - b) // 2, shape[::-1] if across else shape
        padded = np.zeros(lined[:-1] + (count * b + 2 * widest,))
        inner, step = padded[..., widest : n + widest], padded.itemsize
        windows = _read_only(np.ndarray(
            lined[:-1] + (count, span, 1), float, padded, 0,
            padded.strides[:-1] + (b * step, step, step),
        ))
        res = np.empty((len(operators),) + lined[:-1] + (count, b, 1))
        result = res.reshape(res.shape[:-3] + (count * b,))[..., :n]
        result = result.swapaxes(1, 2) if across else result  # in out's layout
        tiles = operators[:, None] if len(shape) == 2 else operators  # one stack for all lines

        def product(u):
            inner[...] = u.T if across else u
            np.matmul(tiles, windows, out=res)
            np.copyto(out, result)
            return out

    product.operator, product.out = operators, out
    return product


def bound_pair(grid: Grid, axis: int = 0, c1: float = 1.0, c2: float = 1.0):
    """The product of the one-sided pair [c1 D1; c2 D2] along axis of grid:
    pair(u) writes (c1 u', c2 u'') of a C-contiguous field u of grid into
    pair.out and returns it. The unit pair (c1 = c2 = 1) is the grid's,
    probed on first use and kept in grid.products[axis]. Any other is bound
    anew for the caller, who holds it: the unit pair's stack, dense or tiled,
    times (c1, c2) by one broadcast product. A step binds its pair once per
    run and reads both derivatives, with its scalars folded in, from its out.
    An axis that is not one of grid's, or a c1 or c2 that is not a finite
    real number, is a ValueError."""
    _check(grid, axis, c1=c1, c2=c2)
    unit = grid.products.get(axis)
    if unit is None:
        probed = _probed(grid.shape[axis], grid.spacing[axis])
        unit = grid.products[axis] = _bind(grid, axis, probed)
    if (c1, c2) == (1.0, 1.0):
        return unit
    scales = np.array([c1, c2], float).reshape((2,) + (1,) * (unit.operator.ndim - 1))
    return _bind(grid, axis, _read_only(unit.operator * scales))


def _read(u, grid, axis, k=slice(None)):
    """A copy of out[k] of the unit pair's product of u along axis, with no
    floating-point warning for a field that overflows: matmul reports the
    flags of its BLAS sums, dense or tiled. Steps ignore these flags once per
    block (see baseline_schemes.bind_steps)."""
    u = _checked(u, grid, axis)
    # a warm call finds its product before any fallback is called
    pair = grid.products.get(axis) or bound_pair(grid, axis)
    with np.errstate(over="ignore", invalid="ignore"):
        return pair(u)[k].copy()


def _derivative(order, u, grid, axis, bp):
    """d1 or d2: a copy of its half of the unit pair's out, or with pinned ends
    one solve of the lines."""
    if bp.kind == "one_sided":
        return _read(u, grid, axis, order - 1)
    u = _checked(u, grid, axis)  # nothing is stored: only the checks
    n, h = grid.shape[axis], grid.spacing[axis]
    swap = lambda a: np.ascontiguousarray(a.swapaxes(0, axis))
    return swap(_solved(swap(u), n, h, order, bp))


def d1(u: Field, grid: Grid, axis: int = 0, bp: BoundaryPolicy = ONE_SIDED) -> Field:
    """First derivative along one axis, fourth-order in the interior."""
    return _derivative(1, u, grid, axis, bp)


def d2(u: Field, grid: Grid, axis: int = 0, bp: BoundaryPolicy = ONE_SIDED) -> Field:
    """Second derivative along one axis, fourth-order in the interior."""
    return _derivative(2, u, grid, axis, bp)


def derivatives(u: Field, grid: Grid, axis: int = 0) -> np.ndarray:
    """(u', u'') along one axis with one-sided ends, bit for bit those of d1 and
    d2, as a copy of the unit pair's (2,) + grid.shape out: a caller that
    reads both pays for one call."""
    return _read(u, grid, axis)


def bound_linear(grid: Grid, axis: int, c1: float, c2: float):
    """The product of the step operator T = c1 D1 + c2 D2 along axis of grid,
    bound anew for the caller, who holds it, as a one-operator stack:
    product(u) writes T u of a C-contiguous field u of grid into
    product.out[0] and returns product.out. T is formed from the grid's unit
    pair's operators, dense or tiled, in the rounded operations D2 c2 + D1 c1;
    the tiles of both orders share the widest window, so they add as they
    are. An axis that is not one of grid's, or a c1 or c2 that is not a
    finite real number, is a ValueError."""
    _check(grid, axis, c1=c1, c2=c2)
    first, second = bound_pair(grid, axis).operator
    t = second * c2
    t += first * c1
    return _bind(grid, axis, _read_only(t)[None])
