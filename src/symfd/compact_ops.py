"""Fourth-order compact (Pade) first and second derivatives on uniform grids.

Interior rows couple neighbouring derivative values implicitly:

    (1/6)  U'_{i-1} + (2/3) U'_i  + (1/6)  U'_{i+1}  = (U_{i+1} - U_{i-1}) / (2h)
    (1/12) U''_{i-1} + (5/6) U''_i + (1/12) U''_{i+1} = (U_{i+1} - 2U_i + U_{i-1}) / h^2

both fourth-order accurate. The end rows either close the system with
one-sided third-order compact rows (exact for cubics resp. quartics) or pin
the end derivatives to caller-supplied exact values. d1 and d2 take the axis
to differentiate along.

Written as A U' = B U (Lele, J. Comput. Phys. 103, 1992), a one-sided
derivative is one product with D = A^-1 B. A grid keeps, per axis and for its
life, the one-sided pair [D1; D2], bound on first use: on axes of n <=
DENSE_MAX nodes the stacked (2, n, n) D, applied by one einsum, and on longer
ones the two bands |i - j| <= w = HALF_WIDTH[order], read through their
windows of one zero-padded line buffer of the wider band, so that both cost
one copy of the field. derivatives returns (u', u'') from that one product;
d1 and d2 each apply their half alone. grid.products holds each half's
product under (order, axis), with .pair the product of both, and
grid.derivative_matrices its read-only operator: a view of the stack, (n, n),
or the band, (n, 2w + 1); no operator is stored twice. linear stores its one
operator under (ops, axis, c1, c2) the same way. A band's product writes the
grid's line buffer, so one grid must not be stepped from two threads at once.
The pinned-end closure builds B U and applies the factor of A (see tridiag),
shared by every grid of that n.

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
at most 2^-52 sum_j |D_ij| max|U|, about one rounding of the dense sum.
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import SimpleNamespace
from typing import Tuple

import numpy as np

from .errors import ShapeMismatch
from .tridiag import factor, solve

# A field is a plain array of node values: shape (n,) on Grid1D and
# row-major (nx, ny) on Grid2D.
Field = np.ndarray


# Largest line length whose operators are stored as a dense D: the measured
# speed crossover of one (d1, d2) pair on one line, the stacked dense product
# against the two bands (best of 5 rounds of timeit, 2-core x86-64, numpy
# 2.4.6): 9.8 vs 10.8 us at n = 101, 11.4 vs 12.0 us at 111, 14.2 vs 11.2 us
# at 116 and 12.6 vs 11.1 us at 128. Square 2D grids cross earlier, near 50
# nodes a side (153 vs 129 us per pair at 61^2), as a dense D costs n^2 per
# line; no study grid has more than 26 a side.
DENSE_MAX = 112
# Half-width of the stored band of D per derivative order (see above).
HALF_WIDTH = {1: 29, 2: 18}


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Grid:
    """Uniform tensor-product mesh, the base of Grid1D and Grid2D: node i along
    axis k sits at origin[k] + i * spacing[k], for shape[k] nodes."""

    def __post_init__(self):
        geometry = (*self.origin, *self.spacing)
        if not all(map(math.isfinite, geometry)) or min(self.spacing) <= 0:
            raise ValueError(f"grid origin and spacing must be finite, spacing positive: {self}")
        if not all(isinstance(n, numbers.Integral) for n in self.shape):
            raise ValueError(f"node counts must be integers: {self}")
        if min(self.shape) < 5:
            raise ValueError(f"need at least 5 nodes per axis for the closures: {self}")

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
        """The product bound to each stored operator, by key (see the module docstring)."""
        return {}

    @property
    def derivative_matrices(self) -> dict:
        """The read-only operator each of products applies, by key."""
        return {key: product.operator for key, product in self.products.items()}


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
    right); isolates the interior stencil order in property tests. On 2D
    fields the two scalars apply to every grid line, so this kind is
    only useful there when the true end derivative is constant along the
    boundary.
    """

    kind: str
    left: float = 0.0
    right: float = 0.0

    def __post_init__(self):
        if self.kind not in ("one_sided", "exact"):
            raise ValueError(f"unknown boundary policy kind {self.kind!r}")

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


# A bound, so a process that visits many grid sizes does not keep every
# factor (3n floats each); a study's few sizes and both orders fit.
@lru_cache(maxsize=32)
def _operator(order, n, kind):
    """The factored system, built on first use; it depends on neither h nor
    the pinned end values, so those never enter the key. Shared by every
    caller, hence read-only (see tridiag.Factor)."""
    return factor(*_bands(order, n, kind))


def _first_derivative_rhs(u, h, bp):
    """Right-hand side(s) of the U' system; u may be (n,) or (n, m)."""
    rhs = np.empty_like(u)
    inner = rhs[1:-1]  # (U_{i+1} - U_{i-1}) / (2h), written in place
    np.subtract(u[2:], u[:-2], out=inner)
    inner /= 2.0 * h
    if bp.kind == "one_sided":
        # U'_1 + 2 U'_2 = (-5 U_1 + 4 U_2 + U_3) / (2h), mirrored on the right
        rhs[0] = (-5.0 * u[0] + 4.0 * u[1] + u[2]) / (2.0 * h)
        rhs[-1] = (5.0 * u[-1] - 4.0 * u[-2] - u[-3]) / (2.0 * h)
    else:
        rhs[0] = bp.left
        rhs[-1] = bp.right
    return rhs


def _second_derivative_rhs(u, h, bp):
    """Right-hand side(s) of the U'' system."""
    h2 = h * h
    rhs = np.empty_like(u)
    inner = rhs[1:-1]  # (U_{i+1} - 2 U_i + U_{i-1}) / h^2, written in place
    np.multiply(u[1:-1], 2.0, out=inner)
    np.subtract(u[2:], inner, out=inner)
    inner += u[:-2]
    inner /= h2
    if bp.kind == "one_sided":
        # U''_1 + 11 U''_2 = (13 U_1 - 27 U_2 + 15 U_3 - U_4) / h^2, mirrored
        rhs[0] = (13.0 * u[0] - 27.0 * u[1] + 15.0 * u[2] - u[3]) / h2
        rhs[-1] = (13.0 * u[-1] - 27.0 * u[-2] + 15.0 * u[-3] - u[-4]) / h2
    else:
        rhs[0] = bp.left
        rhs[-1] = bp.right
    return rhs


def _lookup(key, u, grid, axis):
    """u as a checked float field of grid, and the grid's product under key or None."""
    u = np.asarray(u, dtype=float)
    if u.shape != grid.shape:
        raise ShapeMismatch(f"field shape {u.shape} does not match grid {grid.shape}")
    if not 0 <= axis < u.ndim:
        raise ValueError(f"axis {axis} out of range for a {u.ndim}D grid")
    return u, grid.products.get(key)


def _comb(n, p):
    """The (n, p) probe E[j, j mod p] = 1: the identity for p = n (see above)."""
    comb = np.zeros((n, p))
    comb[np.arange(n), np.arange(n) % p] = 1.0
    return comb


def _bind(grid, axis, dense_max, parts):
    """The products along axis of grid of the operators that parts[k] = (w, probe,
    *args) give as probe(comb, n, h, *args) on the comb (see above): (both,
    halves), where both(u) applies every operator and halves[k](u) the k-th
    alone, with the operator as halves[k].operator. For n <= dense_max the
    operators are stacked as one (k, n, n) D and applied by one einsum; longer
    lines store each band |i - j| <= w and read it through its window of one
    zero-padded line buffer of the widest w, into which a call copies u once."""
    n, h = grid.shape[axis], grid.spacing[axis]
    across = len(grid.shape) == 2 and axis == 0  # the lines are the columns of u
    if n <= dense_max:
        d = np.empty((len(parts), n, n))
        for dk, (_, probe, *args) in zip(d, parts):
            dk[...] = probe(_comb(n, n), n, h, *args)
        operators = list(_read_only(d))
        # On contiguous rows, einsum sums a line's outputs in the same order alone
        # as among many lines or operators, so its bits depend on neither the
        # field nor the stacking; BLAS does not.
        one = "kj,ij->ik" if across else "...j,ij->...i"
        if across:
            both = lambda u: np.einsum("kj,oij->oik", np.ascontiguousarray(u.T), d)
        elif len(grid.shape) == 2:  # rows: (lines, 2, n) is a fifth faster to write
            both = lambda u: np.einsum("kj,oij->koi", np.ascontiguousarray(u), d).swapaxes(0, 1)
        else:
            both = lambda u: np.einsum("j,oij->oi", np.ascontiguousarray(u), d)
        halves = [
            lambda u, dk=dk: np.einsum(one, np.ascontiguousarray(u.T if across else u), dk)
            for dk in operators
        ]
    else:
        operators = []
        for w, probe, *args in parts:
            p = 2 * w + 1
            band = probe(_comb(n, p), n, h, *args)
            j = np.arange(n)[:, None] + np.arange(p) - w  # column of band[i, k]
            band = np.take_along_axis(band, j % p, axis=1)
            band[(j < 0) | (j >= n)] = 0.0
            operators.append(_read_only(band))
        # band[i, k] meets node i - w + k: a window view of the zero-padded lines
        widest = max(w for w, *_ in parts)
        shape = grid.shape[::-1] if across else grid.shape
        padded = np.zeros(shape[:-1] + (n + 2 * widest,))
        inner, strides = padded[..., widest : n + widest], padded.strides + padded.strides[-1:]
        windows = [
            np.ndarray(shape + (2 * w + 1,), float, padded, (widest - w) * padded.itemsize, strides)
            for w, *_ in parts
        ]

        # written in u's layout: across, a (lines, n) result would need a copy
        spec, fields = ("ik,...ik->i..." if across else "ik,...ik->...i"), grid.shape
        product = lambda band, window: np.einsum(spec, band, window, out=np.empty(fields))

        def both(u):
            inner[...] = u.T if across else u
            return [product(band, window) for band, window in zip(operators, windows)]

        def reader(band, window):
            def half(u):
                inner[...] = u.T if across else u
                return product(band, window)

            return half

        halves = [reader(band, window) for band, window in zip(operators, windows)]
    for half, operator in zip(halves, operators):
        half.operator = operator
    return both, halves


_RHS = {1: _first_derivative_rhs, 2: _second_derivative_rhs}


def _solved(lines, n, h, order, bp):
    """The order's compact derivative of each column of lines, by one solve."""
    return solve(_operator(order, n, bp.kind), _RHS[order](lines, h, bp))


def _bind_compact(grid, axis):
    """Bind on grid the one-sided [D1; D2] along axis: D1's product under (1, axis)
    and D2's under (2, axis), each with .pair, the product of both."""
    parts = [(HALF_WIDTH[order], _solved, order, ONE_SIDED) for order in (1, 2)]
    pair, halves = _bind(grid, axis, DENSE_MAX, parts)
    for order, product in enumerate(halves, 1):
        product.pair = pair
        grid.products[order, axis] = product
    return halves


def _derivative(order, u, grid, axis, bp):
    """d1 or d2: a thin reader of its half of the stored pair, or with pinned
    ends one solve of the lines."""
    if bp.kind == "exact":  # nothing is stored under None: only the checks
        u, _ = _lookup(None, u, grid, axis)
        n, h = grid.shape[axis], grid.spacing[axis]
        swap = lambda a: np.ascontiguousarray(a.swapaxes(0, axis))
        return swap(_solved(swap(u), n, h, order, bp))
    u, product = _lookup((order, axis), u, grid, axis)
    if product is None:
        product = _bind_compact(grid, axis)[order - 1]
    return product(u)


def d1(u: Field, grid: Grid, axis: int = 0, bp: BoundaryPolicy = ONE_SIDED) -> Field:
    """First derivative along one axis, fourth-order in the interior."""
    return _derivative(1, u, grid, axis, bp)


def d2(u: Field, grid: Grid, axis: int = 0, bp: BoundaryPolicy = ONE_SIDED) -> Field:
    """Second derivative along one axis, fourth-order in the interior."""
    return _derivative(2, u, grid, axis, bp)


def derivatives(u: Field, grid: Grid, axis: int = 0) -> Tuple[Field, Field]:
    """(u', u'') along one axis with one-sided ends, bit for bit those of d1 and
    d2, from one product with the stored [D1; D2] (on a dense line the two
    halves of one (2, ...) array): a step that reads both pays for one call."""
    u, first = _lookup((1, axis), u, grid, axis)
    if first is None:
        first = _bind_compact(grid, axis)[0]
    return first.pair(u)


def _pair(comb, n, h, ops, c1, c2):
    """c1 ops.d1 + c2 ops.d2 of each column of comb, on a bare grid of its shape
    (a Grid2D would refuse Central's three columns). This module's d1 binds the
    pair on it, which d2 then reads; the sum is formed in d2's fresh result."""
    lines = SimpleNamespace(shape=comb.shape, spacing=(h, 1.0), products={})
    t = ops.d1(comb, lines)
    t *= c1
    second = ops.d2(comb, lines)
    second *= c2
    second += t
    return second


def linear(u: Field, grid: Grid, axis: int, ops, c1: float, c2: float) -> Field:
    """(c1 D1 + c2 D2) u along axis for ops.d1/d2's D1, D2, probed on the axis's
    lines and stored as ops' DENSE_MAX and HALF_WIDTH say. ops is this module or
    a pair with its call and those two names. A new step size adds an operator."""
    key = (ops, axis, c1, c2)
    u, product = _lookup(key, u, grid, axis)
    if product is None:
        w = max(ops.HALF_WIDTH.values())
        (product,) = _bind(grid, axis, ops.DENSE_MAX, [(w, _pair, ops, c1, c2)])[1]
        grid.products[key] = product
    return product(u)
