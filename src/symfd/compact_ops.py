"""Fourth-order compact (Pade) first and second derivatives on uniform grids.

Interior rows couple neighbouring derivative values implicitly:

    (1/6)  U'_{i-1} + (2/3) U'_i  + (1/6)  U'_{i+1}  = (U_{i+1} - U_{i-1}) / (2h)
    (1/12) U''_{i-1} + (5/6) U''_i + (1/12) U''_{i+1} = (U_{i+1} - 2U_i + U_{i-1}) / h^2

both fourth-order accurate. The end rows either close the system with
one-sided third-order compact rows (exact for cubics resp. quartics) or pin
the end derivatives to caller-supplied exact values. d1 and d2 take the axis
to differentiate along.

Written as A U' = B U (Lele, J. Comput. Phys. 103, 1992), a one-sided
derivative is one product with D = A^-1 B: dense on axes of n <= DENSE_MAX
nodes, and as its band |i - j| <= w = HALF_WIDTH[order] on longer ones. A grid
keeps, per key ((order, axis) here, (ops, axis, c1, c2) for linear) and for its
life, the read-only operator in derivative_matrices, bound on first use to its
product in products; a band's product also holds a zero-padded line buffer, so
one grid must not be stepped from two threads at once. The pinned-end closure
builds B U and applies the factor of A (see tridiag), shared by every grid of
that n.

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


# Largest line length whose operator is stored as a dense D. Not the speed
# crossover: per d1 call, dense against band took 5.7 vs 6.8 us at n = 101,
# 8.8 vs 7.6 us at n = 150 and 20.5 vs 9.7 us at n = 256 (2-core x86-64,
# numpy 2.4.6); 256 keeps every line the dense D served bit for bit.
DENSE_MAX = 256
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


def _bind(key, grid, axis, dense_max, w, probe, *args):
    """Bind on grid under key the product along axis of what probe(comb, n, h,
    *args) gives on the comb (see above): D and one einsum for n <= dense_max,
    else the band |i - j| <= w and one copy into the interior of the grid's
    zero-padded line buffer before the einsum. Key None applies probe to lines."""
    n, h = grid.shape[axis], grid.spacing[axis]
    if key is None:
        swap = lambda a: np.ascontiguousarray(a.swapaxes(0, axis))
        return lambda u: swap(probe(swap(u), n, h, *args))
    p = n if n <= dense_max else 2 * w + 1
    comb = np.zeros((n, p))
    comb[np.arange(n), np.arange(n) % p] = 1.0
    d = probe(comb, n, h, *args)
    # On contiguous rows, einsum sums a line's outputs in the same order alone
    # as among many lines, so its bits do not depend on the field; BLAS does not.
    across = len(grid.shape) == 2 and axis == 0  # the lines are the columns of u
    if p == n:
        spec = "kj,ij->ik" if across else "...j,ij->...i"
        product = lambda u: np.einsum(spec, np.ascontiguousarray(u.T if across else u), d)
    else:
        j = np.arange(n)[:, None] + np.arange(p) - w  # column of band[i, k]
        d = np.take_along_axis(d, j % p, axis=1)
        d[(j < 0) | (j >= n)] = 0.0
        # band[i, k] meets node i - w + k: a window view of the zero-padded lines
        shape = grid.shape[::-1] if across else grid.shape
        padded = np.zeros(shape[:-1] + (n + 2 * w,))
        inner, strides = padded[..., w : n + w], padded.strides + padded.strides[-1:]
        window = np.ndarray(shape + (p,), float, padded, 0, strides)

        def product(u):
            inner[...] = u.T if across else u
            out = np.einsum("ik,...ik->...i", d, window)
            return np.ascontiguousarray(out.T) if across else out

    product.operator = _read_only(d)
    grid.products[key] = product
    return product


def _solved(lines, n, h, order, rhs_of, bp):
    """The order's compact derivative of each column of lines, by one solve."""
    return solve(_operator(order, n, bp.kind), rhs_of(lines, h, bp))


def d1(u: Field, grid: Grid, axis: int = 0, bp: BoundaryPolicy = ONE_SIDED) -> Field:
    """First derivative along one axis, fourth-order in the interior."""
    key, w = (None if bp.kind == "exact" else (1, axis)), HALF_WIDTH[1]
    u, product = _lookup(key, u, grid, axis)
    if product is None:
        product = _bind(key, grid, axis, DENSE_MAX, w, _solved, 1, _first_derivative_rhs, bp)
    return product(u)


def d2(u: Field, grid: Grid, axis: int = 0, bp: BoundaryPolicy = ONE_SIDED) -> Field:
    """Second derivative along one axis, fourth-order in the interior."""
    key, w = (None if bp.kind == "exact" else (2, axis)), HALF_WIDTH[2]
    u, product = _lookup(key, u, grid, axis)
    if product is None:
        product = _bind(key, grid, axis, DENSE_MAX, w, _solved, 2, _second_derivative_rhs, bp)
    return product(u)


def _pair(comb, n, h, ops, c1, c2):
    """c1 ops.d1 + c2 ops.d2 of each column of comb, on a bare grid of its shape
    (a Grid2D would refuse Central's three columns). D1 is dropped before D2 is
    built: on 1601 nodes that keeps the first step's peak at 4.9 MB, not 5.3."""
    lines = SimpleNamespace(shape=comb.shape, spacing=(h, 1.0), products={})
    t = c1 * ops.d1(comb, lines)
    lines.products.clear()
    return t + c2 * ops.d2(comb, lines)


def linear(u: Field, grid: Grid, axis: int, ops, c1: float, c2: float) -> Field:
    """(c1 D1 + c2 D2) u along axis for ops.d1/d2's D1, D2, probed on the axis's
    lines and stored as ops' DENSE_MAX and HALF_WIDTH say. ops is this module or
    a pair with its call and those two names. A new step size adds an operator."""
    key = (ops, axis, c1, c2)
    u, product = _lookup(key, u, grid, axis)
    if product is None:
        w = max(ops.HALF_WIDTH.values())
        product = _bind(key, grid, axis, ops.DENSE_MAX, w, _pair, ops, c1, c2)
    return product(u)
