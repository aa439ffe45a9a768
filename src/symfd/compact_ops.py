"""Fourth-order compact (Pade) first and second derivatives on uniform grids.

Interior rows couple neighbouring derivative values implicitly:

    (1/6)  U'_{i-1} + (2/3) U'_i  + (1/6)  U'_{i+1}  = (U_{i+1} - U_{i-1}) / (2h)
    (1/12) U''_{i-1} + (5/6) U''_i + (1/12) U''_{i+1} = (U_{i+1} - 2U_i + U_{i-1}) / h^2

both fourth-order accurate. The end rows either close the system with
one-sided third-order compact rows (exact for cubics resp. quartics) or pin
the end derivatives to caller-supplied exact values. d1 and d2 take the axis
to differentiate along.

Written as A U' = B U (Lele, J. Comput. Phys. 103, 1992), a one-sided
derivative is one product with D = A^-1 B, stored on the grid per (order,
axis) on first use, read-only and freed with the grid: dense on axes of
n <= DENSE_MAX nodes, and as its band |i - j| <= w = HALF_WIDTH[order] on
longer ones. The pinned-end closure builds B U and applies the factor of A
(see tridiag), shared by every grid of that n.

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

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Tuple, Union

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


class _OperatorCache:
    @cached_property
    def derivative_matrices(self) -> dict:
        """Read-only D = A^-1 B, or its band, per (order, axis), built by d1/d2
        on first use."""
        return {}


@dataclass(frozen=True)
class Grid1D(_OperatorCache):
    """Uniform 1D mesh: nodes x0 + i*h for i = 0 .. n-1."""

    x0: float
    h: float
    n: int

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError(f"grid spacing must be positive, got h = {self.h}")
        if self.n < 5:
            raise ValueError(f"need at least 5 nodes for the closures, got n = {self.n}")

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.h * np.arange(self.n)

    @cached_property
    def shape(self) -> Tuple[int]:
        return (self.n,)

    @cached_property
    def spacing(self) -> Tuple[float]:
        return (self.h,)

    @cached_property
    def dirichlet(self) -> Tuple[tuple, Tuple[np.ndarray]]:
        """The Dirichlet nodes, both ends: (index, (x,)); values[index] are theirs."""
        index = (_read_only(np.array([0, self.n - 1])),)
        x = np.array([self.x0, self.x0 + (self.n - 1) * self.h])
        return index, (_read_only(x),)


@dataclass(frozen=True)
class Grid2D(_OperatorCache):
    """Uniform tensor-product mesh; fields are indexed values[ix, iy]."""

    x0: float
    y0: float
    hx: float
    hy: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.hx <= 0 or self.hy <= 0:
            raise ValueError(
                f"grid spacings must be positive, got hx = {self.hx}, hy = {self.hy}"
            )
        if self.nx < 5 or self.ny < 5:
            raise ValueError(
                f"need at least 5 nodes per axis, got nx = {self.nx}, ny = {self.ny}"
            )

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.hx * np.arange(self.nx)

    @property
    def y(self) -> np.ndarray:
        return self.y0 + self.hy * np.arange(self.ny)

    @cached_property
    def shape(self) -> Tuple[int, int]:
        return (self.nx, self.ny)

    @cached_property
    def spacing(self) -> Tuple[float, float]:
        return (self.hx, self.hy)

    @cached_property
    def dirichlet(self) -> Tuple[tuple, Tuple[np.ndarray, np.ndarray]]:
        """The Dirichlet nodes, the perimeter with each node once:
        (index, (x, y)); values[index] are theirs."""
        nx, ny = self.nx, self.ny
        inner = np.arange(1, nx - 1)
        ix = np.concatenate([np.zeros(ny, int), np.full(ny, nx - 1), inner, inner])
        iy = np.concatenate(
            [np.arange(ny), np.arange(ny), np.zeros(nx - 2, int), np.full(nx - 2, ny - 1)]
        )
        index = (_read_only(ix), _read_only(iy))
        return index, (_read_only(self.x[ix]), _read_only(self.y[iy]))


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
Grid = Union[Grid1D, Grid2D]


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


def _along(order, rhs_of, u, grid, axis, bp):
    """Apply the order's compact operator to every grid line along axis."""
    u = np.asarray(u, dtype=float)
    if u.shape != grid.shape:
        raise ShapeMismatch(f"field shape {u.shape} does not match grid {grid.shape}")
    if not 0 <= axis < u.ndim:
        raise ValueError(f"axis {axis} out of range for a {u.ndim}D grid")
    n, h = u.shape[axis], grid.spacing[axis]
    if bp.kind == "exact":
        lines = np.ascontiguousarray(u.swapaxes(0, axis))
        out = solve(_operator(order, n, bp.kind), rhs_of(lines, h, bp))
        return np.ascontiguousarray(out.swapaxes(0, axis))
    d = grid.derivative_matrices.get((order, axis))
    if d is None:
        # probe with the comb E (the identity for the dense D), see above
        p = n if n <= DENSE_MAX else 2 * HALF_WIDTH[order] + 1
        comb = np.zeros((n, p))
        comb[np.arange(n), np.arange(n) % p] = 1.0
        d = solve(_operator(order, n, bp.kind), rhs_of(comb, h, bp))
        if p < n:
            j = np.arange(n)[:, None] + np.arange(p) - p // 2  # column of band[i, k]
            d = np.take_along_axis(d, j % p, axis=1)
            d[(j < 0) | (j >= n)] = 0.0
        grid.derivative_matrices[order, axis] = _read_only(d)
    # On contiguous rows, einsum sums a line's outputs in the same order alone
    # as among many lines, so its bits do not depend on the field; BLAS does not.
    across = u.ndim == 2 and axis == 0  # the lines are the columns of u
    lines = np.ascontiguousarray(u.T if across else u)
    if n > DENSE_MAX:
        # band[i, k] meets node i - w + k: a window view of the zero-padded lines
        w = d.shape[1] // 2
        padded = np.zeros(lines.shape[:-1] + (n + 2 * w,))
        padded[..., w : n + w] = lines
        strides = padded.strides + padded.strides[-1:]
        window = np.ndarray(lines.shape + (2 * w + 1,), float, padded, 0, strides)
        out = np.einsum("ik,...ik->...i", d, window)
        return np.ascontiguousarray(out.T) if across else out
    if across:
        return np.einsum("kj,ij->ik", lines, d)
    return np.einsum("...j,ij->...i", lines, d)


def d1(u: Field, grid: Grid, axis: int = 0, bp: BoundaryPolicy = ONE_SIDED) -> Field:
    """First derivative along one axis, fourth-order in the interior."""
    return _along(1, _first_derivative_rhs, u, grid, axis, bp)


def d2(u: Field, grid: Grid, axis: int = 0, bp: BoundaryPolicy = ONE_SIDED) -> Field:
    """Second derivative along one axis, fourth-order in the interior."""
    return _along(2, _second_derivative_rhs, u, grid, axis, bp)
