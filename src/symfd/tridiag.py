"""Tridiagonal linear systems, factored once and solved many times.

The compact derivative stencils give one tridiagonal matrix per (line
length, derivative order, closure), shared by every grid line and every time
step; only the right-hand side changes. factor() runs the Thomas elimination
of the matrix once (no pivoting, which the strictly dominant compact matrices
never need) and raises ZeroPivot if a pivot vanishes. solve() then applies
the factor to one right-hand side (n,) or to many as the columns of (n, m):
by one product with the stored inverse for n <= DENSE_MAX, and otherwise by
forward and back substitution with the stored multipliers, which is
arithmetically the same as eliminating from scratch.
"""

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .errors import ShapeMismatch, ZeroPivot

# Elimination aborts rather than divides when a pivot falls below this.
PIVOT_TOL = 1e-14

# Largest n whose factor stores the dense inverse. Timed on the compact
# operators on a 2-core x86-64 host with numpy 2.4, the product beats
# substitution up to about 500 rows (22 against 53 us at n = 256, 106 against
# 120 us at 512), but the inverse grows as n^2: 0.5 MiB at n = 256. Above
# this, results are bit for bit those of elimination.
DENSE_MAX = 256


@dataclass(frozen=True)
class Factor:
    """Thomas elimination of one tridiagonal matrix.

    multipliers[i] is lower[i] / pivots[i]; pivots are the eliminated
    diagonal; upper is the matrix's own upper band. inverse is the dense,
    read-only inverse when n <= DENSE_MAX, else None.
    """

    multipliers: Tuple[float, ...]
    pivots: Tuple[float, ...]
    upper: Tuple[float, ...]
    inverse: Optional[np.ndarray]

    @property
    def n(self):
        return len(self.pivots)


def factor(lower, diag, upper) -> Factor:
    """Eliminate the tridiagonal matrix with bands (lower, diag, upper).

    lower[i] multiplies x[i] in row i+1; upper[i] multiplies x[i+1] in row
    i. Raises ShapeMismatch on inconsistent band lengths and ZeroPivot when
    a pivot drops below PIVOT_TOL in magnitude. The bands are not modified.
    """
    a, b, c = (np.asarray(band, dtype=float) for band in (lower, diag, upper))
    n = b.shape[0] if b.ndim == 1 else 0
    if n < 2 or a.shape != (n - 1,) or c.shape != (n - 1,):
        raise ShapeMismatch(
            f"bands of shapes {a.shape}/{b.shape}/{c.shape} do not form a tridiagonal "
            "matrix with n >= 2"
        )
    # Python float lists beat numpy scalar indexing in this serial loop.
    a, b, c = a.tolist(), b.tolist(), c.tolist()
    w = [0.0] * (n - 1)
    for i in range(1, n):
        piv = b[i - 1]
        if abs(piv) < PIVOT_TOL:
            raise ZeroPivot(i - 1, abs(piv))
        w[i - 1] = a[i - 1] / piv
        b[i] -= w[i - 1] * c[i - 1]
    if abs(b[n - 1]) < PIVOT_TOL:
        raise ZeroPivot(n - 1, abs(b[n - 1]))
    f = Factor(tuple(w), tuple(b), tuple(c), None)
    if n <= DENSE_MAX:
        inverse = _substitute(f, np.eye(n))
        inverse.flags.writeable = False
        f = replace(f, inverse=inverse)
    return f


def solve(f: Factor, rhs) -> np.ndarray:
    """Solve A x = rhs for the factored A; rhs is (n,) or (n, m).

    Columns of a 2D rhs are independent right-hand sides, and each gives
    the same result as solving it alone. rhs is left untouched; the result
    is a fresh array. The residual max-norm is <= 1e-12 * (1 + max|rhs|)
    for any reasonably conditioned system.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != f.n:
        raise ShapeMismatch(f"rhs has shape {rhs.shape}, expected ({f.n},) or ({f.n}, m)")
    if f.inverse is None:
        return _substitute(f, rhs)
    # On contiguous rows of the inverse and the right-hand side(s), einsum sums
    # every output in the same order whether a column comes alone or with
    # others, so a line's result does not depend on how many lines share the
    # call. BLAS matmul, or einsum on strided operands, does not keep that.
    if rhs.ndim == 1:
        return np.einsum("ij,j->i", f.inverse, np.ascontiguousarray(rhs))
    return np.einsum("ij,kj->ki", f.inverse, np.ascontiguousarray(rhs.T)).T


def _substitute(f: Factor, rhs: np.ndarray) -> np.ndarray:
    """Forward and back substitution, row by row.

    Rows are Python floats for one rhs and row views of an (n, m) copy for
    many, so one loop serves both. The forward sweep updates the copy in
    place; the back sweep keeps the one-rhs loop at one store per row.
    """
    n = f.n
    w, piv, c = f.multipliers, f.pivots, f.upper
    if rhs.ndim == 1:
        d = rhs.tolist()
    else:
        x = np.array(rhs)
        d = list(x)
    for i in range(1, n):
        d[i] -= w[i - 1] * d[i - 1]
    d[n - 1] /= piv[n - 1]
    for i in range(n - 2, -1, -1):
        d[i] = (d[i] - c[i] * d[i + 1]) / piv[i]
    return np.array(d)
