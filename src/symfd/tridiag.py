"""Tridiagonal linear systems, factored once and solved many times.

The compact derivative stencils give one tridiagonal matrix per (line
length, derivative order, closure), shared by every grid line and every time
step; only the right-hand side changes. factor() runs the Thomas elimination
of the matrix once (no pivoting, which the strictly dominant compact matrices
never need) and raises ZeroPivot if a pivot vanishes. solve() then applies
the factor to one right-hand side (n,) or to many as the columns of (n, m),
by forward and back substitution with the stored multipliers, which is
arithmetically the same as eliminating from scratch.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ShapeMismatch, ZeroPivot

# Elimination aborts rather than divides when a pivot falls below this.
PIVOT_TOL = 1e-14


@dataclass(frozen=True)
class Factor:
    """Thomas elimination of one tridiagonal matrix.

    multipliers[i] is lower[i] / pivots[i]; pivots are the eliminated
    diagonal; upper is the matrix's own upper band.
    """

    multipliers: Tuple[float, ...]
    pivots: Tuple[float, ...]
    upper: Tuple[float, ...]

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
    return Factor(tuple(w), tuple(b), tuple(c))


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
    return _substitute(f, rhs)


def _substitute(f: Factor, rhs: np.ndarray) -> np.ndarray:
    """Forward and back substitution, row by row.

    Rows are Python floats for one rhs and row views of an (n, m) copy for
    many, so one loop serves both. Both sweeps update the rows in place, so
    many right-hand sides cost the copy and no other (n, m) array.
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
        d[i] -= c[i] * d[i + 1]
        d[i] /= piv[i]
    return np.array(d) if rhs.ndim == 1 else x
