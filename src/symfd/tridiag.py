"""Tridiagonal linear systems, solved by Thomas elimination.

A grid solves its compact derivative systems only to probe its operators,
once per axis and order (see compact_ops), so each call eliminates from
scratch. There is no pivoting, which the strictly dominant compact matrices
never need; a pivot that vanishes raises ZeroPivot.
"""

import numpy as np

from .errors import ShapeMismatch, ZeroPivot

# Elimination aborts rather than divides when a pivot falls below this.
PIVOT_TOL = 1e-14


def solve(lower, diag, upper, rhs) -> np.ndarray:
    """Solve A x = rhs, rhs (n,) or (n, m), for the tridiagonal A with bands
    (lower, diag, upper): lower[i] multiplies x[i] in row i+1, upper[i]
    multiplies x[i+1] in row i.

    Each column of a 2D rhs gives the same result as solving it alone. Raises
    ShapeMismatch on inconsistent shapes and ZeroPivot when a pivot drops
    below PIVOT_TOL in magnitude. The inputs are left untouched; the result is
    a fresh array. The residual max-norm is <= 1e-12 * (1 + max|rhs|) for any
    reasonably conditioned system.
    """
    a, b, c = (np.asarray(band, dtype=float) for band in (lower, diag, upper))
    n = b.shape[0] if b.ndim == 1 else 0
    if n < 2 or a.shape != (n - 1,) or c.shape != (n - 1,):
        raise ShapeMismatch(
            f"bands of shapes {a.shape}/{b.shape}/{c.shape} do not form a tridiagonal "
            "matrix with n >= 2"
        )
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise ShapeMismatch(f"rhs has shape {rhs.shape}, expected ({n},) or ({n}, m)")
    # Python floats beat numpy scalar indexing in this serial loop, and one
    # rhs's rows are Python floats too; many are the row views of one (n, m)
    # copy, updated in place, so they cost the copy and no other (n, m) array.
    a, piv, c = a.tolist(), b.tolist(), c.tolist()
    x = np.array(rhs)
    d = list(x) if x.ndim == 2 else x.tolist()
    for i in range(n):  # each pivot is checked, then eliminates the row below
        if abs(piv[i]) < PIVOT_TOL:
            raise ZeroPivot(i, abs(piv[i]))
        if i < n - 1:
            w = a[i] / piv[i]
            piv[i + 1] -= w * c[i]
            d[i + 1] -= w * d[i]
    d[n - 1] /= piv[n - 1]
    for i in range(n - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
        d[i] /= piv[i]
    return x if x.ndim == 2 else np.array(d)
