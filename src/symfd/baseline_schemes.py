"""Non-invariant reference schemes: FTCS and the standard compact scheme.

Each function is one forward-Euler update of the interior: it returns the
new field and leaves the boundary nodes for the caller to refresh. FTCS and
COMP share one body per problem and differ only in the derivative pair ops
they are given: Central here, or the compact d1/d2 of compact_ops; the
Burgers bodies read u_x and u_xx together from ops.derivatives, for the
compact pair one stored product. The inviscid Burgers COMP update keeps its
own body for the defect term. The
advection-diffusion step has one body for 1D and 2D: u + sum over the axes of
T u, T = tau (nu D2 - speed D1) stored per axis (compact_ops.linear), the
speed being alpha on x and beta on y.
"""

from typing import Tuple

import numpy as np

from . import compact_ops
from .analytic import PdeParams
from .compact_ops import Field, Grid, Grid1D


class Central:
    """Second-order central differences, the derivative pair of FTCS.

    Same call as compact_ops.d1/d2/derivatives on 1D and 2D fields; the end
    nodes along the axis get 0. compact_ops.linear stores their three-point
    operators as a band at every n: a dense n x n product costs n/3 times as much.
    """

    HALF_WIDTH, DENSE_MAX = {1: 1, 2: 1}, 0

    @staticmethod
    def d1(u: Field, grid: Grid, axis: int = 0) -> Field:
        d = np.empty_like(u)
        v, dv = (u.T, d.T) if axis else (u, d)
        dv[1:-1] = (v[2:] - v[:-2]) / (2.0 * grid.spacing[axis])
        dv[0] = dv[-1] = 0.0
        return d

    @staticmethod
    def d2(u: Field, grid: Grid, axis: int = 0) -> Field:
        h = grid.spacing[axis]
        d = np.empty_like(u)
        v, dv = (u.T, d.T) if axis else (u, d)
        dv[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
        dv[0] = dv[-1] = 0.0
        return d

    @staticmethod
    def derivatives(u: Field, grid: Grid, axis: int = 0) -> Tuple[Field, Field]:
        return Central.d1(u, grid, axis), Central.d2(u, grid, axis)


def ibe_ftcs_update(u: Field, grid: Grid1D, params: PdeParams, tau: float) -> Field:
    """Forward-Euler update of u_t + u u_x = 0, central differences."""
    return u - tau * u * Central.d1(u, grid)


def ibe_comp_update(u: Field, grid: Grid1D, params: PdeParams, tau: float) -> Field:
    """Compact update of u_t + u u_x = 0 with the defect correction.

    The correction (tau^2/2)(u^2 u_xx + 2 u u_x^2) matches the exact
    second time derivative of the solution, lifting the update to second
    order in time.
    """
    ux, uxx = compact_ops.derivatives(u, grid)
    return u - tau * u * ux + 0.5 * tau * tau * (u * u * uxx + 2.0 * u * ux * ux)


def vbe_update(u: Field, grid: Grid1D, params: PdeParams, tau: float, ops) -> Field:
    """Forward-Euler update of u_t + u u_x = nu u_xx with ops' derivatives."""
    ux, uxx = ops.derivatives(u, grid)
    return u - tau * (u * ux - params.nu * uxx)


def ade_update(u: Field, grid: Grid, params: PdeParams, tau: float, ops) -> Field:
    """Forward-Euler update of u_t + alpha u_x (+ beta u_y) = nu laplacian(u), unsplit,
    with ops' derivatives: u plus one stored product per axis of the field."""
    t = compact_ops.linear(u, grid, 0, ops, -tau * params.alpha, tau * params.nu)
    if u.ndim == 2:  # in place: a sum from 0 would add a pass over the field
        t += compact_ops.linear(u, grid, 1, ops, -tau * params.beta, tau * params.nu)
    return u + t
