"""Non-invariant reference schemes: FTCS and the standard compact scheme.

A COMP update is one forward-Euler update of the interior: it returns the new
field and leaves the boundary nodes for the caller to refresh. The Burgers
updates read u_x and u_xx together from compact_ops.derivatives, one stored
product; the inviscid one adds the defect term. The advection-diffusion
update has one body for 1D and 2D: u + sum over the axes of T u, T = tau (nu
D2 - speed D1) stored per axis (compact_ops.linear), the speed being alpha on
x and beta on y.

An FTCS pair is a binder instead, called once per run as binder(grid, params,
tau). It returns the run's block advance(u, rows): one step per boundary row,
each the three-point central stencil of the interior, the Dirichlet refresh
from the row and the finite check, on two preallocated buffers that the steps
swap; its slice views, scratch arrays, coefficients and the zero vector of
the check are made at the bind. A block returns a copy, and raises NonFinite
at the first step whose field is not finite. The Burgers stencil rounds as
the central pair did: u - tau (u u_x - nu u_xx), u_x = (u_{i+1} - u_{i-1}) /
2h and u_xx = (u_{i+1} - 2 u_i + u_{i-1}) / h^2, and the inviscid one u -
(tau u) u_x. The advection-diffusion stencil is u + T u on the flattened
field, T's neighbours at +-1 along the last axis and +-ny along x in 2D; each
node whose stencil wraps across a row is a Dirichlet node, which the refresh
overwrites.
"""

import math

import numpy as np

from . import compact_ops
from .analytic import PdeParams
from .compact_ops import Field, Grid, Grid1D
from .errors import NonFinite


def _bind_ftcs(grid: Grid, stencil):
    """The block advance of an FTCS pair on grid (see the module docstring).
    stencil(src, dst) returns the step from the flat buffer src to dst: a call
    writes dst's interior, through views made once."""
    size = math.prod(grid.shape)
    buffers = np.empty((2, size))
    fields = buffers.reshape((2,) + grid.shape)
    # (step, its destination) from buffer 0 and from buffer 1
    steps = ((stencil(*buffers), buffers[1]), (stencil(*buffers[::-1]), buffers[0]))
    dirichlet = np.ravel_multi_index(grid.dirichlet[0], grid.shape)
    zeros = np.zeros(size)

    def advance(u, rows):
        fields[0] = u
        k = 0
        # an unstable run overflows to inf or NaN, which the check reports
        with np.errstate(over="ignore", invalid="ignore"):
            for row in rows:
                step, dst = steps[k]
                step()
                dst[dirichlet] = row
                if not math.isfinite(np.vdot(dst, zeros)):  # 0 x is NaN for x not finite
                    raise NonFinite()
                k = 1 - k
        return fields[k].copy()

    return advance


def _scalars(*values):
    """The values as 0-d arrays: a ufunc takes them faster than Python floats,
    with the same bits."""
    return [np.array(float(v)) for v in values]


def ibe_ftcs(grid: Grid1D, params: PdeParams, tau: float):
    """Bind the FTCS steps of u_t + u u_x = 0 (see the module docstring)."""
    twice_h, tau = _scalars(2.0 * grid.h, tau)
    ux, scaled = np.empty(grid.n - 2), np.empty(grid.n - 2)

    def stencil(src, dst):
        right, centre, left, out = src[2:], src[1:-1], src[:-2], dst[1:-1]

        def step():
            np.subtract(right, left, ux)
            np.divide(ux, twice_h, ux)
            np.multiply(centre, tau, scaled)
            np.multiply(scaled, ux, scaled)
            np.subtract(centre, scaled, out)

        return step

    return _bind_ftcs(grid, stencil)


def vbe_ftcs(grid: Grid1D, params: PdeParams, tau: float):
    """Bind the FTCS steps of u_t + u u_x = nu u_xx (see the module docstring)."""
    twice_h, h2, nu, tau, two = _scalars(2.0 * grid.h, grid.h * grid.h, params.nu, tau, 2.0)
    ux, uxx = np.empty(grid.n - 2), np.empty(grid.n - 2)

    def stencil(src, dst):
        right, centre, left, out = src[2:], src[1:-1], src[:-2], dst[1:-1]

        def step():
            np.subtract(right, left, ux)
            np.divide(ux, twice_h, ux)
            np.multiply(centre, two, uxx)
            np.subtract(right, uxx, uxx)
            np.add(uxx, left, uxx)
            np.divide(uxx, h2, uxx)
            np.multiply(centre, ux, ux)  # u u_x
            np.multiply(uxx, nu, uxx)  # nu u_xx
            np.subtract(ux, uxx, ux)
            np.multiply(ux, tau, ux)
            np.subtract(centre, ux, out)

        return step

    return _bind_ftcs(grid, stencil)


def ade_ftcs(grid: Grid, params: PdeParams, tau: float):
    """Bind the FTCS steps of u_t + alpha u_x (+ beta u_y) = nu laplacian(u), unsplit
    (see the module docstring)."""
    shape = grid.shape
    strides = [math.prod(shape[axis + 1 :]) for axis in range(len(shape))]
    lo = strides[0]
    hi = math.prod(shape) - lo
    centre_c, coefficients, offsets = 0.0, [], []
    for h, speed, stride in zip(grid.spacing, (params.alpha, params.beta), strides):
        first, second = (-tau * speed) / (2.0 * h), (tau * params.nu) / (h * h)
        centre_c += -2.0 * second
        coefficients += [second - first, second + first]
        offsets += [-stride, stride]
    centre_c, *coefficients = _scalars(centre_c, *coefficients)
    t, term = np.empty(hi - lo), np.empty(hi - lo)

    def stencil(src, dst):
        centre, out = src[lo:hi], dst[lo:hi]
        terms = [(c, src[lo + offset : hi + offset]) for c, offset in zip(coefficients, offsets)]

        def step():
            np.multiply(centre, centre_c, t)
            for c, v in terms:
                np.multiply(v, c, term)
                np.add(t, term, t)
            np.add(centre, t, out)

        return step

    return _bind_ftcs(grid, stencil)


def ibe_comp_update(u: Field, grid: Grid1D, params: PdeParams, tau: float) -> Field:
    """Compact update of u_t + u u_x = 0 with the defect correction.

    The correction (tau^2/2)(u^2 u_xx + 2 u u_x^2) matches the exact
    second time derivative of the solution, lifting the update to second
    order in time.
    """
    ux, uxx = compact_ops.derivatives(u, grid)
    return u - tau * u * ux + 0.5 * tau * tau * (u * u * uxx + 2.0 * u * ux * ux)


def vbe_comp_update(u: Field, grid: Grid1D, params: PdeParams, tau: float) -> Field:
    """Compact update of u_t + u u_x = nu u_xx."""
    ux, uxx = compact_ops.derivatives(u, grid)
    return u - tau * (u * ux - params.nu * uxx)


def ade_update(u: Field, grid: Grid, params: PdeParams, tau: float, ops=compact_ops) -> Field:
    """Forward-Euler update of u_t + alpha u_x (+ beta u_y) = nu laplacian(u), unsplit,
    with ops' derivatives: u plus one stored product per axis of the field."""
    t = compact_ops.linear(u, grid, 0, ops, -tau * params.alpha, tau * params.nu)
    if u.ndim == 2:  # in place: a sum from 0 would add a pass over the field
        t += compact_ops.linear(u, grid, 1, ops, -tau * params.beta, tau * params.nu)
    return u + t
