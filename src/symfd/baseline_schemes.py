"""Non-invariant reference schemes: FTCS and the standard compact scheme, and
the block driver that every scheme's steps run on.

Each pair is a binder, called once per run as binder(grid, params, tau). It
returns the run's block advance(u, rows) from bind_steps: one step per
boundary row, each the scheme's stencil, the Dirichlet refresh from the row
and the finite check, on two preallocated buffers that the steps swap; the
stencil's views, scratch arrays, coefficients and the zero vector of the
check are made at the bind, and np.errstate is entered once per block. A
block returns a copy, and raises NonFinite at the first step whose field is
not finite.

The FTCS stencil is three-point central differences of the interior. The
Burgers stencil rounds as the central pair did: u - tau (u u_x - nu u_xx),
u_x = (u_{i+1} - u_{i-1}) / 2h and u_xx = (u_{i+1} - 2 u_i + u_{i-1}) / h^2,
and the inviscid one u - (tau u) u_x. The advection-diffusion stencil is u +
T u on the flattened field, T's neighbours at +-1 along the last axis and
+-ny along x in 2D; each node whose stencil wraps across a row is a
Dirichlet node, which the refresh overwrites.

A COMP step is one forward-Euler step with the compact derivatives. The
Burgers steps read u_x and u_xx from the grid's bound pair
(compact_ops.bound_pair) into an output array bound per run; the inviscid one
adds the defect term. The advection-diffusion step has one binder for 1D and
2D: u + sum over the axes of T u, T = tau (nu D2 - speed D1) stored per axis
(compact_ops.bound_linear), the speed being alpha on x and beta on y. Each
keeps the rounded operations, in order, of the update expression in its
docstring, so its bits are those of that expression.
"""

import math

import numpy as np

from . import compact_ops
from .analytic import PdeParams
from .compact_ops import Grid, Grid1D
from .errors import NonFinite


def bind_steps(grid: Grid, stencil):
    """The block advance of a pair on grid (see the module docstring).
    stencil(src, dst) returns the step from the field src to dst, two
    C-contiguous fields of grid: a call writes dst's interior at least, through
    views and scratch made once."""
    size = math.prod(grid.shape)
    buffers = np.empty((2, size))
    fields = buffers.reshape((2,) + grid.shape)
    # (step, its destination) from buffer 0 and from buffer 1
    steps = ((stencil(*fields), buffers[1]), (stencil(*fields[::-1]), buffers[0]))
    dirichlet = np.ravel_multi_index(grid.dirichlet[0], grid.shape)
    zeros = np.zeros(size)

    def advance(u, rows):
        fields[0] = u
        k = 0
        # an unstable run overflows to inf or NaN, which the check reports, and a
        # Dirichlet node may divide by zero before the refresh overwrites it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for row in rows:
                step, dst = steps[k]
                step()
                dst[dirichlet] = row
                if not math.isfinite(np.vdot(dst, zeros)):  # 0 x is NaN for x not finite
                    raise NonFinite()
                k = 1 - k
        return fields[k].copy()

    return advance


def scalars(*values):
    """The values as 0-d arrays: a ufunc takes them faster than Python floats,
    with the same bits."""
    return [np.array(float(v)) for v in values]


def ibe_ftcs(grid: Grid1D, params: PdeParams, tau: float):
    """Bind the FTCS steps of u_t + u u_x = 0 (see the module docstring)."""
    twice_h, tau = scalars(2.0 * grid.h, tau)
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

    return bind_steps(grid, stencil)


def vbe_ftcs(grid: Grid1D, params: PdeParams, tau: float):
    """Bind the FTCS steps of u_t + u u_x = nu u_xx (see the module docstring)."""
    twice_h, h2, nu, tau, two = scalars(2.0 * grid.h, grid.h * grid.h, params.nu, tau, 2.0)
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

    return bind_steps(grid, stencil)


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
    centre_c, *coefficients = scalars(centre_c, *coefficients)
    t, term = np.empty(hi - lo), np.empty(hi - lo)

    def stencil(src, dst):
        src, dst = src.reshape(-1), dst.reshape(-1)
        centre, out = src[lo:hi], dst[lo:hi]
        terms = [(c, src[lo + offset : hi + offset]) for c, offset in zip(coefficients, offsets)]

        def step():
            np.multiply(centre, centre_c, t)
            for c, v in terms:
                np.multiply(v, c, term)
                np.add(t, term, t)
            np.add(centre, t, out)

        return step

    return bind_steps(grid, stencil)


def ibe_comp(grid: Grid1D, params: PdeParams, tau: float):
    """Bind the COMP steps of u_t + u u_x = 0 with the defect correction.

    The correction (tau^2/2)(u^2 u_xx + 2 u u_x^2) matches the exact
    second time derivative of the solution, lifting the update to second
    order in time: u - (tau u) u_x + (tau^2 / 2)((u u) u_xx + ((2 u) u_x) u_x).
    """
    tau, half_tau2, two = scalars(tau, 0.5 * tau * tau, 2.0)
    pair = compact_ops.bound_pair(grid)
    derivatives = pair.empty()
    ux, uxx = derivatives
    first, second, third = (np.empty(grid.n) for _ in range(3))

    def stencil(u, out):
        def step():
            pair(u, derivatives)
            np.multiply(u, tau, first)
            np.multiply(first, ux, first)
            np.subtract(u, first, first)  # u - tau u u_x
            np.multiply(u, u, second)
            np.multiply(second, uxx, second)
            np.multiply(u, two, third)
            np.multiply(third, ux, third)
            np.multiply(third, ux, third)
            np.add(second, third, second)
            np.multiply(second, half_tau2, second)
            np.add(first, second, out)

        return step

    return bind_steps(grid, stencil)


def vbe_comp(grid: Grid1D, params: PdeParams, tau: float):
    """Bind the COMP steps of u_t + u u_x = nu u_xx: u - tau (u u_x - nu u_xx)."""
    nu, tau = scalars(params.nu, tau)
    pair = compact_ops.bound_pair(grid)
    derivatives = pair.empty()
    ux, uxx = derivatives
    t = np.empty(grid.n)

    def stencil(u, out):
        def step():
            pair(u, derivatives)
            np.multiply(u, ux, t)
            np.multiply(uxx, nu, uxx)
            np.subtract(t, uxx, t)
            np.multiply(t, tau, t)
            np.subtract(u, t, out)

        return step

    return bind_steps(grid, stencil)


def ade_comp(grid: Grid, params: PdeParams, tau: float):
    """Bind the COMP steps of u_t + alpha u_x (+ beta u_y) = nu laplacian(u),
    unsplit: u plus one stored product T u per axis (compact_ops.bound_linear)."""
    speeds = (params.alpha, params.beta)[: len(grid.shape)]
    products = [
        compact_ops.bound_linear(grid, axis, compact_ops, -tau * speed, tau * params.nu)
        for axis, speed in enumerate(speeds)
    ]
    t, *rest = [product.empty() for product in products]
    x_product, *y_product = products

    def stencil(u, out):
        def step():
            x_product(u, t)
            for product, ty in zip(y_product, rest):  # in place: a sum from 0 would add a pass
                product(u, ty)
                np.add(t, ty, t)
            np.add(u, t, out)

        return step

    return bind_steps(grid, stencil)
