"""Non-invariant reference schemes: FTCS and the standard compact scheme, and
the block driver that every scheme's steps run on.

Each pair is a binder, called once per run as binder(grid, params, tau). It
returns the run's block advance(u, rows) from bind_steps: one step per
boundary row, each the scheme's stencil and the Dirichlet refresh from the
row, on two preallocated buffers that the steps swap; the stencil's views,
scratch arrays and coefficients are made at the bind, and np.errstate is
entered once per block. evolve's blocks hold block_steps(grid) rows: 4,096 on
a line, BOUNDARY_BLOCK (256) on a 2D grid of 32 or more Dirichlet nodes, and
on fewer nodes as many as draw at most BLOCK_VALUES values from the provider,
so that a line pays a block's fixed costs 16 times less often. A step may also
carry guards (Guard), floors on values it writes, such as the sym steps' frame
factor lambda: it folds them into a running minimum by one elementwise call,
with no reduction. A block is one finite check of its rows, its steps
unchecked, one finite check of the last field and one reduction per guard;
only when one of these fails is it replayed from its input, each step then
checked for its guards, in order, and then for finiteness. The steps'
arithmetic is the same in both passes, so a block returns the same bits, as a
copy, and raises the same error at the same step as a block checked after
every step: the first guard that fails, else NonFinite at the first step whose
field is not finite.

The advection-diffusion steps are affine: a step plus its refresh is
u <- M u + E b, M = I + T with its Dirichlet rows zeroed and E b the row b on
the Dirichlet nodes. On a line of at most DENSE_MAX nodes each full chunk of
m = BOUNDARY_BLOCK rows of a block, counted from its first, is then one
product, u <- [M^m G] [u; b_1 .. b_m] with G = [M^(m-1) E, ..., M E, E],
which agrees with the steps to roundoff, not bit for bit. The products and
the remainder's steps are the block's unchecked pass, checked as the steps
are and replayed step by step when a check fails, so a map that overflows
only costs the replay. A non-finite interior value stays non-finite through
a product, which sums it into every node. The map is probed once per run, on
its first full chunk; the rows past the last full chunk step row by row, and
longer lines keep the band step, as M^m is dense.

Two facts make the one check of the last field enough. A non-finite interior
node stays non-finite: in every step the node's own old value enters its new
value additively, before any product or quotient, so one step from it gives a
non-finite field or fails a guard (tests/test_bound_steps.py steps every
pair from each such node). A Dirichlet node, though, is overwritten by the
next step's refresh, and no interior stencil reads a 2D corner, so a
non-finite row could leave the last field finite; the rows are checked first.

The FTCS stencil is three-point central differences of the interior. The
Burgers stencils take four numpy calls per step, with tau folded into the
coefficients. The inviscid one is u - (a u)(u_{i+1} - u_{i-1}), a = tau / 2h.
The viscous one reads the jets (tau u_x, tau nu u_xx) as one product of the
read-only (n - 2, 3) window of each node's neighbours with [[-a, b], [0,
-2b], [a, b]], b = tau nu / h^2, and steps u - (u (tau u_x) - tau nu u_xx);
numpy copies the window and calls BLAS gemm, so a node's jets have the bits
of that product of a contiguous copy, not of a sequential sum. Both agree
with u - tau (u u_x - nu u_xx) of the central differences to a few ulp. The
advection-diffusion stencil is u + T u on the flattened field, T's neighbours
at +-1 along the last axis and +-ny along x in 2D; each node whose stencil
wraps across a row is a Dirichlet node, which the refresh overwrites.

A COMP step is one forward-Euler step with the compact derivatives. The
Burgers steps, like every sym step, are jet updates bound by bind_jets, which
reads the jets from the grid's pair scaled by the step's scalars
(compact_ops.bound_pair): (tau u_x, tau nu u_xx) for the viscous step and
(tau u_x, (tau^2 / 2) u_xx) for the inviscid one, which adds the defect
term. The advection-diffusion step has one binder for 1D and 2D: u + sum over
the axes of T u, T = tau (nu D2 - speed D1) bound per axis for the run
(compact_ops.bound_linear), the speed being alpha on x and beta on y. Each
keeps the rounded operations, in order, of the update expression in its
docstring, so its bits are those of that expression.
"""

import functools
import math

import numpy as np

from . import compact_ops
from .analytic import PdeParams
from .compact_ops import Grid, Grid1D
from .errors import NonFinite, StepFailure

# The steps of one block, and so of one provider call, on a grid of many
# Dirichlet nodes, and the m of an affine pair's block map, which holds
# n x (n + 2 m) values: 0.3 MB on 61 nodes. A block of 256 steps on a 26 x 26
# grid holds 0.2 MB, where the 2D reference's temporaries peak near 1 MB. A
# grid of fewer than BLOCK_VALUES / BOUNDARY_BLOCK = 32 Dirichlet nodes steps
# more rows per block, up to BLOCK_VALUES values (block_steps): 4,096 steps of a
# line's 2 nodes, 64 kB, whose provider call and block checks would otherwise
# be paid every 256 steps. BOUNDARY_BLOCK is a power of two, which the block
# map is squared up to (bind_steps).
BOUNDARY_BLOCK = 256
BLOCK_VALUES = 8192


def block_steps(grid: Grid) -> int:
    """The steps of one block on grid: BOUNDARY_BLOCK, or on a grid of fewer
    than 32 Dirichlet nodes as many as draw at most BLOCK_VALUES values, 4,096
    on a line."""
    return max(BOUNDARY_BLOCK, BLOCK_VALUES // len(grid.dirichlet[0][0]))


def check_finite(values, what=None):
    """Raise NonFinite unless every value is finite; the message names what the
    values are, a step's field by default."""
    if not np.isfinite(values).all():  # exact, and never warns
        raise NonFinite() if what is None else NonFinite(f"{what} must be finite")


def check_field(field):
    """check_finite of a step's field, its NonFinite placed at the first node,
    in the grid's flat order, whose value is not finite."""
    finite = np.isfinite(field)
    if not finite.all():
        node = int(finite.argmin())
        raise NonFinite().at(node, float(field.flat[node]))


class Guard:
    """A floor that a bound step's values must keep, decided once per block (see
    bind_steps). values is a view of scratch that every step writes, one value
    per interior node of the grid in its order, and the step folds it into
    running by one elementwise np.minimum, with no reduction. fails(lowest)
    says a value breaks the floor (a NaN does not: NonFinite reports it), and
    error() makes the exception it raises. lowest is the smallest value of the
    blocks that passed, inf before one."""

    def __init__(self, values, fails, error):
        self.values, self.fails, self.error = values, fails, error
        self.running = np.empty(values.shape)
        self.lowest = math.inf

    def passed(self):
        """Whether running, the steps since it was filled with inf, kept the floor
        with no NaN; if so, its smallest value joins lowest."""
        met = self.running.min()
        if met != met or self.fails(met):
            return False
        self.lowest = min(self.lowest, met)
        return True

    def check(self):
        """Raise error() if the values of the last step break the floor, placed
        at the grid's flat index of the node of the lowest value."""
        i = np.unravel_index(self.values.argmin(), self.values.shape)  # a NaN's, as min()'s
        lowest = float(self.values[i])
        if self.fails(lowest):
            shape = [n + 2 for n in self.values.shape]  # the grid's, as values are its interior
            node = np.ravel_multi_index([k + 1 for k in i], shape)
            raise self.error().at(int(node), lowest)


def bind_steps(grid: Grid, stencil, affine=False, guards=()):
    """The block advance of a pair on grid (see the module docstring):
    advance(u, rows) checks the rows, steps them unchecked and checks the last
    field and the guards, and replays the block from u with the checks after
    every step only when one fails. stencil(src, dst) returns the step from
    the field src to dst, two C-contiguous fields of grid: a call writes dst's
    interior at least, through views and scratch made once, and folds its
    values into each Guard's running. affine says the step plus its refresh is
    affine, so that a full block on a short line is one product with the block
    map. A replayed step checks the guards in order, then the field."""
    buffers = np.empty((2, math.prod(grid.shape)))
    fields = buffers.reshape((2,) + grid.shape)
    # (step, its destination) from buffer 0 and from buffer 1
    steps = ((stencil(*fields), buffers[1]), (stencil(*fields[::-1]), buffers[0]))
    dirichlet = np.ravel_multi_index(grid.dirichlet[0], grid.shape)
    mapped = affine and len(grid.shape) == 1 and grid.shape[0] <= compact_ops.DENSE_MAX

    def unchecked(u, rows):
        """u stepped over the rows with no finite check: the view of the buffer
        that holds the result."""
        fields[0] = u
        k = 0
        for row in rows:
            step, dst = steps[k]
            step()
            dst[dirichlet] = row
            k = 1 - k
        return fields[k]

    @functools.cache
    def block_map():
        """[M^m G] for m = BOUNDARY_BLOCK, on the vector [u; b_1 .. b_m], built on
        the first call. M is probed through the unchecked steps on the unit
        vectors with a zero boundary row. m is a power of two, reached from
        M and [E] by squaring: each squaring takes M^k to M^2k and [M^(k-1)
        E, ..., E] to [M^(2k-1) E, ..., E] by prepending its product with
        M^k. Every product is an einsum, which never warns."""
        n, zero = grid.shape[0], np.zeros((1, len(dirichlet)))
        power = np.stack([unchecked(e, zero).copy() for e in np.eye(n)], axis=1)
        inflow = np.eye(n)[:, dirichlet]
        for _ in range(BOUNDARY_BLOCK.bit_length() - 1):
            inflow = np.hstack((np.einsum("ij,jk->ik", power, inflow), inflow))
            power = np.einsum("ij,jk->ik", power, power)
        return np.hstack((power, inflow))

    def advance(u, rows):
        # an unstable run overflows to inf or NaN, which the checks report, and a
        # Dirichlet node may divide by zero before the refresh overwrites it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for guard in guards:
                guard.running.fill(math.inf)
            try:
                check_finite(rows)
                # each full BOUNDARY_BLOCK of a mapped block is one product
                mapped_rows = len(rows) - len(rows) % BOUNDARY_BLOCK if mapped else 0
                last = u
                for chunk in rows[:mapped_rows].reshape(-1, BOUNDARY_BLOCK, rows.shape[1]):
                    last = np.einsum("ij,j->i", block_map(), np.concatenate((last, chunk.ravel())))
                    last[dirichlet] = chunk[-1]
                if mapped_rows < len(rows):
                    last = unchecked(last, rows[mapped_rows:])
                check_finite(last)
                if all(guard.passed() for guard in guards):
                    return last.copy()
            except NonFinite:
                pass
            # the replay: from u again, checked after every step, to raise at the
            # step that fails, which the error records as its step of the block,
            # and at the node it failed at
            last = u
            for k, row in enumerate(rows[:, None], 1):
                last = unchecked(last, row)
                try:
                    for guard in guards:
                        guard.check()
                    check_field(last)
                except StepFailure as error:
                    error.step = k
                    raise
        return last.copy()

    return advance


def scalars(*values):
    """The values as 0-d arrays: a ufunc takes them faster than Python floats,
    with the same bits."""
    return [np.array(float(v)) for v in values]


def ibe_ftcs(grid: Grid1D, params: PdeParams, tau: float):
    """Bind the FTCS steps of u_t + u u_x = 0 (see the module docstring)."""
    (a,) = scalars(tau / (2.0 * grid.h))
    difference, t = np.empty(grid.n - 2), np.empty(grid.n - 2)

    def stencil(src, dst):
        right, centre, left, out = src[2:], src[1:-1], src[:-2], dst[1:-1]

        def step():
            np.subtract(right, left, difference)
            np.multiply(centre, a, t)
            np.multiply(t, difference, t)
            np.subtract(centre, t, out)

        return step

    return bind_steps(grid, stencil)


def vbe_ftcs(grid: Grid1D, params: PdeParams, tau: float):
    """Bind the FTCS steps of u_t + u u_x = nu u_xx (see the module docstring)."""
    a, b = tau / (2.0 * grid.h), (tau * params.nu) / (grid.h * grid.h)
    coefficients = np.array([[-a, b], [0.0, -2.0 * b], [a, b]])
    jets = np.empty((grid.n - 2, 2))
    tau_ux, tau_diffusion = jets.T  # tau u_x, tau nu u_xx
    t = np.empty(grid.n - 2)

    def stencil(src, dst):
        window = np.lib.stride_tricks.sliding_window_view(src, 3)  # read-only
        centre, out = src[1:-1], dst[1:-1]

        def step():
            np.matmul(window, coefficients, out=jets)
            np.multiply(centre, tau_ux, t)
            np.subtract(t, tau_diffusion, t)
            np.subtract(centre, t, out)

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

    return bind_steps(grid, stencil, affine=True)


def bind_jets(grid: Grid, update, scales=(1.0, 1.0), guards=()):
    """The block advance (bind_steps) of a jet update: each step runs the grid's
    pair scaled by scales = (c1, c2) (compact_ops.bound_pair) along every axis,
    bound once per run, into the pair's own out, then the update. update(u,
    jets, out), called once per buffer, returns the step that writes the update
    of u into out from the jets (c1 u_x, c2 u_xx[, c1 u_y, c2 u_yy]) and folds
    its values into the guards, which the advance checks (bind_steps). The
    advance exposes update, scales, guards and update.lambda_min, where there is
    one, as its lambda_min."""
    pairs = [compact_ops.bound_pair(grid, axis, *scales) for axis in range(len(grid.shape))]
    x_pair, *y_pairs = pairs
    jets = tuple(jet for pair in pairs for jet in pair.out)

    def stencil(u, out):
        apply = update(u, jets, out)

        def step():
            x_pair(u)
            for y_pair in y_pairs:
                y_pair(u)
            apply()

        return step

    advance = bind_steps(grid, stencil, guards=guards)
    advance.update, advance.scales, advance.guards = update, scales, guards
    if hasattr(update, "lambda_min"):
        advance.lambda_min = update.lambda_min
    return advance


def ibe_comp(grid: Grid1D, params: PdeParams, tau: float):
    """Bind the COMP steps of u_t + u u_x = 0 with the defect correction.

    The correction (tau^2/2)(u^2 u_xx + 2 u u_x^2) matches the exact
    second time derivative of the solution, lifting the update to second
    order in time. The jets are p = tau u_x and r = (tau^2 / 2) u_xx, read
    from the pair scaled by them, and the update is u + u ((u r + p p) - p).
    """
    t, square = np.empty(grid.n), np.empty(grid.n)

    def update(u, jets, out):
        p, r = jets

        def step():
            np.multiply(u, r, t)
            np.multiply(p, p, square)
            np.add(t, square, t)
            np.subtract(t, p, t)
            np.multiply(t, u, t)
            np.add(u, t, out)

        return step

    return bind_jets(grid, update, (tau, 0.5 * tau * tau))


def vbe_comp(grid: Grid1D, params: PdeParams, tau: float):
    """Bind the COMP steps of u_t + u u_x = nu u_xx from the jets p = tau u_x and
    q = tau nu u_xx, read from the pair scaled by them: u - (u p - q)."""
    t = np.empty(grid.n)

    def update(u, jets, out):
        p, q = jets

        def step():
            np.multiply(u, p, t)
            np.subtract(t, q, t)
            np.subtract(u, t, out)

        return step

    return bind_jets(grid, update, (tau, tau * params.nu))


def ade_comp(grid: Grid, params: PdeParams, tau: float):
    """Bind the COMP steps of u_t + alpha u_x (+ beta u_y) = nu laplacian(u),
    unsplit: u plus one product T u per axis, bound for the run
    (compact_ops.bound_linear)."""
    speeds = (params.alpha, params.beta)[: len(grid.shape)]
    x_product, *y_products = products = [
        compact_ops.bound_linear(grid, axis, -tau * speed, tau * params.nu)
        for axis, speed in enumerate(speeds)
    ]
    t, *rest = [product.out[0] for product in products]  # each axis's T u

    def stencil(u, out):
        def step():
            x_product(u)
            for product, ty in zip(y_products, rest):
                product(u)
                np.add(t, ty, t)  # in place: a sum from 0 would add a pass
            np.add(u, t, out)

        return step

    return bind_steps(grid, stencil, affine=True)
