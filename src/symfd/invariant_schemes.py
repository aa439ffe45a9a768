"""Symmetry-preserving (SYM) compact schemes.

Each step invariantizes its base compact scheme with a moving frame: the
frame normalization fixes per-node group parameters (s1 and friends), the
base update runs in the transformed coordinates, and the result is mapped
back. For these four problems the composition collapses to closed-form
per-node updates in the original variables. Each pair is a binder, called
once per run as binder(grid, params, tau) (plus the node displacement for
the sliding viscous Burgers step), which returns the run's block advance
from baseline_schemes.bind_steps: the update, then the Dirichlet refresh, per
boundary row, with the block's finite checks.

A frame is a MovingFrame, the tuple (s1, lambda_next) of per-node arrays: s1
is the projective parameter the normalization fixes, lambda_next the
projective factor at the new time level. The Burgers steps use ibe_frame's
lambda = 1 + tau u_x (s1 = -u_x); the advection-diffusion step repeats
ade_frame's arithmetic, s1 = sum_k u_kk / (2 d u) over its d framed axes and
lambda = 1 - (4 nu tau) s1. Each step reads u_x and u_xx of an axis from the
grid's bound pair (compact_ops.bound_pair) into an output array bound per
run, computes only the parts of its frame that it reads, and keeps the
rounded operations, in order, of the update in its docstring, into scratch
arrays bound per run. ZeroState and FrameSingularity are checked on every
step on interior views made at the bind; the advance's lambda_min() is the
smallest interior lambda the guard met over the run. It is reported only for
runs that complete: a block that fails is replayed, and its unchecked pass may
have met the lambdas of steps past the one at which the run raises.
"""

import math
from typing import NamedTuple

import numpy as np

from . import baseline_schemes as base
from . import compact_ops
from .analytic import PdeParams
from .compact_ops import Grid, Grid1D
from .errors import FrameSingularity, ZeroState

LAMBDA_TOL = 1e-10
ZERO_STATE_TOL = 1e-12

# Frame choices for the advection-diffusion step: "sym1" cancels the
# streamwise curvature (s1 = u_xx / 2u), "sym2" the full Laplacian
# (s1 = (u_xx + u_yy) / 4u in 2D); in 1D both are u_xx / 2u.
ADE2D_VARIANTS = ("sym1", "sym2")


class MovingFrame(NamedTuple):
    """Normalized group parameters of one invariantized step, per node.

    s1 is the projective parameter fixed by the scheme's normalization;
    lambda_next = the projective factor at the new time level.
    """

    s1: np.ndarray
    lambda_next: np.ndarray


def _frame_guard(lam):
    """guard() raises FrameSingularity when a node of lam, a view of the interior
    of a bound frame factor, is at or below LAMBDA_TOL (a NaN passes, for
    NonFinite to report), and keeps the smallest value met, which
    guard.lowest() returns: NaN before the first step."""
    met = [math.inf]

    def guard():
        lowest = lam.min()
        if lowest <= LAMBDA_TOL:
            raise FrameSingularity(
                "projective factor lambda must stay positive for this frame; "
                "an interior node reached lambda <= 1e-10"
            )
        if lowest < met[0]:
            met[0] = lowest

    guard.lowest = lambda: met[0] if met[0] < math.inf else math.nan
    return guard


def _check_zero_state(u, magnitude):
    """ZeroState if an interior node of the view u is below ZERO_STATE_TOL in
    magnitude; magnitude is scratch of u's shape."""
    if np.absolute(u, magnitude).min() < ZERO_STATE_TOL:
        raise ZeroState(
            "an interior node is too close to zero to normalize the frame"
        )


def ibe_frame(ux: np.ndarray, tau: float) -> MovingFrame:
    """Frame of both Burgers steps: s1 = -u_x, lambda = 1 - s1 tau = 1 + tau u_x."""
    return MovingFrame(s1=-ux, lambda_next=1.0 + tau * ux)


def _bind(grid: Grid, stencil, guard):
    """The block advance of stencil (baseline_schemes.bind_steps), reporting the
    smallest interior lambda its guard met as lambda_min()."""
    advance = base.bind_steps(grid, stencil)
    advance.lambda_min = guard.lowest
    return advance


def _burgers_frame(grid: Grid1D):
    """(pair, its out, lambda, guard) of a Burgers step: the grid's bound pair
    with the (2, n) out it writes, ibe_frame's lambda as scratch and its guard."""
    pair = compact_ops.bound_pair(grid)
    lam = np.empty(grid.n)
    return pair, pair.empty(), lam, _frame_guard(lam[1:-1])


def ibe_sym(grid: Grid1D, params: PdeParams, tau: float):
    """Bind the invariantized compact steps of u_t + u u_x = 0.

    u_new = (u + tau^2 u^2 u_xx / (2 lambda^2)) / lambda per node. The
    frame absorbs the advection term entirely; on locally linear data the
    update is exact (see the one-step tests).
    """
    pair, derivatives, lam, guard = _burgers_frame(grid)
    ux, uxx = derivatives
    # 0.5 tau^2 / lambda^2 is tau^2 / (2 lambda^2) bit for bit: halving is exact
    one, half_tau2, tau = base.scalars(1.0, 0.5 * tau * tau, tau)
    t = np.empty(grid.n)

    def stencil(u, out):
        def step():
            pair(u, derivatives)
            np.multiply(ux, tau, lam)
            np.add(lam, one, lam)
            guard()
            np.multiply(lam, lam, t)
            np.divide(half_tau2, t, t)
            np.multiply(t, u, t)
            np.multiply(t, u, t)
            np.multiply(t, uxx, t)
            np.add(u, t, t)
            np.divide(t, lam, out)

        return step

    return _bind(grid, stencil, guard)


def vbe_sym(grid: Grid1D, params: PdeParams, tau: float, dx_nodes: float = 0.0):
    """Bind the invariantized compact steps of u_t + u u_x = nu u_xx.

    u_new = (u - s1 dx + tau nu u_xx / lambda) / lambda, where dx is the
    node displacement over the step. On the static mesh dx = 0 and the term
    is left out; a Galilean-boosted run slides the nodes with the boost
    speed, which keeps the update exactly equivariant under the boost.
    """
    pair, derivatives, lam, guard = _burgers_frame(grid)
    ux, uxx = derivatives
    one, tau_nu, tau, dx = base.scalars(1.0, tau * params.nu, tau, dx_nodes)
    t, moved = np.empty(grid.n), np.empty(grid.n)

    def stencil(u, out):
        def step():
            pair(u, derivatives)
            np.multiply(ux, tau, lam)
            np.add(lam, one, lam)
            guard()
            if dx_nodes:  # -s1 dx is u_x dx
                np.multiply(ux, dx, moved)
                np.add(u, moved, moved)
            np.divide(tau_nu, lam, t)
            np.multiply(t, uxx, t)
            np.add(moved if dx_nodes else u, t, t)
            np.divide(t, lam, out)

        return step

    return _bind(grid, stencil, guard)


def ade_frame(u, curvatures, variant: str, params, tau: float) -> MovingFrame:
    """Frame of the advection-diffusion step: s1 = sum_k u_kk / (2 d u) over the d
    framed axes, every axis for "sym2" and x only for "sym1"; lambda = 1 - (4 nu tau) s1."""
    if variant not in ADE2D_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {ADE2D_VARIANTS}")
    framed = curvatures[:1] if variant == "sym1" else curvatures
    s1 = sum(framed[1:], framed[0]) / (2.0 * len(framed) * u)
    return MovingFrame(s1=s1, lambda_next=1.0 - (4.0 * params.nu * tau) * s1)


def ade_sym(grid: Grid, params: PdeParams, tau: float, variant: str):
    """Bind the invariantized compact steps of u_t + alpha u_x (+ beta u_y) = nu laplacian(u).

    The base scheme runs in the frame-transformed coordinates, where the
    normalization cancels the curvature of the framed axes (ade_frame, whose
    arithmetic each step repeats into bound scratch); the result is mapped
    back through the projective factor lambda^(-d/2) on d axes and the
    Gaussian weight of the shifted base point. In 1D, s1 = u_xx / 2u gives
    lambda = 1 - 2 nu tau u_xx / u, the same lambda as the 1 - 2 s1 tau of the
    1D frame normalized as s1 = nu u_xx / u; it must stay positive. s1 holds no
    nu, so the weight stays finite as nu -> 0. A step first raises ZeroState
    for an interior node too close to zero to normalize.
    """
    if variant not in ADE2D_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {ADE2D_VARIANTS}")
    p, d, shape = params, len(grid.shape), grid.shape
    interior = (slice(1, -1),) * d
    pairs = [compact_ops.bound_pair(grid, axis) for axis in range(d)]
    outs = [pair.empty() for pair in pairs]
    ux, uxx = outs[0]
    uy, uyy = outs[1] if d == 2 else (None, None)
    speed2 = p.alpha * p.alpha + (p.beta * p.beta if d == 2 else 0.0)
    framed = 2 if d == 2 and variant == "sym2" else 1  # the axes whose curvature s1 sums
    values = (1.0, 2.0, tau * p.alpha, tau * p.beta, 2.0 * framed, 4.0 * p.nu * tau,
              tau * p.nu, speed2 * tau * tau)
    one, two, tau_alpha, tau_beta, denominator, k, tau_nu, weight = base.scalars(*values)
    drift, s1, lam, t, w = (np.empty(shape) for _ in range(5))
    magnitude = np.empty(tuple(n - 2 for n in shape))
    guard = _frame_guard(lam[interior])

    def stencil(u, out):
        inner = u[interior]

        def step():
            _check_zero_state(inner, magnitude)
            pairs[0](u, outs[0])
            # The slopes enter only as the drift alpha u_x (+ beta u_y), times tau.
            np.multiply(ux, tau_alpha, drift)
            if d == 2:  # the y axis, driven by beta
                pairs[1](u, outs[1])
                np.multiply(uy, tau_beta, t)
                np.add(drift, t, drift)
            # ade_frame: s1 = (framed curvatures) / (2 d u), lambda = 1 - (4 nu tau) s1
            curvature = np.add(uxx, uyy, s1) if framed == 2 else uxx
            np.multiply(u, denominator, t)
            np.divide(curvature, t, s1)
            np.multiply(s1, k, lam)
            np.subtract(one, lam, lam)
            guard()
            # Transformed values at the base point, over lambda: the slopes carry
            # over; the curvature of an axis the frame leaves out (y for sym1 in
            # 2D) becomes u_yy - 2 s1 u.
            np.divide(drift, lam, drift)
            np.subtract(u, drift, drift)
            if d == 2 and variant == "sym1":
                np.divide(tau_nu, lam, t)
                np.multiply(s1, two, w)
                np.multiply(w, u, w)
                np.subtract(uyy, w, w)
                np.multiply(t, w, t)
                np.add(drift, t, drift)
            # mapped back by lambda^(-d/2): 1/sqrt(lambda) in 1D, 1/lambda in 2D
            np.divide(drift, np.sqrt(lam, t) if d == 1 else lam, drift)
            np.multiply(s1, weight, t)
            np.divide(t, lam, t)
            np.exp(t, t)
            np.multiply(drift, t, out)

        return step

    return _bind(grid, stencil, guard)
