"""Symmetry-preserving (SYM) compact schemes.

Each step invariantizes its base compact scheme with a moving frame: the
normalization fixes a per-node group parameter s1, the base update runs in the
transformed coordinates, and the result is mapped back. For these four
problems the composition collapses to a closed-form map per node of the jet
(u, u_x, u_xx[, u_y, u_yy]; tau), written once per pair as its jet update.
Each pair is a binder, binder(grid, params, tau) (plus the node displacement
of the sliding viscous Burgers step, or the frame variant of
advection-diffusion), that ends in baseline_schemes.bind_jets(grid, update).
update(u, jets, out) returns the step that writes the update of u into out in
the rounded operations, in order, of its binder's docstring, into scratch
bound per run; it is the advance's update, so prescribed jets can be fed to it.

The Burgers frames take s1 = -u_x and the projective factor lambda = 1 + tau
u_x at the new time level; advection-diffusion takes s1 = sum_k u_kk / (2 d u)
over its d framed axes and lambda = 1 - (4 nu tau) s1. The Burgers steps read
their jets with tau, and nu or tau / 2, folded in, from the pair scaled by
them (see baseline_schemes). ZeroState and FrameSingularity are guards
(baseline_schemes.Guard) on interior views made at the bind: each step folds
|u| and lambda into running minima, and the block advance decides them once
per block, replaying a failing block step by step to raise at its step. The
advance's lambda_min() is the smallest interior lambda of the blocks that
passed, one reduction per block.

The updates commute with the projective groups (Olver, Applications of Lie
Groups to Differential Equations, 1986). Put the node at x = 0 and the step
at t = 0. Burgers keeps t -> t / (1 - eps t), x -> x / (1 - eps t),
u -> (1 - eps t) u + eps x, which maps the jet to (u, u_x + eps, u_xx), the
step tau to tau / q, q = 1 - eps tau, and the new value to q times it:

    U(u, u_x + eps, u_xx; tau / q) = q U(u, u_x, u_xx; tau),

which both Burgers updates keep: lambda becomes lambda / q, tau / lambda stays.
Advection-diffusion keeps the heat equation's Appell transform in the frame
xi = x - a t moving with the speeds a, u -> (1 + 4 nu eps t)^(-d/2)
exp(-eps |xi|^2 / (1 + 4 nu eps t)) u((t, xi) / (1 + 4 nu eps t)). It maps
u_kk to u_kk - 2 eps u on every axis, the step to tau / q, q = 1 - 4 nu eps
tau, and the new value, at xi = -a tau, to q^(d/2) exp(-eps |a|^2 tau^2 / q)
times it. Both variants keep that: s1 becomes s1 - eps, so lambda becomes
lambda / q, u_yy - 2 s1 u stays, and the Gaussian exponent
s1 |a|^2 tau^2 / lambda moves by -eps |a|^2 tau^2 / q. A forward-Euler jet
map, as the COMP updates are, keeps neither.
"""

import math

import numpy as np

from . import baseline_schemes as base
from .analytic import PdeParams
from .compact_ops import Grid, Grid1D
from .errors import FrameSingularity, ZeroState

LAMBDA_TOL = 1e-10
ZERO_STATE_TOL = 1e-12

# Frame choices for the advection-diffusion step: "sym1" cancels the
# streamwise curvature (s1 = u_xx / 2u), "sym2" the full Laplacian
# (s1 = (u_xx + u_yy) / 4u in 2D); in 1D both are u_xx / 2u.
ADE2D_VARIANTS = ("sym1", "sym2")


def _frame_guard(lam):
    """The Guard of lam, a view of the interior of a bound frame factor:
    FrameSingularity when a node is at or below LAMBDA_TOL. Its lowest is the
    smallest interior lambda of a run."""
    return base.Guard(
        lam,
        lambda lowest: lowest <= LAMBDA_TOL,
        lambda: FrameSingularity(
            "projective factor lambda must stay positive for this frame; "
            "an interior node reached lambda <= 1e-10"
        ),
    )


def _lambda_min(guard):
    """The smallest interior lambda a frame guard met, NaN before any block."""
    return lambda: guard.lowest if guard.lowest < math.inf else math.nan


def ibe_sym(grid: Grid1D, params: PdeParams, tau: float):
    """Bind the invariantized compact steps of u_t + u u_x = 0.

    u_new = (u + tau^2 u^2 u_xx / (2 lambda^2)) / lambda per node. The
    frame absorbs the advection term entirely; on locally linear data the
    update is exact (see the one-step tests). The jets are p = tau u_x and
    r = (tau^2 / 2) u_xx, read from the pair scaled by them: lambda = p + 1
    and u_new = (u + (u / lambda)^2 r) / lambda.
    """
    (one,) = base.scalars(1.0)
    lam, t = np.empty(grid.n), np.empty(grid.n)
    guard = _frame_guard(lam[1:-1])
    lam_inner, running = guard.values, guard.running

    def update(u, jets, out):
        p, r = jets

        def step():
            np.add(p, one, lam)
            np.minimum(lam_inner, running, out=running)
            np.divide(u, lam, t)
            np.multiply(t, t, t)
            np.multiply(t, r, t)
            np.add(u, t, t)
            np.divide(t, lam, out)

        return step

    update.lambda_min = _lambda_min(guard)
    return base.bind_jets(grid, update, (tau, 0.5 * tau * tau), (guard,))


def vbe_sym(grid: Grid1D, params: PdeParams, tau: float, dx_nodes: float = 0.0):
    """Bind the invariantized compact steps of u_t + u u_x = nu u_xx.

    u_new = (u - s1 dx + tau nu u_xx / lambda) / lambda, where dx is the
    node displacement over the step. On the static mesh dx = 0 and the term
    is left out; a Galilean-boosted run slides the nodes with the boost
    speed, which keeps the update exactly equivariant under the boost. The
    jets are p = tau u_x and q = tau nu u_xx, read from the pair scaled by
    them: lambda = p + 1, -s1 dx = p (dx / tau) and u_new = (u + q / lambda)
    / lambda, u replaced by u + p (dx / tau) when dx is not 0.
    """
    one, speed = base.scalars(1.0, dx_nodes / tau)
    lam, t, moved = np.empty(grid.n), np.empty(grid.n), np.empty(grid.n)
    guard = _frame_guard(lam[1:-1])
    lam_inner, running = guard.values, guard.running

    def update(u, jets, out):
        p, q = jets

        def step():
            np.add(p, one, lam)
            np.minimum(lam_inner, running, out=running)
            if dx_nodes:
                np.multiply(p, speed, moved)
                np.add(u, moved, moved)
            np.divide(q, lam, t)
            np.add(moved if dx_nodes else u, t, t)
            np.divide(t, lam, out)

        return step

    update.lambda_min = _lambda_min(guard)
    return base.bind_jets(grid, update, (tau, tau * params.nu), (guard,))


def ade_sym(grid: Grid, params: PdeParams, tau: float, variant: str):
    """Bind the invariantized compact steps of u_t + alpha u_x (+ beta u_y) = nu laplacian(u).

    The base scheme runs in the frame-transformed coordinates, where the
    normalization cancels the curvature of the framed axes, every axis for
    "sym2" and x only for "sym1"; the result is mapped back through the
    projective factor lambda^(-d/2) on d axes and the Gaussian weight of the
    shifted base point. In 1D, s1 = u_xx / 2u gives lambda = 1 - 2 nu tau
    u_xx / u, the same lambda as the 1 - 2 s1 tau of the 1D frame normalized
    as s1 = nu u_xx / u; it must stay positive. s1 holds no nu, so the weight
    stays finite as nu -> 0. A step from an interior node too close to zero
    to normalize raises ZeroState, before FrameSingularity.
    """
    if variant not in ADE2D_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {ADE2D_VARIANTS}")
    p, d, shape = params, len(grid.shape), grid.shape
    interior = (slice(1, -1),) * d
    speed2 = p.alpha * p.alpha + (p.beta * p.beta if d == 2 else 0.0)
    framed = 2 if d == 2 and variant == "sym2" else 1  # the axes whose curvature s1 sums
    values = (1.0, 2.0, tau * p.alpha, tau * p.beta, 2.0 * framed, 4.0 * p.nu * tau,
              tau * p.nu, speed2 * tau * tau)
    one, two, tau_alpha, tau_beta, denominator, k, tau_nu, weight = base.scalars(*values)
    drift, s1, lam, t, w = (np.empty(shape) for _ in range(5))
    zero = base.Guard(
        np.empty(tuple(n - 2 for n in shape)),
        lambda lowest: lowest < ZERO_STATE_TOL,
        lambda: ZeroState("an interior node is too close to zero to normalize the frame"),
    )
    guard = _frame_guard(lam[interior])
    magnitude, zero_running = zero.values, zero.running
    lam_inner, running = guard.values, guard.running

    def update(u, jets, out):
        ux, uxx, *y = jets
        uy, uyy = y or (None, None)
        inner = u[interior]

        def step():
            # |u| of the interior, for ZeroState
            np.absolute(inner, magnitude)
            np.minimum(magnitude, zero_running, out=zero_running)
            # The slopes enter only as the drift alpha u_x (+ beta u_y), times tau.
            np.multiply(ux, tau_alpha, drift)
            if d == 2:  # the y axis, driven by beta
                np.multiply(uy, tau_beta, t)
                np.add(drift, t, drift)
            # s1 = (framed curvatures) / (2 d u), lambda = 1 - (4 nu tau) s1
            curvature = np.add(uxx, uyy, s1) if framed == 2 else uxx
            np.multiply(u, denominator, t)
            np.divide(curvature, t, s1)
            np.multiply(s1, k, lam)
            np.subtract(one, lam, lam)
            np.minimum(lam_inner, running, out=running)
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

    update.lambda_min = _lambda_min(guard)
    return base.bind_jets(grid, update, guards=(zero, guard))
