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
over its d framed axes and lambda = 1 - (4 nu tau) s1. ZeroState and
FrameSingularity are checked on every step on interior views made at the
bind; the advance's lambda_min() is the smallest interior lambda the guard
met over a run that completes (a failed block is replayed, and its unchecked
pass may have met lambdas past the step at which the run raises).

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


def ibe_sym(grid: Grid1D, params: PdeParams, tau: float):
    """Bind the invariantized compact steps of u_t + u u_x = 0.

    u_new = (u + tau^2 u^2 u_xx / (2 lambda^2)) / lambda per node. The
    frame absorbs the advection term entirely; on locally linear data the
    update is exact (see the one-step tests).
    """
    # 0.5 tau^2 / lambda^2 is tau^2 / (2 lambda^2) bit for bit: halving is exact
    one, half_tau2, tau = base.scalars(1.0, 0.5 * tau * tau, tau)
    lam, t = np.empty(grid.n), np.empty(grid.n)
    guard = _frame_guard(lam[1:-1])

    def update(u, jets, out):
        ux, uxx = jets

        def step():
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

    update.lambda_min = guard.lowest
    return base.bind_jets(grid, update)


def vbe_sym(grid: Grid1D, params: PdeParams, tau: float, dx_nodes: float = 0.0):
    """Bind the invariantized compact steps of u_t + u u_x = nu u_xx.

    u_new = (u - s1 dx + tau nu u_xx / lambda) / lambda, where dx is the
    node displacement over the step. On the static mesh dx = 0 and the term
    is left out; a Galilean-boosted run slides the nodes with the boost
    speed, which keeps the update exactly equivariant under the boost.
    """
    one, tau_nu, tau, dx = base.scalars(1.0, tau * params.nu, tau, dx_nodes)
    lam, t, moved = np.empty(grid.n), np.empty(grid.n), np.empty(grid.n)
    guard = _frame_guard(lam[1:-1])

    def update(u, jets, out):
        ux, uxx = jets

        def step():
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

    update.lambda_min = guard.lowest
    return base.bind_jets(grid, update)


def ade_sym(grid: Grid, params: PdeParams, tau: float, variant: str):
    """Bind the invariantized compact steps of u_t + alpha u_x (+ beta u_y) = nu laplacian(u).

    The base scheme runs in the frame-transformed coordinates, where the
    normalization cancels the curvature of the framed axes, every axis for
    "sym2" and x only for "sym1"; the result is mapped back through the
    projective factor lambda^(-d/2) on d axes and the Gaussian weight of the
    shifted base point. In 1D, s1 = u_xx / 2u gives lambda = 1 - 2 nu tau
    u_xx / u, the same lambda as the 1 - 2 s1 tau of the 1D frame normalized
    as s1 = nu u_xx / u; it must stay positive. s1 holds no nu, so the weight
    stays finite as nu -> 0. A step first raises ZeroState for an interior
    node too close to zero to normalize.
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
    magnitude = np.empty(tuple(n - 2 for n in shape))
    guard = _frame_guard(lam[interior])

    def update(u, jets, out):
        ux, uxx, *y = jets
        uy, uyy = y or (None, None)
        inner = u[interior]

        def step():
            _check_zero_state(inner, magnitude)
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

    update.lambda_min = guard.lowest
    return base.bind_jets(grid, update)
