"""Symmetry-preserving (SYM) compact schemes.

Each update invariantizes its base compact scheme with a moving frame: the
frame normalization fixes per-node group parameters (s1 and friends), the
base update runs in the transformed coordinates, and the result is mapped
back. For these four problems the composition collapses to closed-form
per-node updates in the original variables, implemented below. Like the
baseline updates they return the new field and leave the boundary nodes to
the caller.

A frame is a MovingFrame, the tuple (s1, lambda_next) of per-node arrays: s1
is the projective parameter the normalization fixes, lambda_next the
projective factor at the new time level. The Burgers steps share ibe_frame,
s1 = -u_x and lambda = 1 + tau u_x; the advection-diffusion step has
ade_frame, s1 = sum_k u_kk / (2 d u) over its d framed axes and lambda =
1 - (4 nu tau) s1. Each update reads u_x and u_xx of an axis from one stored
product (compact_ops.derivatives) and computes only the parts of its frame
that it reads: the Burgers steps never form s1 = -u_x.
"""

from typing import NamedTuple

import numpy as np

from . import compact_ops
from .analytic import PdeParams
from .compact_ops import Field, Grid, Grid1D
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


def _check_lambda_positive(lam, interior):
    if lam[interior].min() <= LAMBDA_TOL:
        raise FrameSingularity(
            "projective factor lambda must stay positive for this frame; "
            "an interior node reached lambda <= 1e-10"
        )


def _check_zero_state(u, interior):
    if np.abs(u[interior]).min() < ZERO_STATE_TOL:
        raise ZeroState(
            "an interior node is too close to zero to normalize the frame"
        )


_INTERIOR_1D = np.s_[1:-1]


def ibe_frame(ux: np.ndarray, tau: float) -> MovingFrame:
    """Frame of both Burgers steps: s1 = -u_x, lambda = 1 - s1 tau = 1 + tau u_x."""
    return MovingFrame(s1=-ux, lambda_next=1.0 + tau * ux)


def ibe_sym_update(u: Field, grid: Grid1D, params: PdeParams, tau: float) -> Field:
    """Invariantized compact update of u_t + u u_x = 0.

    u_new = (u + tau^2 u^2 u_xx / (2 lambda^2)) / lambda per node. The
    frame absorbs the advection term entirely; on locally linear data the
    update is exact (see the one-step tests).
    """
    ux, uxx = compact_ops.derivatives(u, grid)
    lam = 1.0 + tau * ux  # ibe_frame's lambda
    _check_lambda_positive(lam, _INTERIOR_1D)
    # 0.5 tau^2 / lambda^2 is tau^2 / (2 lambda^2) bit for bit: halving is exact
    return (u + (0.5 * tau * tau / (lam * lam)) * u * u * uxx) / lam


def vbe_sym_update(
    u: Field, grid: Grid1D, params: PdeParams, tau: float, dx_nodes: float
) -> Field:
    """Invariantized compact update of u_t + u u_x = nu u_xx.

    u_new = (u - s1 dx + tau nu u_xx / lambda) / lambda, where dx is the
    node displacement over the step. On the static mesh dx = 0 and the term
    is left out; a Galilean-boosted run slides the nodes with the boost
    speed, which keeps the update exactly equivariant under the boost.
    """
    ux, uxx = compact_ops.derivatives(u, grid)
    lam = 1.0 + tau * ux  # ibe_frame's lambda; -s1 dx is u_x dx
    _check_lambda_positive(lam, _INTERIOR_1D)
    moved = u + ux * dx_nodes if dx_nodes else u
    return (moved + (tau * params.nu / lam) * uxx) / lam


def ade_frame(u, curvatures, variant: str, params, tau: float) -> MovingFrame:
    """Frame of the advection-diffusion step: s1 = sum_k u_kk / (2 d u) over the d
    framed axes, every axis for "sym2" and x only for "sym1"; lambda = 1 - (4 nu tau) s1."""
    if variant not in ADE2D_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {ADE2D_VARIANTS}")
    framed = curvatures[:1] if variant == "sym1" else curvatures
    s1 = sum(framed[1:], framed[0]) / (2.0 * len(framed) * u)
    return MovingFrame(s1=s1, lambda_next=1.0 - (4.0 * params.nu * tau) * s1)


def ade_sym_update(u: Field, grid: Grid, params: PdeParams, tau: float, variant: str) -> Field:
    """Invariantized compact update of u_t + alpha u_x (+ beta u_y) = nu laplacian(u).

    The base scheme runs in the frame-transformed coordinates, where the
    normalization cancels the curvature of the framed axes (ade_frame); the
    result is mapped back through the projective factor lambda^(-d/2) on d
    axes and the Gaussian weight of the shifted base point. In 1D, s1 =
    u_xx / 2u gives lambda = 1 - 2 nu tau u_xx / u, the same lambda as the
    1 - 2 s1 tau of the 1D frame normalized as s1 = nu u_xx / u; it must stay
    positive. s1 holds no nu, so the weight stays finite as nu -> 0.
    """
    p, d = params, u.ndim
    interior = (slice(1, -1),) * d
    _check_zero_state(u, interior)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # The slopes enter only as the drift alpha u_x (+ beta u_y), times tau.
        ux, uxx = compact_ops.derivatives(u, grid, 0)
        drift, curvatures, speed2 = (tau * p.alpha) * ux, [uxx], p.alpha * p.alpha
        if d == 2:  # the y axis, driven by beta
            uy, uyy = compact_ops.derivatives(u, grid, 1)
            drift += (tau * p.beta) * uy
            curvatures.append(uyy)
            speed2 += p.beta * p.beta
        s1, lam = ade_frame(u, curvatures, variant, p, tau)
        _check_lambda_positive(lam, interior)
        # Transformed values at the base point, over lambda: the slopes carry
        # over; the curvature of an axis the frame leaves out (y for sym1 in 2D)
        # becomes u_yy - 2 s1 u.
        new_t = u - drift / lam
        if d == 2 and variant == "sym1":
            new_t += (tau * p.nu / lam) * (uyy - 2.0 * s1 * u)
        # mapped back by lambda^(-d/2): 1/sqrt(lambda) in 1D, 1/lambda in 2D
        spread = np.sqrt(lam) if d == 1 else lam
        return new_t / spread * np.exp(s1 * (speed2 * tau * tau) / lam)
