"""Symmetry-preserving (SYM) compact schemes.

Each update invariantizes its base compact scheme with a moving frame: the
frame normalization fixes per-node group parameters (s1 and friends), the
base update runs in the transformed coordinates, and the result is mapped
back. For these four problems the composition collapses to closed-form
per-node updates in the original variables, implemented below. Like the
baseline updates they return the new field and leave the boundary nodes to
the caller.
"""

from dataclasses import dataclass

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


@dataclass
class MovingFrame:
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
    """Frame of both Burgers steps: s1 = -u_x, lambda = 1 - s1 tau."""
    s1 = -ux
    return MovingFrame(s1=s1, lambda_next=1.0 - s1 * tau)


def ibe_sym_update(u: Field, grid: Grid1D, params: PdeParams, tau: float) -> Field:
    """Invariantized compact update of u_t + u u_x = 0.

    u_new = (u + tau^2 u^2 u_xx / (2 lambda^2)) / lambda per node. The
    frame absorbs the advection term entirely; on locally linear data the
    update is exact (see the one-step tests).
    """
    frame = ibe_frame(compact_ops.d1(u, grid), tau)
    lam = frame.lambda_next
    _check_lambda_positive(lam, _INTERIOR_1D)
    uxx = compact_ops.d2(u, grid)
    return (u + (tau * tau / (2.0 * lam * lam)) * u * u * uxx) / lam


def vbe_sym_update(
    u: Field, grid: Grid1D, params: PdeParams, tau: float, dx_nodes: float
) -> Field:
    """Invariantized compact update of u_t + u u_x = nu u_xx.

    u_new = (u - s1 dx + tau nu u_xx / lambda) / lambda, where dx is the
    node displacement over the step. On the static mesh dx = 0; a
    Galilean-boosted run slides the nodes with the boost speed, which
    keeps the update exactly equivariant under the boost.
    """
    frame = ibe_frame(compact_ops.d1(u, grid), tau)
    lam = frame.lambda_next
    _check_lambda_positive(lam, _INTERIOR_1D)
    uxx = compact_ops.d2(u, grid)
    return (u - frame.s1 * dx_nodes + (tau * params.nu / lam) * uxx) / lam


def ade_frame(u, curvatures, variant: str, params, tau: float) -> MovingFrame:
    """Frame of the advection-diffusion step: s1 = sum_k u_kk / (2 d u) over the d
    framed axes, every axis for "sym2" and x only for "sym1"; lambda = 1 - 4 nu s1 tau."""
    if variant not in ADE2D_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {ADE2D_VARIANTS}")
    framed = curvatures[:1] if variant == "sym1" else curvatures
    s1 = sum(framed[1:], framed[0]) / (2.0 * len(framed) * u)
    return MovingFrame(s1=s1, lambda_next=1.0 - 4.0 * params.nu * s1 * tau)


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
        # The slopes enter only as the drift alpha u_x (+ beta u_y).
        drift = p.alpha * compact_ops.d1(u, grid, 0)
        curvatures = [compact_ops.d2(u, grid, 0)]
        speed2 = p.alpha * p.alpha
        if d == 2:  # the y axis, driven by beta
            drift += p.beta * compact_ops.d1(u, grid, 1)
            curvatures.append(compact_ops.d2(u, grid, 1))
            speed2 += p.beta * p.beta
        frame = ade_frame(u, curvatures, variant, p, tau)
        s1, lam = frame.s1, frame.lambda_next
        _check_lambda_positive(lam, interior)
        tau_t = tau / lam
        # Transformed values at the base point: the slopes carry over; the
        # curvature of an axis the frame leaves out becomes u_kk - 2 s1 u.
        new_t = u - tau_t * drift
        for ukk in curvatures[1:] if variant == "sym1" else ():  # left out by sym1
            new_t += tau_t * p.nu * (ukk - 2.0 * s1 * u)
        return new_t / lam ** (0.5 * d) * np.exp(s1 * speed2 * tau * tau / lam)
