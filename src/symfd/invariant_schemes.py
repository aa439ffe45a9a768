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
from .compact_ops import Field, Grid1D, Grid2D
from .errors import FrameSingularity, ZeroState

LAMBDA_TOL = 1e-10
ZERO_STATE_TOL = 1e-12

# Frame choices for the 2D advection-diffusion step: "sym1" cancels the
# streamwise curvature (s1 = u_xx / 2u), "sym2" the full Laplacian
# (s1 = (u_xx + u_yy) / 4u).
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


def ade1d_sym_update(u: Field, grid: Grid1D, params: PdeParams, tau: float) -> Field:
    """Invariantized compact update of u_t + alpha u_x = nu u_xx.

    Frame: s1 = nu u_xx / u, lambda = 1 - 2 s1 tau (must stay positive
    for the lambda^(-3/2) branch). The exponent is computed from the
    ratio u_xx / u directly, so the nu -> 0 limit degrades gracefully to
    the plain advection step.
    """
    _check_zero_state(u, _INTERIOR_1D)
    ux = compact_ops.d1(u, grid)
    uxx = compact_ops.d2(u, grid)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = uxx / u  # = s1 / nu
        lam = 1.0 - 2.0 * params.nu * ratio * tau
        _check_lambda_positive(lam, _INTERIOR_1D)
        arg = ratio * params.alpha * params.alpha * tau * tau / (2.0 * lam)
        return lam ** (-1.5) * (lam * u - tau * params.alpha * ux) * np.exp(arg)


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


def ade2d_frame(u, uxx, uyy, variant: str, params, tau: float) -> MovingFrame:
    """Frame for the 2D advection-diffusion step (variant "sym1" or "sym2")."""
    if variant == "sym1":
        s1 = uxx / (2.0 * u)
    elif variant == "sym2":
        s1 = (uxx + uyy) / (4.0 * u)
    else:
        raise ValueError(f"unknown variant {variant!r}, expected one of {ADE2D_VARIANTS}")
    return MovingFrame(s1=s1, lambda_next=1.0 - 4.0 * params.nu * s1 * tau)


def ade2d_sym_update(
    u: Field, grid: Grid2D, params: PdeParams, tau: float, variant: str
) -> Field:
    """Invariantized compact update of u_t + alpha u_x + beta u_y = nu laplacian(u).

    The base scheme runs in the frame-transformed coordinates, where the
    normalization cancels the streamwise curvature ("sym1") or the whole
    Laplacian ("sym2"); the result is mapped back through the projective
    factor lambda and the Gaussian weight of the shifted base point.
    """
    p = params
    interior = np.s_[1:-1, 1:-1]
    _check_zero_state(u, interior)
    ux = compact_ops.d1(u, grid, 0)
    uy = compact_ops.d1(u, grid, 1)
    uxx = compact_ops.d2(u, grid, 0)
    uyy = compact_ops.d2(u, grid, 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        frame = ade2d_frame(u, uxx, uyy, variant, p, tau)
        lam = frame.lambda_next
        _check_lambda_positive(lam, interior)
        tau_t = tau / lam
        # Transformed values at the base point: u, u_x, u_y carry over;
        # the cross-stream curvature becomes u_yy - 2 s1 u.
        new_t = u - tau_t * (p.alpha * ux + p.beta * uy)
        if variant == "sym1":
            new_t = new_t + tau_t * p.nu * (uyy - 2.0 * frame.s1 * u)
        back = np.exp(frame.s1 * (p.alpha * p.alpha + p.beta * p.beta) * tau * tau / lam)
        return (new_t / lam) * back
