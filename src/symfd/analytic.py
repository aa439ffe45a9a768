"""Reference solutions for the four model problems.

These closed-form (or implicitly defined) solutions provide initial data,
Dirichlet boundary data at every step, and the baseline for error
measurement. All accept scalar or array coordinates, and t may be an array
too: t and the coordinates broadcast against each other, so one call can
evaluate a block of times on a set of nodes. A guard on t raises when any
entry of t is out of range.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, PostBreakingTime, finite


@dataclass(frozen=True)
class PdeParams:
    """Physical constants shared by the model problems.

    alpha, beta: advection speeds (beta only used in 2D); nu: diffusion
    coefficient; sigma: width of the inviscid-Burgers hump; L: width of
    the advection-diffusion kernel at t = 0. Every field must be a finite
    real number (errors.finite).
    """

    alpha: float = 1.0
    beta: float = 1.0
    nu: float = 0.0
    sigma: float = 0.5
    L: float = 0.4

    def __post_init__(self):
        for name in ("alpha", "beta", "nu", "sigma", "L"):
            finite(name, getattr(self, name))
        if self.nu < 0:
            raise ValueError(f"nu must be nonnegative, got {self.nu}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.L <= 0:
            raise ValueError(f"L must be positive, got {self.L}")


def ibe_breaking_time(sigma: float) -> float:
    """First time the characteristics of the Gaussian hump cross.

    The t = 0 profile f(x) = exp(-x^2 / (2 sigma^2)) / sqrt(2 pi sigma^2)
    steepens fastest at x = sigma, so t_b = -1 / min f' = sigma^2 sqrt(2 pi e).
    Raises ValueError unless sigma is positive and finite.
    """
    if finite("sigma", sigma) <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return sigma * sigma * math.sqrt(2.0 * math.pi * math.e)


def _hump(x, sigma: float):
    amp = 1.0 / math.sqrt(2.0 * math.pi * sigma * sigma)
    return amp * np.exp(-x * x / (2.0 * sigma * sigma))


# Fixed-point iterations before a node falls back to bisection, the
# tolerances of the fixed point, and the bisection steps left of a node's
# 200-step budget.
_FIXED_POINT_STEPS = 60
_SETTLED_REL = 1e-14
_RESIDUAL = 1e-13
_BISECTION_STEPS = 200 - _FIXED_POINT_STEPS


def ibe_exact(t, x, sigma: float = 0.5):
    """Implicit traveling-hump solution of u_t + u u_x = 0.

    Solves u = f(x - u t) with f the normalized Gaussian of width sigma;
    single-valued only for |t| < t_b, as the characteristics cross at the
    breaking time t_b going forward and at -t_b going back, so any other t
    raises PostBreakingTime; a t that is not finite, or a sigma that is not
    positive and finite, is a ValueError. The fixed point u <- f(x - u t),
    which contracts with ratio |t| / t_b < 1 before breaking, runs over all
    nodes at once from the t = 0 profile, each node stopping once it
    settles. Close to breaking the contraction degrades: a node that does
    not settle, or settles off the root, is bisected on F(u) = u - f(x - u t)
    over [0, max f], which brackets the pre-breaking root, until |F| <=
    _RESIDUAL, all such nodes at once; one left after the budget raises
    NoConvergence naming it.
    """
    times, t_b = np.asarray(t, dtype=float), ibe_breaking_time(sigma)
    if not np.isfinite(times).all():
        raise ValueError(f"t must be finite, got {times[~np.isfinite(times)][0]}")
    t_far = times.flat[np.argmax(np.abs(times))]
    if abs(t_far) >= t_b:
        raise PostBreakingTime(f"t = {t_far} is at or past breaking, |t| >= t_b = {t_b:.6f}")
    tt, xx = np.broadcast_arrays(times, np.asarray(x, dtype=float))
    shape = tt.shape
    tt, xx = tt.ravel(), xx.ravel()
    out = _hump(xx, sigma)
    # A node iterates while active and keeps its value once it settles.
    active = tt != 0.0
    for _ in range(_FIXED_POINT_STEPS):
        if not active.any():
            break
        nxt = _hump(xx - out * tt, sigma)
        settled = np.abs(nxt - out) <= _SETTLED_REL * (1.0 + np.abs(nxt))
        out = np.where(active, nxt, out)
        active &= ~settled
    left = np.flatnonzero(active | ~(np.abs(out - _hump(xx - out * tt, sigma)) <= _RESIDUAL))
    lo, hi = np.zeros(left.size), np.full(left.size, _hump(0.0, sigma) * (1.0 + 1e-12))
    for _ in range(_BISECTION_STEPS):
        if not left.size:
            break
        mid = 0.5 * (lo + hi)
        residual = mid - _hump(xx[left] - mid * tt[left], sigma)
        done = np.abs(residual) <= _RESIDUAL
        out[left[done]] = mid[done]
        below, keep = residual <= 0.0, ~done
        lo, hi = np.where(below, mid, lo)[keep], np.where(below, hi, mid)[keep]
        left = left[keep]
    if left.size:
        t, x = tt[left[0]], xx[left[0]]
        raise NoConvergence(f"implicit hump solve stalled at t = {t}, x = {x} after 200 steps")
    if not shape:
        return float(out[0])
    return out.reshape(shape)


def ade1d_exact(t, x, params: PdeParams):
    """Drifting, spreading Gaussian solving u_t + alpha u_x = nu u_xx."""
    d = params.L * params.L + params.nu * t
    if np.any(d <= 0):
        raise ValueError(f"kernel variance L^2 + nu t = {np.min(d)} must be positive")
    xi = np.asarray(x, dtype=float) - params.alpha * t
    return np.exp(-xi * xi / (4.0 * d)) / np.sqrt(4.0 * math.pi * d)


def vbe_exact(t, x, nu: float):
    """Merging two-hump shock solution of u_t + u u_x = nu u_xx.

    u = 4 + (xi w1 + (xi - 2 pi) w2) / ((t + 1)(w1 + w2)) with xi = x - 4t
    and Gaussian weights centred at 0 and 2 pi. The weights are rescaled
    by their max so far-field evaluation never underflows to 0/0. The
    arithmetic runs in place, in the order of that expression and so to its
    bits, on about half the arrays the expression would allocate: a call of
    many boundary rows otherwise lifts the run's peak memory. Raises
    ValueError naming nu unless it is positive and finite, and naming t
    unless every t is a finite real number above -1.
    """
    if finite("nu", nu) <= 0:
        raise ValueError(f"nu must be positive, got {nu}")
    times = np.asarray(t)
    if times.dtype.kind not in "iuf":
        raise ValueError(f"t must be real numbers, not {t!r}")
    if not np.isfinite(times).all():
        raise ValueError(f"t must be finite, got {times[~np.isfinite(times)][0]}")
    if np.any(times <= -1.0):
        raise ValueError(f"t must exceed -1, got {np.min(t)}")
    big_t = t + 1.0
    xi = np.asarray(x, dtype=float) - 4.0 * t
    shape = np.shape(xi)
    xi = np.atleast_1d(xi)  # a scalar takes the in-place steps too
    xi2 = xi - 2.0 * math.pi
    scale = 4.0 * nu * big_t
    w1 = np.negative(xi)
    w1 *= xi
    w1 /= scale
    w2 = np.negative(xi2)
    w2 *= xi2
    w2 /= scale
    m = np.maximum(w1, w2)
    w1 -= m
    w2 -= m
    del m
    np.exp(w1, out=w1)
    np.exp(w2, out=w2)
    xi *= w1
    xi2 *= w2
    xi += xi2
    w1 += w2
    w1 *= big_t
    xi /= w1
    xi += 4.0
    return xi.reshape(shape)[()]


def ade2d_exact(t, x, y, params: PdeParams):
    """Drifting 2D Gaussian solving u_t + alpha u_x + beta u_y = nu laplacian(u).

    Mass-normalized plane heat kernel: the prefactor is 1 / (4 pi (L^2 + nu t));
    a square-root prefactor would not satisfy the equation in 2D.
    """
    d = params.L * params.L + params.nu * t
    if np.any(d <= 0):
        raise ValueError(f"kernel variance L^2 + nu t = {np.min(d)} must be positive")
    xi = np.asarray(x, dtype=float) - params.alpha * t
    eta = np.asarray(y, dtype=float) - params.beta * t
    return np.exp(-(xi * xi + eta * eta) / (4.0 * d)) / (4.0 * math.pi * d)


def galilean_transform_field(u, c: float):
    """Boost a velocity field: same nodes, all values shifted by c."""
    return np.asarray(u, dtype=float) + c


def galilean_exact(base_exact, c: float):
    """Boosted reference solution: (t, x) -> base(t, x - c t) + c. c must be a
    finite real number."""
    finite("c", c)

    def boosted(t, x):
        return base_exact(t, np.asarray(x, dtype=float) - c * t) + c

    return boosted
