"""Structural checks on the invariant steppers.

The expanding profile u = x / (1 + t) is carried exactly by the invariant
steps for both Burgers problems, per step and over many steps. The
commutation harness then quantifies step-vs-transform defects for the two
group actions the schemes are built to respect.
"""

import numpy as np

from symfd import Grid1D, PdeParams, StepContext, evolve, invariantize_check, step

rarefaction = lambda t, x: np.asarray(x, dtype=float) / (1.0 + t)
grid = Grid1D(1.0, 0.25, 9)
tau = 1e-3

print("== one-step exactness on u = x/(1+t) ==")
for name, pde, params in (
    ("inviscid", "ibe", PdeParams(nu=0.0)),
    ("viscous", "vbe", PdeParams(nu=1.0 / 12.0)),
):
    worst = 0.0
    for t0 in (0.0, 0.5):
        ctx = StepContext(grid, params, tau, t0, rarefaction)
        out = step(pde, "sym", rarefaction(t0, grid.x), ctx)
        worst = max(worst, float(np.abs(out - rarefaction(t0 + tau, grid.x)).max()))
    print(f"{name:9s} worst one-step defect {worst:.2e}")

print()
print("== 500-step evolution of the same profile ==")
for pde, nu in (("ibe", 0.0), ("vbe", 1.0 / 12.0)):
    _, _, rep = evolve(pde, "sym", grid, tau, 500 * tau, PdeParams(nu=nu), exact=rarefaction)
    print(f"{pde:6s} L_inf after 500 steps {rep.linf:.2e}")

print()
print("== step-vs-transform commutation defects ==")
boost = invariantize_check("vbe", [0.0, 0.5, 1.0])
scaling = invariantize_check("ibe", [-0.3, 0.0, 0.4])
print(f"viscous step under Galilean boosts:  {boost:.2e}")
print(f"inviscid step under scalings:        {scaling:.2e}")
