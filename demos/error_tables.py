"""Benchmark error tables for the four model problems.

Each problem evolves exact initial data with Dirichlet boundary values drawn
from the reference solution, for every scheme that supports it. The runs use
the standard settings; the whole script takes a few seconds.
"""

import math

from symfd import PdeParams, evolve, grid_for

RUNS = [
    ("ibe", "inviscid Burgers, Gaussian hump", (-3.0, 3.0), 31, 1e-3, 0.5,
     PdeParams(sigma=0.5), ("ftcs", "comp", "sym")),
    ("ade1d", "1D advection-diffusion, drifting kernel", (-2.0, 4.0), 31, 1e-3, 1.0,
     PdeParams(alpha=1.0, nu=1.0 / 60.0, L=0.4), ("ftcs", "comp", "sym")),
    ("vbe", "viscous Burgers, merging fronts", (0.0, 2.0 * math.pi), 101, 1e-4, 0.25,
     PdeParams(nu=1.0 / 12.0), ("ftcs", "comp", "sym")),
    ("ade2d", "2D advection-diffusion, drifting plane kernel",
     (-1.92, 2.08, -1.92, 2.08), 26, 1e-4, 0.1,
     PdeParams(alpha=1.0, beta=1.0, nu=1.0 / 60.0, L=0.4),
     ("ftcs", "comp", "sym1", "sym2")),
]

for pde, title, domain, n, tau, t_final, params, schemes in RUNS:
    grid = grid_for(pde, domain, n)
    print(f"== {title} (n={n}, tau={tau:g}, t={t_final:g}) ==")
    print(f"{'scheme':8s} {'L_inf':>12s} {'RMSE':>12s} {'seconds':>8s}")
    for scheme in schemes:
        _, _, rep = evolve(pde, scheme, grid, tau, t_final, params)
        print(f"{scheme:8s} {rep.linf:12.4e} {rep.rmse:12.4e} {rep.wall_time:8.2f}")
    print()

print("note: the invariant schemes match or beat the compact baseline on")
print("every problem except the viscous front at tau=1e-4, where a")
print("tau-proportional front displacement dominates; at tau=1e-5 the")
print("invariant error drops to the compact level (DEVIATIONS.md, entry 11).")
