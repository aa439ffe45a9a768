"""Accuracy story of the compact derivative operators.

Shows polynomial exactness, the effect of the boundary closure, and the
fourth-order refinement of the interior error on a smooth function.
"""

import numpy as np

from symfd import BoundaryPolicy, Grid1D, Grid2D, d1, d2, fit_slope

one_sided = BoundaryPolicy.one_sided()

print("== polynomial exactness ==")
grid = Grid1D(-1.0, 0.2, 16)
cubic = 2.0 - grid.x + 0.5 * grid.x**2 + 0.25 * grid.x**3
err_dx = np.abs(d1(cubic, grid, bp=one_sided) - (-1.0 + grid.x + 0.75 * grid.x**2)).max()
err_dxx = np.abs(d2(cubic, grid, bp=one_sided) - (1.0 + 1.5 * grid.x)).max()
print(f"cubic, one-sided closure:   dx error {err_dx:.2e}   dxx error {err_dxx:.2e}")

quartic = grid.x**4
pinned = BoundaryPolicy.exact(4.0 * grid.x[0] ** 3, 4.0 * grid.x[-1] ** 3)
err_pin = np.abs(d1(quartic, grid, bp=pinned) - 4.0 * grid.x**3).max()
err_one = np.abs(d1(quartic, grid, bp=one_sided) - 4.0 * grid.x**3).max()
print(f"quartic dx, pinned ends:    {err_pin:.2e}  (interior row is exact)")
print(f"quartic dx, one-sided ends: {err_one:.2e}  (closure is third order)")

print()
print("== interior refinement slope on sin(x), [0, 2pi] ==")
rows = []
for n in (41, 81, 161):
    g = Grid1D(0.0, 2.0 * np.pi / (n - 1), n)
    core = slice(n // 3, (2 * n) // 3)
    du = d1(np.sin(g.x), g, bp=BoundaryPolicy.exact(np.cos(g.x[0]), np.cos(g.x[-1])))
    ddu = d2(np.sin(g.x), g, bp=one_sided)
    rows.append((g.h, np.abs((du - np.cos(g.x))[core]).max(),
                 np.abs((ddu + np.sin(g.x))[core]).max()))
    print(f"n={n:4d}  h={g.h:.4f}  dx err {rows[-1][1]:.3e}  dxx err {rows[-1][2]:.3e}")
hs = [r[0] for r in rows]
print(f"fitted orders: dx {fit_slope(hs, [r[1] for r in rows]):.2f}, "
      f"dxx {fit_slope(hs, [r[2] for r in rows]):.2f}")

print()
print("== 2D axis-wise application ==")
g2 = Grid2D(0.0, -0.5, 0.1, 0.125, 9, 7)
plane = g2.x[:, None] + 2.0 * g2.y[None, :]
gx = d1(plane, g2, 0, one_sided)
gy = d1(plane, g2, 1, one_sided)
print(f"u = x + 2y: max|du/dx - 1| = {np.abs(gx - 1.0).max():.2e}, "
      f"max|du/dy - 2| = {np.abs(gy - 2.0).max():.2e}")
