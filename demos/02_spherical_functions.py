"""The two routes to zonal spherical functions, and why both exist.

The recurrence route is uniformly stable and owns the corners; the closed
trigonometric sum exposes the oscillation structure the kernel estimates
need.  They agree to ~1e-10 wherever both apply, which is the package's
foundational cross-check.
"""

import numpy as np

from oddsphere import phi_explicit, phi_matrix
from oddsphere.specialfn import cnv_exact

print("Normalized ultraspherical values on the 7-sphere (lam = 3)\n")
theta = np.array([0.0, 0.3, np.pi / 2, 2.5, np.pi])
for n, vals in zip((0, 1, 4, 25), phi_matrix(3, (0, 1, 4, 25), theta)):
    print(f"  n={n:<3} phi_n(theta) = " + "  ".join(f"{v:+.6f}" for v in vals))

print("\nRoute agreement away from the corners (lam = 1..5, n = 150):")
grid = np.linspace(0.05, np.pi - 0.05, 400)
for lam in range(1, 6):
    dev = np.max(np.abs(phi_explicit(lam, 150, grid) - phi_matrix(lam, [150], grid)[0]))
    print(f"  lam={lam}: max |explicit - recurrence| = {dev:.2e}")

print("\nCorner identity phi_n(theta + pi) = (-1)^n phi_n(theta):")
for n, (shifted, base) in zip((3, 10, 41), phi_matrix(2, (3, 10, 41), [0.7 + np.pi, 0.7])):
    lhs, rhs = shifted, (-1) ** n * base
    print(f"  n={n:<3} lhs={lhs:+.12f} rhs={rhs:+.12f}")

print("\nEverything is bounded by phi_n(0) = 1 (unitarity):")
grid = np.linspace(0, 2 * np.pi, 2048, endpoint=False)
for lam in (1, 3, 5):
    worst = float(np.max(np.abs(phi_matrix(lam, (1, 7, 50, 300), grid))))
    print(f"  lam={lam}: sup over sampled n of |phi_n| = {worst:.12f}")

print("\nClosed-sum coefficients C_{n,nu} (exact rationals, lam = 2):")
for n in range(5):
    row = [cnv_exact(2, n, nu) for nu in range(2)]
    print(f"  n={n}: " + ", ".join(f"C_(n,{nu}) = {c}" for nu, c in enumerate(row)))
