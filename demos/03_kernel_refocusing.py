"""Frequency-localized propagator kernels: refocusing at rational times.

At t/T = a/q the kernel concentrates on ~q spikes of height ~N^d/q^{d/2};
at generic within-arc offsets it disperses.  This is the phenomenon the
decay envelope N^{d-d/p} / [sqrt(q)(1 + N ||t/T - a/q||^{1/2})]^r encodes.
"""

import numpy as np

from oddsphere import Bump, TorusQuadrature, build_space, lp_norm
from oddsphere.kernel import kernel_product, spectral_l2_norm, write_field

sp = build_space([3], [1])
bump = Bump()
N = 64
T = sp.period_seconds
quad = TorusQuadrature.for_kernel(sp, N)

print(f"Kernel on {sp} at scale N = {N}; flow period T = 2*pi\n")
print(f"{'t/T':>10} {'sup |K|':>12} {'L2':>10} {'L4':>10}")
for label, tau in [("0 (focus)", 0.0), ("1/2", 0.5), ("1/3", 1 / 3),
                   ("1/5", 0.2), ("edge of 0-arc", 1 / (2 * N)), ("generic", 0.2346891)]:
    fld = kernel_product(sp, N, tau * T, quad, bump)
    sup = float(np.max(np.abs(fld.factor_values[0])))
    print(f"{label:>10} {sup:12.1f} {lp_norm(fld, 2):10.2f} {lp_norm(fld, 4):10.2f}")

print("\nThe L2 norm never moves (unitarity): spectral value "
      f"{spectral_l2_norm(1, 1, N, 0.0, bump):.2f}")

print("\nDecomposition: away from corners the kernel splits into lam pieces")
sp5 = build_space([5], [1])
from oddsphere.kernel import kernel_1d, kernel_nu

theta = np.array([1.0, 2.0])
t = 0.37 * T
whole = kernel_1d(2, 1, 32, t, theta, bump)
pieces = [kernel_nu(2, 1, 32, t, theta, bump, nu) for nu in range(2)]
print(f"  K          = {whole}")
print(f"  K^(0)+K^(1)= {pieces[0] + pieces[1]}")

out = "demo_kernel_focus"
fld = kernel_product(sp, N, 0.0, quad, bump)
write_field(fld, out + ".csv", out + ".json")
print(f"\nWrote the focused kernel samples to {out}.csv / {out}.json")
