"""Tour of the exact layer: spaces, eigenvalues, harmonic dimensions, periods.

Everything in this demo is integer or rational arithmetic; nothing is
floating point until a kernel gets sampled.
"""

from fractions import Fraction

from oddsphere import build_space, eigenvalue, harmonic_dim
from oddsphere.space import format_rational

print("=" * 70)
print("Products of odd spheres with rational metric coefficients")
print("=" * 70)

examples = [
    ([3], [Fraction(1)]),
    ([5], [Fraction(1)]),
    ([3, 3], [Fraction(1), Fraction(2, 3)]),
    ([3, 5], [Fraction(1), Fraction(1)]),
    ([3, 3, 7], [Fraction(1), Fraction(1, 2), Fraction(3, 4)]),
]

for dims, betas in examples:
    sp = build_space(dims, betas)
    print(f"\n{sp}")
    print(f"  dimension d = {sp.d}, rank r = {sp.r}")
    print(f"  integrability floor   s  = {format_rational(sp.s)}")
    print(f"  space-time threshold  p0 = {format_rational(sp.p0)}")
    print(f"  flow period T = 2*pi * {format_rational(sp.period)}")

print("\n" + "=" * 70)
print("Spectrum on S^3 x S^3 with betas (1, 2/3): exact eigenvalues")
print("=" * 70)
sp = build_space([3, 3], [Fraction(1), Fraction(2, 3)])
print(f"{'(n1, n2)':>10} {'eigenvalue':>12} {'joint dim':>10}")
for n1 in range(3):
    for n2 in range(3):
        mu = eigenvalue(sp, (n1, n2))
        dim = harmonic_dim(3, n1) * harmonic_dim(3, n2)
        print(f"{str((n1, n2)):>10} {format_rational(mu):>12} {dim:>10}")

print("\nHarmonic dimension growth (degree d-1 polynomial in n):")
for d in (3, 5, 7):
    row = [harmonic_dim(d, n) for n in range(8)]
    print(f"  S^{d}: {row}")

print("\nPeriodicity sanity: T * (eigenvalue gap) is an even multiple of pi:")
T = sp.period
for pair in [((1, 0), (0, 2)), ((4, 1), (2, 3))]:
    gap = eigenvalue(sp, pair[0]) - eigenvalue(sp, pair[1])
    print(f"  T*({format_rational(gap)}) / (2*pi) = {format_rational(T * gap)}")
