"""Space-time norm growth of random frequency-shell data (under a second).

Random zonal states with unit L2 norm, frequency-localized at scale N, are
flowed over one period; the worst space-time L^p norm over trials is fitted
against N.  The scaling-sharp exponent for p above the threshold p0 is
d/2 - (d+2)/p; random data typically sits below it, and the scan verifies
the upper bound, not sharpness.
"""

from oddsphere import build_space, strichartz_zonal_scan
from oddsphere.space import format_rational

S3 = build_space([3], [1])
print(f"3-sphere thresholds: s = {format_rational(S3.s)}, p0 = {format_rational(S3.p0)}")

rep = strichartz_zonal_scan(
    S3, 8.0, (16, 32, 64, 128), trials=8, seed=11, time_samples=96
)
print(f"\np = 8 > p0 = 22/3: worst-trial norms over N:")
for N, ratio in rep.worst_per_N:
    print(f"  N = {N:>4}: norm / N^{rep.target_exponent:.3f} = {ratio:.4f}")
print(f"fitted ratio slope {rep.fitted_slope:+.3f} (budget {rep.tolerance}) -> {rep.verdict}")

low = strichartz_zonal_scan(
    S3, 4.0, (16, 32, 64), trials=4, seed=11, time_samples=96
)
print(f"\np = 4 < p0: the scan still runs but refuses a pass verdict:")
print(f"  verdict = {low.verdict}")
for w in low.warnings:
    print(f"  warning: {w}")
