"""Major arcs on the time circle: enumeration, classification, coverage.

A time t is classified by the smallest-denominator window ||t/T - a/q|| <
1/(qN) with q < N.  By pigeonhole these windows cover almost everything;
genuinely minor times survive only on a thin boundary set.
"""

import math
from fractions import Fraction

from oddsphere import classify, denominator_sum, farey
from oddsphere.arcs import MajorArc, classify_fraction

N = 64
print(f"Farey fractions with q <= 5: {farey(5)}")
print(f"(count = sum of totients = {len(farey(5))})\n")

print(f"Arc geometry at N = {N}:")
for a, q in farey(4):
    arc = MajorArc(a, q, N)
    print(f"  {a}/{q}: center {arc.center}, half-width {arc.halfwidth}")

print(f"\nClassification of sample times (N = {N}, T = 1):")
samples = [1 / 3, 0.337, 0.5001, 0.7182818, math.pi % 1, (math.sqrt(5) - 1) / 2]
names = ["1/3", "0.337", "0.5001", "e-ish", "pi frac", "golden"]
for name, tau in zip(names, samples):
    res = classify(tau, 1.0, N)
    if res.is_major:
        print(f"  {name:>8}: major arc {res.a}/{res.q}, distance {float(res.distance):.2e}")
    else:
        print(f"  {name:>8}: minor; best approximant {res.best_a}/{res.best_q}")

print("\nEven the golden ratio (the worst-approximable number) is major at")
print("every large N: its continued-fraction denominators grow by ~1.618 <")
print("sqrt(5), so one always lands inside (N/sqrt(5), N).")

print("\nA genuine minor time sits on a window edge, such as tau = c/N with")
print("gcd(c, N) = 1.  Every time is classified at its exact value, so the")
print("float 1/N (exactly representable) lands on the edge just as the")
print("Fraction does:")
for kind, tau in (("Fraction", Fraction(1, N)), ("float", 1 / N)):
    res = classify_fraction(tau, N)
    print(f"  tau = 1/{N} as a {kind}: major = {res.is_major}; "
          f"best approximant {res.best_a}/{res.best_q} at distance {res.distance}")

print("\nDenominator sums S(a/q, 0, N) ~ 2 N^2 / q at arc centers:")
print(f"{'q':>4} {'N=64':>10} {'N=256':>10} {'N=1024':>12} {'S*q/N^2 at 1024':>16}")
for a, q in ((0, 1), (1, 2), (1, 3), (2, 5), (3, 8)):
    vals = [denominator_sum(a / q, 0.0, n) for n in (64, 256, 1024)]
    print(f"{q:>4} {vals[0]:>10.0f} {vals[1]:>10.0f} {vals[2]:>12.0f} "
          f"{vals[2] * q / 1024**2:>16.3f}")
