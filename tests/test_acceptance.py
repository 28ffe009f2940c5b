"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Each criterion re-measures its quantity from scratch at the stated
tolerance and asserts within its runtime budget.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines as they complete.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oddsphere import space
from oddsphere.arcs import classify_fraction, denominator_sum, farey
from oddsphere.kernel import (
    Bump,
    kernel_1d,
    kernel_direct_multi,
    kernel_nu,
    kernel_product,
    mode_weights,
    spectral_l2_norm,
)
from oddsphere.measure import FieldSample, Region, TorusQuadrature, lp_norm
from oddsphere.specialfn import phi_explicit, phi_matrix, phi_series
from oddsphere.verify import (
    corner_scan,
    decay_scan,
    fit_loglog,
    kappa_scan,
    strichartz_zonal_scan,
    threshold_check,
)

S3 = space.build_space([3], [1])
S5 = space.build_space([5], [1])
S3S3 = space.build_space([3, 3], [1, 1])
ARCS = ((0, 1), (1, 2), (1, 3), (2, 5))
N_LADDER = (16, 32, 64, 128, 256, 512)


def report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {status} {name}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num}: {name}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_special_function_oracles():
    t0 = time.perf_counter()
    theta = np.linspace(0.01, math.pi - 0.01, 191)
    worst = 0.0
    for lam in range(1, 6):
        for n, row in enumerate(phi_matrix(lam, np.arange(201), theta)):
            dev = np.max(np.abs(phi_explicit(lam, n, theta) - row))
            worst = max(worst, float(dev))
    closed_worst = 0.0
    for n in range(0, 101):
        closed = np.sin((n + 1) * theta) / ((n + 1) * np.sin(theta))
        dev = np.max(np.abs(phi_explicit(1, n, theta) - closed))
        closed_worst = max(closed_worst, float(dev))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and closed_worst <= 1e-12
    report(
        1,
        "special-function oracle equivalence",
        ok,
        f"explicit-vs-recurrence max dev {worst:.2e} (tol 1e-9), "
        f"3-sphere closed form max dev {closed_worst:.2e} (tol 1e-12)",
        elapsed,
        10.0,
    )


def test_criterion_02_structural_identities():
    t0 = time.perf_counter()
    bump = Bump()
    failures = []

    # nu-decomposition against the recurrence-route kernel
    decomp_worst = 0.0
    for lam in (1, 2, 3):
        for N in (16, 64):
            t = 0.37 * 2 * math.pi
            grid = np.linspace(0, 2 * math.pi, 257, endpoint=False)
            away = np.abs(np.sin(grid)) > 1e-3
            total = sum(kernel_nu(lam, 1, N, t, grid[away], bump, nu) for nu in range(lam))
            n, w = mode_weights(lam, 1, N, t, bump)
            wfull = np.zeros(int(n[-1]) + 1, dtype=complex)
            wfull[n] = w
            oracle = phi_series(lam, wfull, grid)
            rel = np.max(np.abs(total - oracle[away])) / np.max(np.abs(oracle))
            decomp_worst = max(decomp_worst, float(rel))
    if decomp_worst > 1e-8:
        failures.append(f"decomposition {decomp_worst:.2e} > 1e-8")

    # corner translation of the spherical functions
    corner_worst = 0.0
    theta = np.linspace(0.0, math.pi, 101)
    for lam in (1, 2, 3):
        degrees = (1, 2, 7, 33, 128, 200)
        shifted = phi_matrix(lam, degrees, theta + math.pi)
        for n, lhs, rhs in zip(degrees, shifted, phi_matrix(lam, degrees, theta)):
            dev = np.max(np.abs(lhs - (-1.0) ** n * rhs))
            corner_worst = max(corner_worst, float(dev))
    if corner_worst > 1e-10:
        failures.append(f"corner identity {corner_worst:.2e} > 1e-10")

    # time periodicity
    period_worst = 0.0
    grid = np.linspace(0, 2 * math.pi, 101, endpoint=False)
    for dims, betas in ([(3,), (1,)], [(5,), (Fraction(2, 3),)], [(7,), (1,)]):
        sp = space.build_space(dims, betas)
        f = sp.factors[0]
        k1 = kernel_1d(f.lam, f.beta, 32, 0.7, grid, bump)
        k2 = kernel_1d(f.lam, f.beta, 32, 0.7 + sp.period_seconds, grid, bump)
        rel = np.max(np.abs(k1 - k2)) / np.max(np.abs(k1))
        period_worst = max(period_worst, float(rel))
    if period_worst > 1e-10:
        failures.append(f"periodicity {period_worst:.2e} > 1e-10")

    # product kernel against the brute-force lattice sum (product mollifier)
    rng = np.random.default_rng(2024)
    prod_worst = 0.0
    t = 0.29 * S3S3.period_seconds
    fld = kernel_product(S3S3, 16, t, TorusQuadrature.for_kernel(S3S3, 16), bump)
    for _ in range(5):
        point = rng.uniform(0, 2 * math.pi, 2)
        via_prod = fld.evaluate_factor(0, point[0]) * fld.evaluate_factor(1, point[1])
        via_direct = kernel_direct_multi(S3S3, 16, t, point, bump, radial=False)
        prod_worst = max(prod_worst, abs(via_prod - via_direct) / abs(via_direct))
    if prod_worst > 1e-9:
        failures.append(f"product-vs-direct {prod_worst:.2e} > 1e-9")

    elapsed = time.perf_counter() - t0
    report(
        2,
        "structural identities",
        not failures,
        "; ".join(failures)
        or f"decomposition {decomp_worst:.1e}, corner {corner_worst:.1e}, "
        f"period {period_worst:.1e}, product {prod_worst:.1e}",
        elapsed,
        60.0,
    )


def test_criterion_03_parseval():
    t0 = time.perf_counter()
    bump = Bump()
    rng = np.random.default_rng(99)
    worst = 0.0
    for N in (32, 128):
        quad = TorusQuadrature.for_kernel(S3, N)
        oracle = spectral_l2_norm(1, 1, N, 0.0, bump)
        for t in rng.uniform(0, S3.period_seconds, 10):
            fld = kernel_product(S3, N, t, quad, bump)
            rel = abs(lp_norm(fld, 2) - oracle) / oracle
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report(
        3,
        "Parseval cross-check",
        worst <= 1e-6,
        f"max relative deviation {worst:.2e} (tol 1e-6)",
        elapsed,
        30.0,
    )


def test_criterion_04_kernel_decay_exponent():
    t0 = time.perf_counter()
    rep3 = decay_scan(S3, 4.0, N_LADDER, ARCS, tolerance=0.30)
    rep33 = decay_scan(S3S3, 4.0, N_LADDER, ARCS, tolerance=0.35)
    elapsed = time.perf_counter() - t0
    ok = rep3.passed and rep33.passed
    report(
        4,
        "arc-decay exponent (L^4)",
        ok,
        f"3-sphere slope {rep3.fitted_slope:+.3f} (budget 0.30, raw target 2.25); "
        f"3x3 product slope {rep33.fitted_slope:+.3f} (budget 0.35, raw target 4.5)",
        elapsed,
        600.0,
    )


def test_criterion_05_corner_estimate_all_p():
    t0 = time.perf_counter()
    slopes = {}
    ok = True
    for p in (0.5, 2.0, 4.0):
        rep = corner_scan(S3, p, N_LADDER, ARCS, tolerance=0.30)
        slopes[p] = rep.fitted_slope
        ok = ok and rep.passed
    elapsed = time.perf_counter() - t0
    report(
        5,
        "corner-region estimate incl. p < 1",
        ok,
        "slopes " + ", ".join(f"p={p}: {s:+.3f}" for p, s in slopes.items()) + " (budget 0.30)",
        elapsed,
        300.0,
    )


def test_criterion_06_kappa_sup_bounds():
    t0 = time.perf_counter()
    slopes = {}
    ok = True
    for nu in (0, 1):
        rep = kappa_scan(S5, nu, N_LADDER, ARCS, tolerance=0.30)
        slopes[nu] = rep.fitted_slope
        ok = ok and rep.passed
        assert rep.target_exponent == 2.0 + (1 - nu) - 1 + 1  # lam - nu + 1 with lam = 2
    elapsed = time.perf_counter() - t0
    report(
        6,
        "numerator-sum sup bounds on the 5-sphere",
        ok,
        "slopes " + ", ".join(f"nu={nu}: {s:+.3f}" for nu, s in slopes.items()) + " (budget 0.30)",
        elapsed,
        300.0,
    )


def test_criterion_07_integrability_threshold_is_active():
    t0 = time.perf_counter()
    ladder = N_LADDER + (1024,)
    at_floor = threshold_check(S3, 3.0, ladder, ARCS, tolerance=0.30)
    below = threshold_check(S3, 2.1, ladder, ARCS, tolerance=0.30)
    elapsed = time.perf_counter() - t0
    ok = at_floor.passed and below.fitted_slope > 0.30
    report(
        7,
        "away-region threshold p = 2d/(d-1)",
        ok,
        f"at floor p=3: slope {at_floor.fitted_slope:+.3f} (passes budget 0.30); "
        f"below floor p=2.1: slope {below.fitted_slope:+.3f} exceeds the budget",
        elapsed,
        300.0,
    )


def test_criterion_08_spacetime_scaling_random_data():
    t0 = time.perf_counter()
    rep = strichartz_zonal_scan(S3, 8.0, N_LADDER, trials=20, seed=1234)
    elapsed = time.perf_counter() - t0
    target = 3 / 2 - 5 / 8
    assert rep.target_exponent == pytest.approx(target)
    report(
        8,
        "space-time norm growth of random shell data (p=8)",
        rep.passed,
        f"worst-trial ratio slope {rep.fitted_slope:+.3f} <= budget 0.30 "
        f"over target {target:.3f}",
        elapsed,
        600.0,
    )


def test_criterion_09_arc_machinery():
    t0 = time.perf_counter()
    N = 64
    pairs = farey(N - 1)
    a_arr = np.array([p[0] for p in pairs], dtype=float)
    q_arr = np.array([p[1] for p in pairs], dtype=float)
    rng = np.random.default_rng(7)
    taus = rng.uniform(0.0, 1.0, 10_000)
    mismatches = 0
    for tau in taus:
        got = classify_fraction(float(tau), N)
        d = np.abs(tau - a_arr / q_arr)
        d = np.minimum(d, 1.0 - d)
        hit = d * q_arr * N < 1.0
        if got.is_major:
            if not hit.any():
                mismatches += 1
                continue
            cand = np.flatnonzero(hit)
            qmin = q_arr[cand].min()
            cand = cand[q_arr[cand] == qmin]
            k = cand[np.argmin(d[cand])]
            if (got.a, got.q) != (int(a_arr[k]), int(q_arr[k])):
                mismatches += 1
        elif hit.any():
            mismatches += 1

    slopes = {}
    for a, q in ((0, 1), (1, 2), (1, 3), (2, 5), (3, 8)):
        points = [
            (n, denominator_sum(a / q, 0.0, n)) for n in (16, 32, 64, 128, 256, 512, 1024)
        ]
        slopes[(a, q)] = fit_loglog(points)[0]
    worst_slope = max(slopes.values())
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and worst_slope <= 2.2
    report(
        9,
        "arc classification and denominator sums",
        ok,
        f"{mismatches}/10000 classification mismatches; "
        f"worst denominator-sum slope {worst_slope:.3f} (tol 2.2)",
        elapsed,
        120.0,
    )


def test_criterion_10_corner_volume_scaling():
    t0 = time.perf_counter()
    slopes = {}
    ok = True
    for sp, d in ((S3, 3), (S5, 5)):
        points = []
        for N in N_LADDER:
            # the probability measure of the box: the L^1 norm of the constant
            # 1 on 2 ceil(16 N) nodes, so the box holds as many nodes at every N
            quad = TorusQuadrature(sp, (2 * math.ceil(16 * N),))
            ones = FieldSample(sp, quad, (np.ones(quad.sizes[0] // 2 + 1),))
            points.append((N, lp_norm(ones, 1.0, Region.corner(0, 1.0 / N))))
        slope = fit_loglog(points)[0]
        slopes[d] = slope
        ok = ok and abs(slope + d) < 0.05
    elapsed = time.perf_counter() - t0
    report(
        10,
        "corner-region volume scaling",
        ok,
        "slopes " + ", ".join(f"d={d}: {s:+.4f}" for d, s in slopes.items()) + " (target -d +/- 0.05)",
        elapsed,
        60.0,
    )
