"""Farey/major-arc machinery against brute-force oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oddsphere.arcs import (
    MajorArc,
    MinorArcReport,
    classify,
    classify_fraction,
    denominator_sum,
    farey,
)
from oddsphere.verify import fit_loglog


def brute_force_farey(Q):
    out = set()
    for q in range(1, Q + 1):
        for a in range(0, q):
            if math.gcd(a, q) == 1:
                out.add((a, q))
    return sorted(out, key=lambda aq: Fraction(aq[0], aq[1]))


def euler_phi(q):
    return sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)


def test_farey_examples():
    assert farey(1) == [(0, 1)]
    assert farey(3) == [(0, 1), (1, 3), (1, 2), (2, 3)]


@pytest.mark.parametrize("Q", [1, 2, 5, 12, 40])
def test_farey_against_double_loop_oracle(Q):
    assert farey(Q) == brute_force_farey(Q)


def test_farey_count_is_totient_sum():
    # one fraction 0/1 for q = 1 plus phi(q) reduced a/q per q >= 2; on the
    # circle 0/1 and 1/1 coincide, so |farey(Q)| = sum_{q <= Q} phi(q)
    for Q in (1, 2, 3, 5, 10):
        assert len(farey(Q)) == sum(euler_phi(q) for q in range(1, Q + 1))
    assert len(farey(5)) == 10


def test_farey_rejects_bad_input():
    with pytest.raises(ValueError):
        farey(0)


def test_major_arc_geometry():
    arc = MajorArc(1, 3, 10)
    assert arc.center == Fraction(1, 3)
    assert arc.halfwidth == Fraction(1, 30)
    payload = arc.to_json()
    assert payload["center"] == "1/3" and payload["halfwidth"] == "1/30"
    with pytest.raises(ValueError):
        MajorArc(2, 4, 10)  # not reduced
    with pytest.raises(ValueError):
        MajorArc(3, 3, 10)  # a < q required
    with pytest.raises(ValueError):
        MajorArc(1, 12, 10)  # q < N required


def test_classify_center_and_near_center():
    hit = classify(1.0 / 3.0, 1.0, 10)
    assert hit.is_major and (hit.a, hit.q) == (1, 3)
    hit = classify(0.337, 1.0, 10)
    assert hit.is_major and (hit.a, hit.q) == (1, 3)
    assert abs(0.337 - 1 / 3) < hit.halfwidth


def test_classify_exact_fraction_path():
    hit = classify(Fraction(1, 3), Fraction(1), 10)
    assert (hit.a, hit.q) == (1, 3) and hit.distance == 0
    # offset exactly half the half-width stays inside
    tau = Fraction(1, 3) + Fraction(1, 2 * 3 * 64)
    hit = classify_fraction(tau, 64)
    assert (hit.a, hit.q) == (1, 3)


def test_exact_major_arcs_cover_the_circle_but_window_edges():
    N = 64
    # a reduced c/N is at least 1/(qN) from every a/q with q < N
    for c in range(N):
        if math.gcd(c, N) == 1:
            assert not classify_fraction(Fraction(c, N), N).is_major
    # every point strictly inside a window is major; 100 draws, since each
    # exact classification at N = 64 costs about 24 ms
    rng = np.random.default_rng(5)
    pairs = farey(N - 1)
    for _ in range(100):
        a, q = pairs[rng.integers(len(pairs))]
        f = Fraction(int(rng.integers(-999_999, 1_000_000)), 1_000_000)
        hit = classify_fraction(Fraction(a, q) + f / (q * N), N)
        assert hit.is_major and hit.q <= q


def test_classify_prefers_smallest_q():
    # tau very close to 0 sits inside many windows; 0/1 must win
    hit = classify_fraction(1e-4, 64)
    assert (hit.a, hit.q) == (0, 1)


def test_classify_agrees_with_exhaustive_membership():
    N = 64
    pairs = farey(N - 1)
    rng = np.random.default_rng(0)
    taus = np.concatenate([rng.uniform(0, 1, 400), [0.0, 0.5, 1 / 3, 0.25, 1.0 / 64.0]])
    for tau in taus:
        result = classify_fraction(float(tau), N)
        hits = []
        for a, q in pairs:
            d = abs(tau - a / q)
            d = min(d, 1 - d)
            if d * q * N < 1:
                hits.append((q, d, a))
        if result.is_major:
            assert hits, f"classified major but no window contains {tau}"
            q_best, d_best, a_best = min(hits)
            assert (result.a, result.q) == (a_best, q_best)
        else:
            assert not hits, f"classified minor but {hits[0]} contains {tau}"


def test_golden_ratio_lands_on_a_convergent_window():
    # the extreme worst-approximable time still has a continued-fraction
    # convergent with N/sqrt(5) < q < N, so an exhaustive scan finds it
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    result = classify_fraction(golden, 1000)
    assert result.is_major and (result.a, result.q) == (377, 610)
    assert result.distance * result.q * 1000 < 1


def test_classify_stability_under_shift_and_negation():
    rng = np.random.default_rng(1)
    T = 2 * math.pi * 3
    for tau in rng.uniform(0, 1, 50):
        t = tau * T
        base = classify(t, T, 64)
        shifted = classify(t + T, T, 64)
        negated = classify(-t, T, 64)
        assert base.is_major == shifted.is_major
        if base.is_major:
            assert (base.a, base.q) == (shifted.a, shifted.q)
            mirrored = (base.q - base.a) % base.q
            assert (negated.a, negated.q) == (mirrored, base.q)


def test_minor_report_carries_best_approximant():
    # almost every time is major (pigeonhole gives some q < N with
    # ||q tau|| < 1/N for irrational tau); tau = 1/N is a genuine minor:
    # every q < N puts it exactly on a window boundary, never inside.
    # The boundary is decided by exact arithmetic, so use the Fraction path.
    N = 64
    tau = Fraction(1, N)
    report = classify_fraction(tau, N)
    assert isinstance(report, MinorArcReport) and not report.is_major
    # best Dirichlet approximant with q <= N is tau itself
    assert (report.best_a, report.best_q) == (1, 64)
    assert report.distance == 0.0
    payload = report.to_json()
    assert payload["minor"] is True and payload["best_q"] == 64


def test_denominator_sum_examples():
    assert denominator_sum(0.0, 0.5, 10) == pytest.approx(42.0)
    assert denominator_sum(0.0, 0.0, 10) == pytest.approx(210.0)
    with pytest.raises(ValueError):
        denominator_sum(0.0, 0.0, 1)


def test_denominator_sum_bounds():
    rng = np.random.default_rng(3)
    for _ in range(100):
        tT, x = rng.uniform(0, 1, 2)
        N = float(rng.integers(2, 50))
        val = denominator_sum(tT, x, N)
        n_terms = 2 * math.floor(N) + 1
        assert n_terms <= val <= n_terms * N + 1e-9


def test_denominator_sum_normalized_slope_at_arc_centers():
    # S(a/q, 0, N) * q / N^2 grows at most like log N
    for a, q in ((0, 1), (1, 2), (1, 3), (2, 5), (3, 8)):
        pairs = []
        for N in (16, 32, 64, 128, 256, 512, 1024):
            pairs.append((N, denominator_sum(a / q, 0.0, N) * q / N**2))
        slope, _, _ = fit_loglog(pairs)
        assert slope <= 1.15, (a, q, slope)
