"""Farey/major-arc machinery against brute-force oracles."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from oddsphere.arcs import (
    FAREY_BYTES,
    MajorArc,
    MinorArcReport,
    _farey_table,
    classify,
    classify_fraction,
    denominator_sum,
    farey,
)
from oddsphere.space import format_rational
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


def walk_classify_exact(tau, N, pairs):
    """Reference: exact (q, distance)-minimum over every window holding tau.

    An exhaustive Fraction walk over all reduced a/q with q < N, the
    definition classify_fraction's nearest-numerator sweep must reproduce;
    returns (a, q, distance) or None for a minor-arc time.
    """
    N = Fraction(N)
    best = None
    for a, q in pairs:
        d = tau - Fraction(a, q)
        d -= math.floor(d)
        d = min(d, 1 - d)
        if d * q * N < 1 and (best is None or (q, d) < best[1:]):
            best = (a, q, d)
    return best


def farey_arrays(N):
    """Every reduced a/q with q < N as integer arrays, in no particular order."""
    a_parts, q_parts = [], []
    for q in range(1, math.ceil(N)):
        a = np.arange(q)
        a = a[np.gcd(a, q) == 1]
        a_parts.append(a)
        q_parts.append(np.full(a.size, q))
    return np.concatenate(a_parts), np.concatenate(q_parts)


def window_candidates(tau, N, a_arr, q_arr):
    """The a/q whose window might hold tau: a float prefilter with a margin
    of 1e-3 windows, far above rounding, for exact arithmetic to decide."""
    d = np.abs(float(tau) % 1.0 - a_arr / q_arr)
    d = np.minimum(d, 1.0 - d)
    keep = np.flatnonzero(d * q_arr * N < 1.001)
    return list(zip(a_arr[keep].tolist(), q_arr[keep].tolist()))


def nearest_distance(tau, N):
    """Exact distance from tau to the nearest a/q with q <= N."""
    frac = tau - math.floor(tau)
    return min(abs(frac - Fraction(round(frac * q), q)) for q in range(1, math.floor(N) + 1))


def as_triple(result):
    return (result.a, result.q, result.distance) if result.is_major else None


def test_farey_examples():
    assert farey(1) == [(0, 1)]
    assert farey(3) == [(0, 1), (1, 3), (1, 2), (2, 3)]


@pytest.mark.parametrize("Q", [1, 2, 3, 4, 5, 12, 40, 49, 64, 97, 200, 210])
def test_farey_against_double_loop_oracle(Q):
    assert farey(Q) == brute_force_farey(Q)


def test_farey_at_listing_size():
    # Q = 511 is the order `oddsphere arcs --n 512` lists
    Q = 511
    pairs = farey(Q)
    assert all(b * c - a * d == 1 for (a, b), (c, d) in zip(pairs, pairs[1:]))
    values = [Fraction(a, q) for a, q in pairs]
    assert all(x < y for x, y in zip(values, values[1:]))
    assert len(pairs) == 1 + sum(euler_phi(q) for q in range(2, Q + 1)) == 79_596


def test_farey_count_is_totient_sum():
    # one fraction 0/1 for q = 1 plus phi(q) reduced a/q per q >= 2; on the
    # circle 0/1 and 1/1 coincide, so |farey(Q)| = sum_{q <= Q} phi(q)
    for Q in (1, 2, 3, 5, 10):
        assert len(farey(Q)) == sum(euler_phi(q) for q in range(1, Q + 1))
    assert len(farey(5)) == 10


def test_farey_byte_bound_holds_the_traced_peak():
    # the guard's bound, 32 (3 Q^2/pi^2 + Q (ln Q + 3/2) + 1/2) bytes, against
    # the table's traced peak: above it, and by less than 3% at Q = 1023
    Q = 1023
    _farey_table(8)
    tracemalloc.start()
    try:
        _farey_table(Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 32 * (3 * Q * Q / math.pi**2 + Q * (math.log(Q) + 1.5) + 0.5)
    assert peak <= bound < 1.03 * peak


def test_farey_rejects_bad_input():
    with pytest.raises(ValueError):
        farey(0)
    # the table of N = 1e6 would peak near 9.7e12 bytes: refused before it is allocated
    with pytest.raises(ValueError, match=f"Q = 999999 needs 9.73e\\+12 bytes > {FAREY_BYTES}"):
        farey(999_999)
    with pytest.raises(ValueError, match=f"Q = 14841 needs 2.15e\\+09 bytes > {FAREY_BYTES}"):
        farey(14841)


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


@pytest.mark.parametrize("N", [64, 64.5, 100])
def test_major_arc_json_is_exact(N):
    for a, q in farey(40):
        payload = MajorArc(a, q, N).to_json()
        center, halfwidth = Fraction(a, q), 1 / (q * Fraction(N))
        assert Fraction(payload["center"]) == center
        assert Fraction(payload["halfwidth"]) == halfwidth
        assert payload["center"] == format_rational(center)
        assert payload["halfwidth"] == format_rational(halfwidth)


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
    # every point strictly inside a window is major
    rng = np.random.default_rng(5)
    pairs = farey(N - 1)
    for _ in range(1000):
        a, q = pairs[rng.integers(len(pairs))]
        f = Fraction(int(rng.integers(-999_999, 1_000_000)), 1_000_000)
        hit = classify_fraction(Fraction(a, q) + f / (q * N), N)
        assert hit.is_major and hit.q <= q


@pytest.mark.parametrize("N", [3, 5, 16, 64, 100.5])
def test_exact_classification_matches_the_fraction_walk(N):
    # times c/N (minor when reduced), times on both edges of and inside a
    # window a/q, the same shifted by whole turns, and arbitrary fractions
    pairs = brute_force_farey(math.ceil(N) - 1)
    rng = np.random.default_rng(11)
    edges = [Fraction(c) / Fraction(N) for c in range(math.ceil(N))]
    taus = [edges[k] for k in rng.choice(len(edges), size=min(len(edges), 12), replace=False)]
    for k in rng.choice(len(pairs), size=min(len(pairs), 6), replace=False):
        a, q = pairs[k]
        w = 1 / (q * Fraction(N))
        inside = Fraction(int(rng.integers(-999, 1000)), 1000) * w
        for turns in (0, int(rng.choice([-3, -1, 1, 2]))):
            taus += [Fraction(a, q) + turns + x for x in (w, -w, inside)]
    taus += [Fraction(int(rng.integers(-10**6, 10**6)), int(rng.integers(1, 10**6)))
             for _ in range(6)]
    for tau in taus:
        assert as_triple(classify_fraction(tau, N)) == walk_classify_exact(tau, N, pairs), tau


@pytest.mark.parametrize("N", [3, 5, 16, 64, 100.5, 1000])
def test_float_classification_matches_the_farey_walk(N):
    # float times c/N and a/q +- 1/(qN) land on either side of a window
    # edge by rounding; each is classified at its exact value, as the
    # Fraction it equals
    a_arr, q_arr = farey_arrays(N)
    rng = np.random.default_rng(12)
    edges = np.arange(math.ceil(N)) / N
    taus = list(rng.uniform(-3.0, 4.0, 60)) + list(rng.choice(edges, size=min(edges.size, 60)))
    for k in rng.choice(a_arr.size, size=min(a_arr.size, 40), replace=False):
        a, q = a_arr[k], q_arr[k]
        w = 1.0 / (q * N)
        taus += [a / q + w, a / q - w, a / q + rng.uniform(-1.0, 1.0) * w]
    for tau in map(float, taus):
        got = classify_fraction(tau, N)
        assert got == classify_fraction(Fraction(tau), N), tau
        pairs = window_candidates(tau, N, a_arr, q_arr)
        assert as_triple(got) == walk_classify_exact(Fraction(tau), N, pairs), tau


def test_float_window_edges_are_minor():
    # a reduced c/64 is exactly representable, so as a float it is the same
    # window edge as the Fraction c/64
    N = 64
    for c in range(N):
        if math.gcd(c, N) == 1:
            report = classify_fraction(c / N, N)
            assert not report.is_major, c
            assert (report.best_a, report.best_q, report.distance) == (c, N, 0)


@pytest.mark.parametrize("N", [16, 64, 100.5])
def test_minor_distance_is_the_exact_least_distance(N):
    # at an integer N the reduced c/N are the minor times among the c/N; at
    # N = 100.5 there are none, since Dirichlet gives every tau some
    # q <= 100 with ||q tau|| <= 1/101 < 1/N
    minors = 0
    for c in range(math.ceil(N)):
        tau = Fraction(c) / Fraction(N)
        report = classify_fraction(tau, N)
        if report.is_major:
            continue
        minors += 1
        best = Fraction(report.best_a, report.best_q)
        assert report.best_q <= N and math.gcd(report.best_a, report.best_q) == 1
        assert isinstance(report.distance, Fraction)
        assert report.distance == abs(tau - best) == nearest_distance(tau, N), c
    reduced = sum(math.gcd(c, N) == 1 for c in range(N)) if N == int(N) else 0
    assert minors == reduced


def test_classify_prefers_smallest_q():
    # tau very close to 0 sits inside many windows; 0/1 must win
    hit = classify_fraction(1e-4, 64)
    assert (hit.a, hit.q) == (0, 1)


def test_classify_agrees_with_exhaustive_membership():
    N = 64
    a_arr, q_arr = farey_arrays(N)
    rng = np.random.default_rng(0)
    taus = np.concatenate([rng.uniform(0, 1, 400), [0.0, 0.5, 1 / 3, 0.25, 1.0 / 64.0]])
    for tau in taus.tolist():
        result = classify_fraction(tau, N)
        # every window that holds tau, at tau's exact value
        hits = []
        for a, q in window_candidates(tau, N, a_arr, q_arr):
            d = abs(Fraction(tau) - Fraction(a, q))
            d = min(d, 1 - d)
            if d * q * N < 1:
                hits.append((q, d, a))
        if result.is_major:
            assert hits, f"classified major but no window contains {tau}"
            q_best, d_best, a_best = min(hits)
            assert (result.a, result.q, result.distance) == (a_best, q_best, d_best)
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
    N = 64
    tau = Fraction(1, N)
    report = classify_fraction(tau, N)
    assert isinstance(report, MinorArcReport) and not report.is_major
    # best Dirichlet approximant with q <= N is tau itself
    assert (report.best_a, report.best_q) == (1, 64)
    assert report.distance == 0


def test_denominator_sum_examples():
    assert denominator_sum(0.0, 0.5, 10) == pytest.approx(42.0)
    assert denominator_sum(0.0, 0.0, 10) == pytest.approx(210.0)
    with pytest.raises(ValueError):
        denominator_sum(0.0, 0.0, 1)


def test_arc_queries_reject_non_finite_input():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for N in (math.inf, -math.inf, math.nan, 1, 0.5):
            with pytest.raises(ValueError, match="N"):
                classify_fraction(0.3, N)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="tau"):
                classify_fraction(bad, 64)
            with pytest.raises(ValueError, match="finite t,"):
                classify(bad, 1.0, 64)
            with pytest.raises(ValueError, match="finite T,"):
                classify(0.3, bad, 64)
            with pytest.raises(ValueError, match="tT"):
                denominator_sum(bad, 0.0, 64)
            with pytest.raises(ValueError, match="x="):
                denominator_sum(0.3, bad, 64)
        for N in (math.inf, math.nan, 1):
            with pytest.raises(ValueError, match="N"):
                denominator_sum(0.3, 0.0, N)


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
        slope = fit_loglog(pairs)[0]
        assert slope <= 1.15, (a, q, slope)
