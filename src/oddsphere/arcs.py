"""Farey fractions, major arcs, and one-dimensional denominator sums.

Time is measured on the unit circle t/T for the flow period T.  The major
arc attached to a reduced fraction a/q (with q < N) is the window

    { tau : || tau - a/q || < 1 / (q N) },

where ||.|| is distance to the nearest integer.  Classification of a time
returns the smallest-q arc containing it, or a minor-arc report carrying
the best rational approximant with denominator up to N.

The denominator sum

    S(tau, x, N) = sum_{|m| <= N} 1 / max(1/N, || m tau + x ||)

is the quantity controlling squared Weyl sums after differencing; scans fit
its growth at arc centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .space import format_rational

__all__ = [
    "MajorArc",
    "MinorArcReport",
    "farey",
    "classify",
    "classify_fraction",
    "denominator_sum",
]


@dataclass(frozen=True)
class MajorArc:
    """Reduced fraction a/q with its window of half-width 1/(qN)."""

    a: int
    q: int
    N: float
    distance: float | Fraction | None = None

    def __post_init__(self) -> None:
        if self.q < 1 or not (0 <= self.a < self.q or (self.a == 0 and self.q == 1)):
            raise ValueError(f"need 0 <= a < q, got {self.a}/{self.q}")
        if math.gcd(self.a, self.q) != 1:
            raise ValueError(f"{self.a}/{self.q} is not reduced")
        if not self.q < self.N:
            raise ValueError(f"major arcs need q < N, got q={self.q}, N={self.N}")

    @property
    def is_major(self) -> bool:
        return True

    @property
    def center(self) -> Fraction:
        return Fraction(self.a, self.q)

    @property
    def halfwidth(self) -> Fraction:
        return 1 / (self.q * Fraction(self.N))

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "q": self.q,
            "N": self.N,
            "center": format_rational(self.center),
            "halfwidth": format_rational(self.halfwidth),
            "distance": None if self.distance is None else float(self.distance),
        }


@dataclass(frozen=True)
class MinorArcReport:
    """No q < N window contains the time; carries its best approximant."""

    N: float
    best_a: int
    best_q: int
    distance: float

    @property
    def is_major(self) -> bool:
        return False

    def to_json(self) -> dict:
        return {
            "minor": True,
            "N": self.N,
            "best_a": self.best_a,
            "best_q": self.best_q,
            "distance": float(self.distance),
        }


def farey(Q: int) -> list[tuple[int, int]]:
    """All reduced fractions a/q with 0 <= a < q <= Q, sorted by value."""
    if Q < 1:
        raise ValueError(f"need Q >= 1, got {Q}")
    fractions = [(0, 1)]
    for q in range(2, Q + 1):
        for a in range(1, q):
            if math.gcd(a, q) == 1:
                fractions.append((a, q))
    fractions.sort(key=lambda aq: Fraction(aq[0], aq[1]))
    return fractions


@lru_cache(maxsize=32)
def _farey_arrays(Q: int) -> tuple[np.ndarray, np.ndarray]:
    pairs = farey(Q)
    a = np.array([p[0] for p in pairs], dtype=float)
    q = np.array([p[1] for p in pairs], dtype=float)
    return a, q


def _circle_dist(x):
    """Distance to the nearest integer; works for float and Fraction."""
    if isinstance(x, Fraction):
        frac = x - math.floor(x)
        return min(frac, 1 - frac)
    frac = x - math.floor(x)
    return min(frac, 1.0 - frac)


def classify_fraction(tau, N: float) -> MajorArc | MinorArcReport:
    """Classify a time already rescaled to the unit circle (tau = t/T).

    Picks the smallest q among all windows containing tau, ties broken by
    distance to center.  tau may be a float or an exact Fraction; the exact
    path keeps every comparison rational.

    With Q = ceil(N) - 1 the major arcs cover the circle (Dirichlet: every
    tau lies within 1/(qN) of some a/q with q < N), so a time is minor only
    on a window edge, for example a reduced c/N.  Only the exact path can
    decide such edge times: passed as floats, rounding puts many of them
    just inside a window (23 of the 32 reduced c/64 come out major at
    N = 64).
    """
    if not N > 1:
        raise ValueError(f"need N > 1, got {N}")
    Q = math.ceil(N) - 1
    if isinstance(tau, Fraction):
        best = None
        for a, q in farey(Q):
            if not q < N:
                continue
            d = _circle_dist(tau - Fraction(a, q))
            if d * q * Fraction(N) < 1:
                if best is None or (q, d) < (best[1], best[2]):
                    best = (a, q, d)
        if best is not None:
            return MajorArc(best[0], best[1], N, distance=best[2])
        frac = float(tau - math.floor(tau))
    else:
        frac = float(tau) % 1.0
        a_arr, q_arr = _farey_arrays(Q)
        d_arr = np.abs(frac - a_arr / q_arr)
        d_arr = np.minimum(d_arr, 1.0 - d_arr)
        hit = (d_arr * q_arr * N < 1.0) & (q_arr < N)
        if hit.any():
            # lexicographic (q, distance) minimum over the hits
            cand = np.flatnonzero(hit)
            qmin = q_arr[cand].min()
            cand = cand[q_arr[cand] == qmin]
            k = cand[np.argmin(d_arr[cand])]
            return MajorArc(int(a_arr[k]), int(q_arr[k]), N, distance=float(d_arr[k]))
    # minor arc: best Dirichlet approximant with q <= N by direct scan
    qs = np.arange(1, math.floor(N) + 1)
    a_near = np.round(frac * qs)
    d = np.abs(frac - a_near / qs)
    k = int(np.argmin(d))
    q_best = int(qs[k])
    a_best = int(a_near[k]) % q_best
    g = math.gcd(a_best, q_best)
    return MinorArcReport(N, a_best // g, q_best // g, float(d[k]))


def classify(t, T, N: float) -> MajorArc | MinorArcReport:
    """Classify an absolute time t given the flow period T."""
    if isinstance(t, Fraction) and isinstance(T, (int, Fraction)):
        tau = t / Fraction(T)
    else:
        tau = float(t) / float(T)
    return classify_fraction(tau, N)


def denominator_sum(tT: float, x: float, N: float) -> float:
    """sum over |m| <= N of 1 / max(1/N, || m*tT + x ||)."""
    if not N >= 2:
        raise ValueError(f"need N >= 2, got {N}")
    m = np.arange(-math.floor(N), math.floor(N) + 1)
    v = m * float(tT) + float(x)
    dist = np.abs(v - np.round(v))
    return float(np.sum(1.0 / np.maximum(1.0 / N, dist)))
