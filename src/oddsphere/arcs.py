"""Farey fractions, major arcs, and one-dimensional denominator sums.

Time is measured on the unit circle t/T for the flow period T.  The major
arc attached to a reduced fraction a/q (with q < N) is the window

    { tau : || tau - a/q || < 1 / (q N) },

where ||.|| is distance to the nearest integer.  Classification of a time
returns the smallest-q arc containing it, or a minor-arc report carrying
the best rational approximant with denominator up to N.

The denominator sum

    S(tau, x, N) = sum_{|m| <= N} 1 / max(1/N, || m tau + x ||)

is the quantity controlling squared Weyl sums after differencing.  No scan
calls it; demos/04_major_arcs.py tabulates it at arc centres against q.

write_listing writes the major arcs of one N as the JSON file of
`oddsphere arcs`, the text of their MajorArc.to_json entries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .space import format_rational

__all__ = [
    "MajorArc",
    "MinorArcReport",
    "farey",
    "classify",
    "classify_fraction",
    "denominator_sum",
    "write_listing",
]

FAREY_BYTES = 2**31  # the most bytes a Farey table may peak at, by its bound
ARC_CHUNK = 2048  # listing entries per join: about 0.3 MB of text at N = 512


@dataclass(frozen=True)
class MajorArc:
    """Reduced fraction a/q with its window of half-width 1/(qN)."""

    a: int
    q: int
    N: float
    distance: Fraction | None = None

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
    distance: Fraction

    @property
    def is_major(self) -> bool:
        return False


def _farey_table(Q: int) -> tuple[np.ndarray, np.ndarray]:
    """All reduced fractions a/q with 0 <= a < q <= Q as two integer arrays
    (a, q), sorted by value.

    A boolean (Q + 1) x Q table marks a >= q and, for each prime p, the
    cells (q, a) p divides; the unmarked cells are the reduced fractions.
    A row's a = 0 cell is marked once a smaller prime divides q, so it
    sieves the primes.  One argsort of a/q is exact: distinct reduced
    fractions with q <= Q differ by at least 1/Q^2.

    The peak holds four 8-byte arrays of the F fractions (a, q, a/q and the
    sort order), and F = sum_{q <= Q} phi(q) <= 3 Q^2/pi^2 + Q (ln Q + 3/2)
    + 1/2 (Moebius inversion): 163.1 MB traced at Q = 4095, 164.4 MB by
    that bound.  A bound past FAREY_BYTES is a ValueError, raised
    before anything is allocated."""
    if Q < 1:
        raise ValueError(f"need Q >= 1, got {Q}")
    peak = 32 * (3 * Q * Q / math.pi**2 + Q * (math.log(Q) + 1.5) + 0.5)
    if peak > FAREY_BYTES:
        raise ValueError(f"the Farey table of Q = {Q} needs {peak:.3g} bytes > {FAREY_BYTES}")
    shared = np.less_equal.outer(np.arange(Q + 1), np.arange(Q))
    for p in range(2, Q + 1):
        if not shared[p, 0]:
            shared[p::p, ::p] = True
    q, a = np.divmod(np.flatnonzero(np.logical_not(shared, out=shared)), Q)
    del shared  # let the table go before the sort
    order = np.argsort(a / q)
    a = a[order]  # the unsorted a is let go before q is permuted
    return a, q[order]


def farey(Q: int) -> list[tuple[int, int]]:
    """All reduced fractions a/q with 0 <= a < q <= Q, sorted by value: the
    pairs of _farey_table(Q), the table the arcs listing writes from."""
    a, q = _farey_table(Q)
    return list(zip(a.tolist(), q.tolist()))


def write_listing(N: float, Q: int, path) -> int:
    """Write the listing of the major arcs a/q, q <= Q < N, at scale N to
    path and return their count: the text json.dump(indent=2, sort_keys=True)
    writes for their MajorArc.to_json entries (indent= forces the pure-Python
    encoder).  The table is built first, so a refused Q leaves no file.

    An entry's text is a segment set by a, led by the head all entries share,
    and a tail set by q, each formatted once per listing; a chunk of entries
    is two gathers into [seg, tail] slots and one join.  With N = n/m and
    g = gcd(m, q) the half-width 1/(qN) is (m/g) / ((q/g) n), in Python
    ints, exact where (q/g) n passes 2^63.
    """
    if not N > 1:
        raise ValueError(f"need N > 1, got {N}")
    if not Q < N:
        raise ValueError(f"arc denominators must stay below N: Q={Q}, N={N}")
    a, q = _farey_table(Q)
    n, m = Fraction(N).as_integer_ratio()
    head = f',\n    {{\n      "N": {json.dumps(N)},\n      "a": '
    seg = np.array([f'{head}{k},\n      "center": "{k}' for k in range(Q)], dtype=object)
    tail = np.array([
        f'/{k}",\n      "distance": null,\n      "halfwidth": "{m // g}/{k // g * n}",\n'
        f'      "q": {k}\n    }}'
        for k, g in ((k, math.gcd(m, k)) for k in range(Q + 1))
    ], dtype=object)
    rows = np.empty(2 * ARC_CHUNK, dtype=object)
    with open(path, "w") as fh:
        fh.write(f'{{\n  "N": {json.dumps(N)},\n  "Q": {Q},\n  "arcs": [\n')
        fh.write(seg[0][2:] + tail[1][2:])  # 0/1: centre "0", no "/1"
        for start in range(1, a.size, ARC_CHUNK):
            chunk = slice(start, start + ARC_CHUNK)
            stop = 2 * min(ARC_CHUNK, a.size - start)
            rows[:stop:2] = seg[a[chunk]]
            rows[1:stop:2] = tail[q[chunk]]
            fh.write("".join(rows[:stop].tolist()))
        fh.write('\n  ],\n  "schema": 1\n}\n')
    return a.size


def _exact(x, name: str) -> Fraction:
    """x as an exact Fraction (a float converts exactly); non-finite x is
    a ValueError naming the argument."""
    try:
        return Fraction(x)
    except (OverflowError, ValueError):
        raise ValueError(f"need a finite {name}, got {x!r}") from None


def classify_fraction(tau, N: float) -> MajorArc | MinorArcReport:
    """Classify a time already rescaled to the unit circle (tau = t/T).

    Returns the arc of the smallest q < N whose window holds tau.  The
    windows of one q are disjoint (half-width 1/(qN) < 1/(2q)), so only the
    nearest numerator a = round(tau q) can put tau inside one; a non-reduced
    a/q is skipped, since its reduced form has a smaller q and a wider
    window and was tried first.  The answer is the first hit of one sweep
    over q = 1, 2, ..., O(N) work per query, in integers only: tau is taken
    at its exact value (a float converts exactly), so every distance is a
    Fraction.  The same sweep, run on to q = floor(N), keeps the least
    distance for the minor report.

    With Q = ceil(N) - 1 the major arcs cover the circle (Dirichlet: every
    tau lies within 1/(qN) of some a/q with q < N), so a time is minor only
    on a window edge, for example a reduced c/N, float or Fraction alike.
    """
    if not (N > 1 and math.isfinite(N)):
        raise ValueError(f"need a finite N > 1, got {N}")
    # tau mod 1 = P/R and N = n/m: |P/R - a/q| < 1/(qN) iff |Pq - aR| n < R m
    P, R = (_exact(tau, "tau") % 1).as_integer_ratio()
    n, m = Fraction(N).as_integer_ratio()
    Q = math.ceil(N) - 1
    best_gap, best_q, best_a = R, 1, 0  # the least gap/q so far; every gap < R
    for q in range(1, math.floor(N) + 1):
        a = (2 * P * q + R) // (2 * R)
        gap = abs(P * q - a * R)
        if q <= Q and gap * n < R * m and math.gcd(a % q, q) == 1:
            return MajorArc(a % q, q, N, distance=Fraction(gap, R * q))
        if gap * best_q < best_gap * q:
            best_gap, best_q, best_a = gap, q, a % q
    # minor arc: the best approximant with q <= N, the first on ties
    g = math.gcd(best_a, best_q)
    return MinorArcReport(N, best_a // g, best_q // g, Fraction(best_gap, R * best_q))


def classify(t, T, N: float) -> MajorArc | MinorArcReport:
    """Classify an absolute time t given the flow period T, exactly."""
    return classify_fraction(_exact(t, "t") / _exact(T, "T"), N)


def denominator_sum(tT: float, x: float, N: float) -> float:
    """sum over |m| <= N of 1 / max(1/N, || m*tT + x ||)."""
    if not (N >= 2 and math.isfinite(N)):
        raise ValueError(f"need a finite N >= 2, got {N}")
    if not (math.isfinite(tT) and math.isfinite(x)):
        raise ValueError(f"need a finite tT and x, got tT={tT}, x={x}")
    m = np.arange(-math.floor(N), math.floor(N) + 1)
    v = m * float(tT) + float(x)
    dist = np.abs(v - np.round(v))
    return float(np.sum(1.0 / np.maximum(1.0 / N, dist)))
