"""Independent computations and properties the benchmark checks outputs against.

Every check returns a list of failures, each a ``(check, record, detail)``
triple; an empty list means the output passed.  Nothing here calls the
routine whose output it judges: spectra, harmonic dimensions and the
mollifier are recomputed from their definitions, and kernel values are
compared with the recurrence oracle ``specialfn.phi_series``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

import numpy as np

# kernel assembly must match the recurrence oracle to this share of the
# largest oracle value on the checked nodes
KERNEL_TOL = 1e-9
# float rounding allowed in norm inequalities that hold exactly
ROUND_TOL = 1e-9
# a refined sup may sit below the oracle's grid maximum only by the kernel's
# own deviation from the oracle, which KERNEL_TOL judges separately; the
# margin is far above the largest deviation measured (2e-7 on S^9)
SUP_FLOOR_TOL = 1e-6
BUMP_LO, BUMP_HI = 0.25, 4.0


def harmonic_dim(dim: int, n: int) -> int:
    """Dimension of degree-n harmonics on S^dim: C(n+dim, dim) - C(n+dim-2, dim)."""
    return comb(n + dim, dim) - comb(n + dim - 2, dim)


def _smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        a = np.where(u > 0.0, np.exp(-1.0 / u), 0.0)
        b = np.where(u < 1.0, np.exp(-1.0 / (1.0 - u)), 0.0)
    return a / (a + b)


def bump(x: np.ndarray) -> np.ndarray:
    """The default smooth cutoff: support [1/4, 4], plateau [1/2, 2]."""
    x = np.asarray(x, dtype=float)
    return _smoothstep((x - BUMP_LO) / BUMP_LO) * _smoothstep((BUMP_HI - x) / (BUMP_HI / 2))


def shell(dim: int, beta, N: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degrees n with bump(x_n) > 0, their eigenvalues m_n and cutoff values."""
    lam = (dim - 1) // 2
    bN2 = float(beta) * N * N
    n = np.arange(int(math.sqrt(BUMP_HI * bN2)) + 2)
    m = n * (n + 2 * lam)
    cut = bump(m / bN2)
    keep = cut > 0.0
    return n[keep], m[keep], cut[keep]


def dims_of(dim: int, n: np.ndarray) -> np.ndarray:
    return np.array([harmonic_dim(dim, int(k)) for k in n], dtype=float)


def spectral_l2(dim: int, beta, N: float) -> float:
    """Exact L^2 norm of a factor kernel: (sum bump(x_n)^2 d_n)^(1/2), any t."""
    n, _, cut = shell(dim, beta, N)
    return math.sqrt(float(np.sum(cut**2 * dims_of(dim, n))))


def sup_bound(dim: int, beta, N: float) -> float:
    """sum bump(x_n) d_n, the bound on |K| from |phi_n| <= 1."""
    n, _, cut = shell(dim, beta, N)
    return float(np.sum(cut * dims_of(dim, n)))


def oracle_kernel(dim: int, beta, N: float, t: float, theta: np.ndarray) -> np.ndarray:
    """Factor kernel by one recurrence sweep over the shell.

    Phases use the scans' float convention exp(-i t (m / beta)), so the
    comparison isolates kernel assembly from phase rounding.
    """
    from oddsphere.specialfn import phi_series

    n, m, cut = shell(dim, beta, N)
    weights = np.zeros(int(n[-1]) + 1, dtype=complex)
    weights[n] = cut * np.exp(-1j * t * (m / float(beta))) * dims_of(dim, n)
    return phi_series((dim - 1) // 2, weights, theta)


def pole_boxes(grid: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the grid nodes within radius of theta = 0 and of theta = pi."""
    near0 = np.minimum(grid, 2.0 * math.pi - grid) <= radius
    near1 = (np.abs(grid - math.pi) <= radius) & ~near0
    return near0, near1


def oracle_nodes(grid: np.ndarray, N: float, rng: np.random.Generator, extra: int = 32) -> np.ndarray:
    """Every node of the two radius-1/N corner boxes plus a seeded sample.

    The boxes are where the closed-sum assembly is worst conditioned, so
    they are always checked; the sample covers the rest of the circle.
    """
    near0, near1 = pole_boxes(grid, 1.0 / N)
    box = np.flatnonzero(near0 | near1)
    rest = np.flatnonzero(~(near0 | near1))
    pick = rng.choice(rest, size=min(extra, rest.size), replace=False)
    return grid[np.sort(np.concatenate([box, pick]))]


def kernel_deviation(kernel: np.ndarray, oracle: np.ndarray) -> float:
    """Largest |kernel - oracle| as a share of the largest |oracle|; inf for NaN."""
    dev = float(np.max(np.abs(kernel - oracle)) / np.max(np.abs(oracle)))
    return math.inf if math.isnan(dev) else dev


def kernel_oracle(record: str, dev: float) -> list:
    if not dev <= KERNEL_TOL:
        return [("kernel_oracle", record, f"deviation {dev:.3e} of max > {KERNEL_TOL:g}")]
    return []


def verdict(record: str, got: str, want: str = "pass") -> list:
    return [] if got == want else [("verdict", record, f"verdict {got!r}, want {want!r}")]


def at_least(check: str, record: str, value: float, floor: float) -> list:
    if not value >= floor * (1.0 - ROUND_TOL):
        return [(check, record, f"{value!r} is below {floor!r}")]
    return []


def sup_bracket(record: str, sup: float, grid_max: float, upper: float) -> list:
    """grid maximum of the oracle <= refined sup <= sum bump(x_n) d_n."""
    if not grid_max * (1.0 - SUP_FLOOR_TOL) <= sup <= upper * (1.0 + ROUND_TOL):
        return [("sup_bracket", record, f"sup {sup!r} outside [{grid_max!r}, {upper!r}]")]
    return []


def unit_norm(record: str, value: float) -> list:
    if not abs(value - 1.0) <= ROUND_TOL:
        return [("l2_conservation", record, f"p=2 norm {value!r} differs from 1")]
    return []


def circle_dist(x: Fraction) -> Fraction:
    frac = x - math.floor(x)
    return min(frac, 1 - frac)


def brute_classify(tau: Fraction, N: int):
    """Smallest q < N whose window |tau - a/q| < 1/(qN) holds tau, exactly.

    For each q only the nearest numerator can qualify, because windows of
    one denominator are disjoint; a non-reduced a/q is skipped, since its
    reduced form has a smaller q and a wider window and was tried first.
    Returns (a, q, distance), or None for a minor-arc time.
    """
    frac = tau - math.floor(tau)
    for q in range(1, N):
        a = round(frac * q)
        d = abs(frac - Fraction(a, q))
        if d * q * N < 1 and math.gcd(a % q, q) == 1:
            return a % q, q, d
    return None


def nearest_distance(tau: Fraction, N: int) -> Fraction:
    """Distance from tau to the nearest fraction with denominator q <= N."""
    frac = tau - math.floor(tau)
    return min(abs(frac - Fraction(round(frac * q), q)) for q in range(1, N + 1))


def classification(record: str, answer, tau: Fraction, N: int) -> list:
    """The program's arc for tau against the exact brute force.

    A minor answer must carry a reduced best approximant with q <= N at the
    least distance; any of several equally near fractions is accepted.
    """
    want = brute_classify(tau, N)
    if want is None:
        d = nearest_distance(tau, N)
        a, q = (0, 0) if answer.is_major else (answer.best_a, answer.best_q)
        if not (
            0 < q <= N
            and math.gcd(a, q) == 1
            and circle_dist(tau - Fraction(a, q)) == d
            and math.isclose(answer.distance, float(d), rel_tol=1e-9, abs_tol=1e-15)
        ):
            return [("arc_classify", record, f"got {answer}, want minor at distance {d}")]
        return []
    a, q, d = want
    if not answer.is_major or (answer.a, answer.q, answer.distance) != (a, q, d):
        return [("arc_classify", record, f"got {answer}, want major {a}/{q} at {d}")]
    return []


def totients(Q: int) -> list[int]:
    phi = list(range(Q + 1))
    for p in range(2, Q + 1):
        if phi[p] == p:
            for k in range(p, Q + 1, p):
                phi[k] -= phi[k] // p
    return phi


def arc_listing(record: str, payload: dict, N: int) -> list:
    """Arc count 1 + sum_{q=2..Q} phi(q), and half-width 1/(qN) for every arc."""
    Q = payload["Q"]
    failures = []
    want = 1 + sum(totients(Q)[2:])
    arcs = payload["arcs"]
    if len(arcs) != want:
        failures.append(("arc_count", record, f"{len(arcs)} arcs, want {want} for Q={Q}"))
    for arc in arcs:
        a, q = arc["a"], arc["q"]
        if Fraction(arc["halfwidth"]) != Fraction(1, q * N):
            failures.append(("arc_halfwidth", f"{record} {a}/{q}", f"half-width {arc['halfwidth']}"))
            break
    return failures
