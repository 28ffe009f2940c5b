"""Zonal spherical functions on odd spheres, two independent ways.

On S^{2*lam+1} the degree-n zonal spherical function is the normalized
ultraspherical (Gegenbauer) polynomial

    phi_n(theta) = C_n^{(lam)}(cos theta) / C_n^{(lam)}(1),

computed here by the stable three-term recurrence in n (the oracle route,
valid at every angle).  The second route is the closed finite sum

    phi_n(theta) = sum_{nu=0}^{lam-1} 2 C_{n,nu}
                   cos((n - nu + lam) theta - (nu + lam) pi/2)
                   / (2 sin theta)^{nu + lam},

whose coefficients

    C_{n,nu} = binom(n+2lam-1, n)^{-1} binom(n+lam-1, n) binom(nu+lam-1, nu)
               * (1-lam)(2-lam)...(nu-lam) / [(n+lam-1)(n+lam-2)...(n+lam-nu)]

are assembled in exact rational arithmetic and converted to float once.
The sum degenerates at the torus corners (sin theta -> 0), so callers keep
a guard band there and the recurrence owns the corners.

Even outside the guard band the closed sum is ill-conditioned where
2 n sin(theta) is small: the nu-terms grow like (2 sin theta)^{-(nu+lam)}
and cancel down to a value of modulus at most one.  Cells whose largest
term exceeds a condition limit are therefore re-evaluated with the same
formula in multiprecision, so the route stays independent of the
recurrence at full accuracy.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from math import comb, pi
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "CornerGuardError",
    "UltrasphericalCoeffs",
    "get_coeffs",
    "phi_recurrence",
    "phi_explicit",
    "phi",
    "phi_series",
    "phi_matrix",
    "coeffs_to_csv",
]

DEFAULT_GUARD = 1e-3

# float64 keeps ~1e-12 accuracy as long as no single nu-term exceeds this;
# larger terms cancel too deeply and the cell goes to multiprecision
COND_LIMIT = 1e3
_MP_DPS = 40


class CornerGuardError(ValueError):
    """Explicit-formula evaluation requested inside the corner guard band."""


def _cnv_exact(lam: int, n: int, nu: int) -> Fraction:
    """Exact C_{n,nu}; the falling products carry nu factors each."""
    num = comb(n + lam - 1, n) * comb(nu + lam - 1, nu)
    val = Fraction(num, comb(n + 2 * lam - 1, n))
    for k in range(1, nu + 1):
        val *= Fraction(k - lam, n + lam - k)
    return val


@dataclass(frozen=True)
class UltrasphericalCoeffs:
    """Coefficient tables for the explicit finite-sum route on S^{2*lam+1}.

    cnv[n, nu] is the exact C_{n,nu} rounded once to float.  cnv_exact keeps
    the rational values for audit dumps.
    """

    lam: int
    nmax: int
    cnv: np.ndarray
    cnv_exact: tuple[tuple[Fraction, ...], ...]


def _build_coeffs(lam: int, nmax: int) -> UltrasphericalCoeffs:
    if lam < 1:
        raise ValueError(f"need lam >= 1, got {lam}")
    if nmax < 0:
        raise ValueError(f"need nmax >= 0, got {nmax}")
    exact = tuple(
        tuple(_cnv_exact(lam, n, nu) for nu in range(lam)) for n in range(nmax + 1)
    )
    cnv = np.array([[float(c) for c in row] for row in exact])
    return UltrasphericalCoeffs(lam, nmax, cnv, exact)


_COEFF_CACHE: dict[int, UltrasphericalCoeffs] = {}


def get_coeffs(lam: int, nmax: int) -> UltrasphericalCoeffs:
    """Cached coefficient table, grown on demand."""
    cached = _COEFF_CACHE.get(lam)
    if cached is None or cached.nmax < nmax:
        # grow geometrically so repeated scans do not rebuild per call
        grow = max(nmax, 2 * cached.nmax if cached else 0, 64)
        cached = _build_coeffs(lam, grow)
        _COEFF_CACHE[lam] = cached
    return cached


def _sweep(lam: int, x: np.ndarray, nmax: int) -> Iterator[np.ndarray]:
    """Yield p_0..p_nmax at x = cos theta by the normalized recurrence

        p_0 = 1,  p_1 = x,
        p_k = [2 (k + lam - 1) x p_{k-1} - (k - 1) p_{k-2}] / (k + 2 lam - 1),

    so every iterate stays in [-1, 1].  Valid at all angles including the
    corners.  Each yielded array is fresh and never written again.
    """
    prev = np.ones_like(x)
    yield prev
    if nmax == 0:
        return
    cur = x.copy()
    yield cur
    for k in range(2, nmax + 1):
        prev, cur = cur, (2.0 * (k + lam - 1) * x * cur - (k - 1) * prev) / (
            k + 2 * lam - 1
        )
        yield cur


def phi_recurrence(lam: int, n: int, theta):
    """Oracle route: normalized Gegenbauer value by three-term recurrence."""
    if lam < 1:
        raise ValueError(f"need lam >= 1, got {lam}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    for cur in _sweep(lam, np.cos(np.asarray(theta, dtype=float)), n):
        pass
    return cur if cur.ndim else float(cur)


def _explicit_cell_mp(lam: int, n: int, theta: float, coeffs: UltrasphericalCoeffs) -> float:
    """One ill-conditioned cell of the closed sum, in multiprecision."""
    import mpmath as mp

    with mp.workdps(_MP_DPS):
        th = mp.mpf(theta)
        two_sin = 2 * mp.sin(th)
        total = mp.mpf(0)
        for nu in range(lam):
            c = coeffs.cnv_exact[n][nu]
            c_mp = mp.mpf(c.numerator) / mp.mpf(c.denominator)
            phase = (n - nu + lam) * th - (nu + lam) * mp.pi / 2
            total += 2 * c_mp * mp.cos(phase) / two_sin ** (nu + lam)
        return float(total)


def _explicit_block(
    lam: int,
    n_values: np.ndarray,
    theta: np.ndarray,
    coeffs: UltrasphericalCoeffs,
) -> np.ndarray:
    """Vectorized closed sum over an (n, theta) block with conditioned repair.

    Cells whose largest nu-term magnitude exceeds COND_LIMIT are redone in
    multiprecision; everything else is plain float64.
    """
    sin_t = np.sin(theta)
    acc = np.zeros((n_values.size, theta.size))
    worst = np.zeros_like(acc)
    for nu in range(lam):
        freq = (n_values[:, None] - nu + lam).astype(float)
        phase = freq * theta[None, :] - (nu + lam) * pi / 2.0
        weight = coeffs.cnv[n_values, nu][:, None] / (2.0 * sin_t[None, :]) ** (nu + lam)
        acc += 2.0 * weight * np.cos(phase)
        np.maximum(worst, np.abs(weight), out=worst)
    bad = np.argwhere(worst > COND_LIMIT)
    for i, g in bad:
        acc[i, g] = _explicit_cell_mp(lam, int(n_values[i]), float(theta[g]), coeffs)
    return acc


def phi_explicit(
    lam: int,
    n: int,
    theta,
    *,
    coeffs: UltrasphericalCoeffs | None = None,
    guard: float = DEFAULT_GUARD,
):
    """Closed finite-sum route; raises CornerGuardError within the guard band."""
    if lam < 1:
        raise ValueError(f"need lam >= 1, got {lam}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    theta = np.asarray(theta, dtype=float)
    sin_t = np.sin(theta)
    if np.any(np.abs(sin_t) < guard):
        raise CornerGuardError(
            f"explicit route needs |sin theta| >= {guard}; use the recurrence"
        )
    if coeffs is None or coeffs.nmax < n:
        coeffs = get_coeffs(lam, n)
    acc = _explicit_block(lam, np.array([n]), np.atleast_1d(theta), coeffs)[0]
    return acc if theta.ndim else float(acc[0])


def phi(
    lam: int,
    n: int,
    theta,
    *,
    coeffs: UltrasphericalCoeffs | None = None,
    guard: float = DEFAULT_GUARD,
):
    """Hybrid evaluation: recurrence inside the guard band, explicit outside."""
    theta = np.asarray(theta, dtype=float)
    scalar = theta.ndim == 0
    theta = np.atleast_1d(theta)
    out = np.empty(theta.shape)
    near = np.abs(np.sin(theta)) < guard
    if near.any():
        out[near] = phi_recurrence(lam, n, theta[near])
    far = ~near
    if far.any():
        out[far] = phi_explicit(lam, n, theta[far], coeffs=coeffs, guard=guard)
    return float(out[0]) if scalar else out


def phi_series(lam: int, weights: Sequence[complex], theta) -> np.ndarray:
    """sum_n weights[n] * phi_n(theta) in one recurrence sweep.

    One pass of the normalized recurrence over n = 0..len(weights)-1,
    accumulating on the fly; O(len(weights) * len(theta)) time, O(len(theta))
    memory.  Correct at every angle, so this is the corner-band workhorse.
    """
    weights = np.asarray(weights)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    acc = np.zeros(theta.shape, dtype=complex)
    # zip stops on the weights first, so no weights means no sweep
    for w, cur in zip(weights, _sweep(lam, np.cos(theta), len(weights) - 1)):
        if w != 0:
            acc += w * cur
    return acc


def phi_matrix(
    lam: int,
    n_values: Sequence[int],
    theta,
    *,
    coeffs: UltrasphericalCoeffs | None = None,
    guard: float = DEFAULT_GUARD,
) -> np.ndarray:
    """Rows phi_n(theta) for each n in n_values over a theta grid.

    Away from the corners each row comes from the explicit sum (vectorized
    over the full (n, theta) block); guard-band columns are filled by a
    single recurrence sweep shared across all rows.
    """
    n_values = np.asarray(n_values, dtype=int)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if n_values.size == 0:
        return np.zeros((0, theta.size))
    nmax = int(n_values.max())
    if coeffs is None or coeffs.nmax < nmax:
        coeffs = get_coeffs(lam, nmax)
    out = np.empty((n_values.size, theta.size))
    sin_t = np.sin(theta)
    near = np.abs(sin_t) < guard
    far = ~near
    if far.any():
        out[:, far] = _explicit_block(lam, n_values, theta[far], coeffs)
    if near.any():
        wanted = set(n_values.tolist())
        rows = {
            k: cur
            for k, cur in enumerate(_sweep(lam, np.cos(theta[near]), nmax))
            if k in wanted
        }
        for i, n in enumerate(n_values):
            out[i, near] = rows[int(n)]
    return out


def coeffs_to_csv(lam: int, nmax: int, path) -> None:
    """Audit dump of the exact coefficient table: lam,n,nu,C_num,C_den."""
    coeffs = get_coeffs(lam, nmax)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["lam", "n", "nu", "C_num", "C_den"])
        for n in range(nmax + 1):
            for nu in range(lam):
                c = coeffs.cnv_exact[n][nu]
                writer.writerow([lam, n, nu, c.numerator, c.denominator])
