"""Zonal spherical functions on odd spheres, two independent ways.

On S^{2*lam+1} the degree-n zonal spherical function is the normalized
ultraspherical (Gegenbauer) polynomial

    phi_n(theta) = C_n^{(lam)}(cos theta) / C_n^{(lam)}(1).

Every evaluation on the scan path (phi_series, phi_matrix) comes from one
sweep of the three-term recurrence in n, run in Reinsch's difference form
on y = 2 sin^2(theta/2) after folding theta into [0, pi/2], so it stays
accurate next to both poles.  The second route is the closed finite sum

    phi_n(theta) = sum_{nu=0}^{lam-1} 2 C_{n,nu}
                   cos((n - nu + lam) theta - (nu + lam) pi/2)
                   / (2 sin theta)^{nu + lam},

whose coefficients are the products

    C_{n,nu} = binom(nu+lam-1, nu) prod_{j=lam}^{2lam-1} j / (n+j)
               prod_{k=1}^{nu} (k-lam) / (n+lam-k)

of at most 2 lam - 1 factors, exact in cnv_exact and rounded per factor
in get_coeffs.  kernel.py weighs the nu-decomposition's numerator sums
(kernel_1d(..., nu=nu)) with them and evaluates those by transform or by
the lam = 1 sweep; as a pointwise route (phi_explicit) the closed sum is
the independent oracle the recurrence is checked against.  It degenerates at
the torus corners (sin theta -> 0), so the oracle keeps a guard band
there, and even outside the band it is ill-conditioned where 2 n sin(theta)
is small: the nu-terms grow like (2 sin theta)^{-(nu+lam)} and cancel down
to a value of modulus at most one.  The oracle therefore re-evaluates
cells whose largest term exceeds a condition limit with the same formula
in multiprecision, so it stays independent of the recurrence at full
accuracy.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, pi
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "CornerGuardError",
    "cnv_exact",
    "get_coeffs",
    "phi_explicit",
    "phi_series",
    "phi_matrix",
]

DEFAULT_GUARD = 1e-3

# float64 keeps ~1e-12 accuracy as long as no single nu-term exceeds this;
# larger terms cancel too deeply and the cell goes to multiprecision
COND_LIMIT = 1e3
_MP_DPS = 40


class CornerGuardError(ValueError):
    """Explicit-formula evaluation requested inside the corner guard band."""


def cnv_exact(lam: int, n: int, nu: int) -> Fraction:
    """Exact C_{n,nu}; the falling products carry nu factors each."""
    num = comb(n + lam - 1, n) * comb(nu + lam - 1, nu)
    val = Fraction(num, comb(n + 2 * lam - 1, n))
    for k in range(1, nu + 1):
        val *= Fraction(k - lam, n + lam - k)
    return val


def get_coeffs(lam: int, nmax: int) -> np.ndarray:
    """Float C_{n,nu} (row n = 0..nmax, column nu) by the product formula;
    at lam = 1 this is 1/(n+1), rounded once."""
    if lam < 1:
        raise ValueError(f"need lam >= 1, got {lam}")
    if nmax < 0:
        raise ValueError(f"need nmax >= 0, got {nmax}")
    n = np.arange(nmax + 1, dtype=float)
    prod = np.ones_like(n)
    for j in range(lam, 2 * lam):
        prod *= j / (n + j)
    out = np.empty((nmax + 1, lam))
    for nu in range(lam):
        if nu:
            prod *= (nu - lam) / (n + lam - nu)
        out[:, nu] = comb(nu + lam - 1, nu) * prod
    return out


def _sweep(lam: int, theta: np.ndarray, nmax: int) -> Iterator[np.ndarray]:
    """Yield phi_0..phi_nmax at the angles theta by one recurrence sweep.

    Each angle is folded with exact float steps: t = |theta| mod 2 pi,
    t = min(t, 2 pi - t), and t > pi/2 goes to pi - t with the sign (-1)^n
    (pi - t and 2 pi - t are exact by Sterbenz's lemma).  On y = 2 sin^2(t/2)
    the normalized recurrence runs in Reinsch's difference form

        p_0 = 1,  e_0 = 0,  p_k = p_{k-1} + e_k,
        e_k = [(k - 1) e_{k-1} - 2 (k + lam - 1) y p_{k-1}] / (k + 2 lam - 1),

    which never forms x = cos t, whose rounding next to the poles would
    cost about n^2 * 1e-16.  Every iterate stays in [-1, 1]; phi_n is exact
    at theta = 0 and pi.  Each yielded array is fresh and never written again.
    """
    if lam < 1:
        raise ValueError(f"need lam >= 1, got {lam}")
    t = np.abs(theta) % (2.0 * pi)
    t = np.minimum(t, 2.0 * pi - t)
    flip = t > pi / 2.0
    sign = np.where(flip, -1.0, 1.0)
    y = 2.0 * np.sin(0.5 * np.where(flip, pi - t, t)) ** 2
    p = np.ones_like(y)
    yield p
    e = np.zeros_like(y)
    for k in range(1, nmax + 1):
        # dividing the scalar factors, not the array, saves one array pass
        den = k + 2 * lam - 1
        e = (k - 1) / den * e - 2.0 * (k + lam - 1) / den * y * p
        p = p + e
        yield p * sign if k % 2 else p


def _explicit_cell_mp(lam: int, n: int, theta: float) -> float:
    """One ill-conditioned cell of the closed sum, in multiprecision."""
    import mpmath as mp

    with mp.workdps(_MP_DPS):
        th = mp.mpf(theta)
        two_sin = 2 * mp.sin(th)
        total = mp.mpf(0)
        for nu in range(lam):
            c = cnv_exact(lam, n, nu)
            c_mp = mp.mpf(c.numerator) / mp.mpf(c.denominator)
            phase = (n - nu + lam) * th - (nu + lam) * mp.pi / 2
            total += 2 * c_mp * mp.cos(phase) / two_sin ** (nu + lam)
        return float(total)


def phi_explicit(lam: int, n: int, theta):
    """Closed finite-sum oracle; raises CornerGuardError within the guard band.

    Cells whose largest nu-term magnitude exceeds COND_LIMIT are redone in
    multiprecision; everything else is plain float64.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    theta = np.asarray(theta, dtype=float)
    th = np.atleast_1d(theta)
    sin_t = np.sin(th)
    if np.any(np.abs(sin_t) < DEFAULT_GUARD):
        raise CornerGuardError(
            f"explicit route needs |sin theta| >= {DEFAULT_GUARD}; use the recurrence"
        )
    cnv = get_coeffs(lam, n)[n]
    acc = np.zeros(th.shape)
    worst = np.zeros(th.shape)
    for nu in range(lam):
        weight = cnv[nu] / (2.0 * sin_t) ** (nu + lam)
        acc += 2.0 * weight * np.cos((n - nu + lam) * th - (nu + lam) * pi / 2.0)
        np.maximum(worst, np.abs(weight), out=worst)
    for g in np.flatnonzero(worst > COND_LIMIT):
        acc[g] = _explicit_cell_mp(lam, n, float(th[g]))
    return acc if theta.ndim else float(acc[0])


def phi_series(lam: int, weights, theta, columns=None) -> np.ndarray:
    """sum_n weights[n] * phi_n(theta) in one recurrence sweep.

    One pass of the normalized recurrence over n = 0..len(weights)-1,
    accumulating on the fly; O(len(weights) * len(theta)) time, O(len(theta))
    memory.  Correct at every angle, so this is the corner-band workhorse.

    With columns, weights is a (modes x fields) array and angle i sums the
    column columns[i]: several weight sets share the sweep, and every
    angle's arithmetic is the one of its column alone.
    """
    weights = np.asarray(weights)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if columns is None:
        weights, columns = weights[:, None], np.zeros(theta.shape, dtype=int)
    acc = np.zeros(theta.shape, dtype=complex)
    live = weights.any(axis=1).tolist()  # degrees with a nonzero weight
    # zip stops on the weights first, so no weights means no sweep
    for w, alive, cur in zip(weights, live, _sweep(lam, theta, len(weights) - 1)):
        if alive:
            acc += w[columns] * cur
    return acc


def phi_matrix(lam: int, n_values: Sequence[int], theta) -> np.ndarray:
    """Rows phi_n(theta) for each n in n_values over a theta grid.

    Every row comes from one recurrence sweep up to max(n_values).
    """
    n_values = np.asarray(n_values, dtype=int)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    out = np.empty((n_values.size, theta.size))
    if n_values.size == 0:
        return out
    if n_values.min() < 0:
        raise ValueError(f"need degrees n >= 0, got {int(n_values.min())}")
    rows: dict[int, list[int]] = {}
    for i, n in enumerate(n_values.tolist()):
        rows.setdefault(n, []).append(i)
    for k, cur in enumerate(_sweep(lam, theta, int(n_values.max()))):
        for i in rows.get(k, ()):
            out[i] = cur  # row by row: a list index per degree is slower
    return out
