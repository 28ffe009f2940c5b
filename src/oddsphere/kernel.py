"""Mollified Schrodinger kernels and their trigonometric decomposition.

The frequency-localized propagator kernel on one odd sphere S^{2*lam+1}
with metric coefficient beta, restricted to a maximal torus angle theta, is

    K_N(t, theta) = sum_n bump(x_n) exp(-i t m_n / beta) d_n phi_n(theta),

with m_n = n (n + 2 lam) = (n + lam)^2 - lam^2, x_n = m_n / (beta N^2),
d_n the harmonic-space dimension, and phi_n the zonal spherical function.
Substituting the closed finite-sum form of phi_n splits the kernel into
lam pieces

    K_N = sum_{nu=0}^{lam-1} K_N^{(nu)},
    K_N^{(nu)} = 2 (2 sin theta)^{-(nu+lam)} kappa_N^{(nu)},
    kappa_N^{(nu)}(t, theta) = sum_n bump(x_n) exp(-i t m_n / beta) d_n C_{n,nu}
                               cos((n - nu + lam) theta - (nu + lam) pi / 2),

each kappa a pure trigonometric sum with polynomially-varying weights.  On a
product of spheres the kernel with a per-factor mollifier is the pointwise
product of the factor kernels; the literal joint-frequency (radial) mollifier
is kept as a brute-force diagnostic.

Each factor kernel depends on cos theta alone, so it is even in theta.
kernel_product returns a KernelField, which sums the cosine expansion
sum_f F_f cos(f theta) on the half grid theta_k = 2 pi k / M, k = 0..M/2, of
a measure.TorusQuadrature by one pair of real inverse transforms, over the
real and the imaginary parts of F, when a norm first reads its grid values;
a pole-box sup never does.  The coefficients come from the Fourier series
of the Gegenbauer polynomials (Szego, Orthogonal Polynomials, 4.9), in
which each phi_n is a cosine sum with positive coefficients adding up to
one, so no cancellation is amplified.  The coefficients take O(lam n_max) steps:
Vandermonde's identity splits each product of Fourier coefficients into lam
polynomial terms, whose sums against the weights are repeated tail sums
along the parity chains f, f + 2, f + 4, ... of the frequencies, and only
the small f-independent integers that combine them carry signs.  So at
every node, corners included, the absolute error is of the order of
eps * sum_n |w_n| for the mode weights w_n, and the sum costs
O(lam n_max + M log M).  At bare angles (kernel_1d, and
KernelField.evaluate_factor) the kernel always comes from the recurrence
sweep phi_series, at O(#modes * #angles).

A field sums what its factors' spectra say: each _spectrum, cached per
factor, scale, cutoff and nu, holds the mode data and which sum it weighs,
the kernel (nu None) or kappa^(nu), whose weights are d_n C_{n,nu} in place
of d_n.  A kappa field (kernel_product with nu) sums its grid by the same
transform pair and sweeps bare angles (kernel_1d(..., nu=nu)) at lam = 1,
whose U_k = (k + 1) phi_k^(1) give cos(f theta) and sin(f theta).  A sup
proxy asks for a few angles per field at a time, so evaluate_factor also
takes one time per angle: the angles of every field with the same spectra
then share one sweep, with one weight column per distinct time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cache, cached_property, reduce
from typing import NamedTuple, Sequence

import numpy as np

from .measure import TorusQuadrature
from .space import SHELL_WINDOW, ProductSpace, format_rational, harmonic_dim, top_degree
from .specialfn import (
    DEFAULT_GUARD,
    CornerGuardError,
    get_coeffs,
    phi_matrix,
    phi_series,
)

__all__ = [
    "Bump",
    "KernelField",
    "kernel_1d",
    "kernel_nu",
    "kernel_product",
    "kernel_direct_multi",
    "spectral_l2_norm",
    "write_field",
]

ENUMERATION_GUARD = 10**8


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """C-infinity monotone 0 -> 1 transition on [0, 1] built from exp(-1/u)."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    tiny = np.finfo(float).tiny
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(u > 0.0, np.exp(-1.0 / np.maximum(u, tiny)), 0.0)
        b = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u, tiny)), 0.0)
    return a / (a + b)


@dataclass(frozen=True)
class Bump:
    """Frequency cutoff in the normalized variable x = -eigenvalue / N^2.

    smooth: C-infinity, supported on the fixed dyadic window [lo, hi] =
            space.SHELL_WINDOW = [1/4, 4], identically 1 on [2*lo, hi/2].
    sharp:  indicator of [lo, hi], for oracle comparisons.
    Both vanish past space.top_degree, so no grid size depends on the kind.
    """

    kind: str = "smooth"
    lo, hi = SHELL_WINDOW

    def __post_init__(self) -> None:
        if self.kind not in ("smooth", "sharp"):
            raise ValueError(f"bump kind must be 'smooth' or 'sharp', got {self.kind!r}")

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "sharp":
            return ((x >= self.lo) & (x <= self.hi)).astype(float)
        up = _smoothstep((x - self.lo) / self.lo)
        down = _smoothstep((self.hi - x) / (self.hi / 2.0))
        return up * down


class _Spectrum(NamedTuple):
    """The time-free part of a factor's mode weights: the one float copy of
    its spectral integers, each rounded once from the exact value, and the
    sum they weigh: the kernel (nu None) or kappa^(nu)."""

    n: np.ndarray  # degrees inside the cutoff's support
    cut: np.ndarray  # bump(x_n)
    mu: np.ndarray  # m_n / beta
    dims: np.ndarray  # d_n, the harmonic-space dimensions; d_n C_{n,nu} for kappa^(nu)
    c1: np.ndarray  # C_n^lam(1) = binom(n + 2 lam - 1, n)
    nu: int | None

    def weights(self, t: float) -> np.ndarray:
        return self.cut * np.exp(-1j * t * self.mu) * self.dims


@cache
def _spectrum(lam: int, beta, N: float, bump: Bump, nu: int | None = None) -> _Spectrum:
    """One read-only _Spectrum per factor, scale, cutoff and nu: it has no
    time in it.  With nu, the kernel's spectrum with d_n C_{n,nu} in place
    of d_n: the mode weights of the numerator sum kappa^(nu).  A shell
    that keeps no degree is a ValueError, so no field is all zeros."""
    if nu is not None:
        if not 0 <= nu <= lam - 1:
            raise ValueError(f"need 0 <= nu <= lam-1 = {lam - 1}, got {nu}")
        spec = _spectrum(lam, beta, N, bump, None)
        dims = spec.dims * get_coeffs(lam, int(spec.n.max()))[spec.n, nu]
        dims.setflags(write=False)
        return spec._replace(dims=dims, nu=nu)
    beta_f = float(beta)
    bN2 = beta_f * N * N
    n = np.arange(0, top_degree(lam, beta, N) + 1)
    m = n * (n + 2 * lam)
    cut = bump(m / bN2)
    keep = cut > 0.0
    if not keep.any():
        shell = f"the shell of S^{2 * lam + 1} with beta = {format_rational(beta)}"
        raise ValueError(f"N = {N:g}: {shell} holds no degree")
    n, m, cut = n[keep], m[keep], cut[keep]
    # d_n = C_n^lam(1) (n + lam) / lam: both from one exact integer
    c1, dims = np.empty(n.size), np.empty(n.size)
    for i, k in enumerate(n.tolist()):
        c = math.comb(k + 2 * lam - 1, k)
        c1[i], dims[i] = c, c * (k + lam) // lam
    arrays = (n, cut, m / beta_f, dims, c1)
    for arr in arrays:
        arr.setflags(write=False)
    return _Spectrum(*arrays, None)


def mode_weights(
    lam: int, beta, N: float, t: float, bump: Bump
) -> tuple[np.ndarray, np.ndarray]:
    """Degrees n inside the bump support and their complex mode weights.

    Returns (n, w) with w_n = bump(x_n) exp(-i t m_n / beta) d_n; degrees
    with an exactly vanishing cutoff are dropped, everything else kept.
    """
    spec = _spectrum(lam, beta, N, bump, None)
    return spec.n, spec.weights(t)


# exp(i psi) for psi = q pi / 2, exact
_QUARTER_TURNS = (1.0, 1j, -1.0, -1j)


def _cos_sum_grid(weights: np.ndarray, freq: np.ndarray, q: int, M: int) -> np.ndarray:
    """sum_k weights[k] cos(freq[k] theta - q pi / 2) at theta = 2 pi j / M, j = 0..M/2.

    At these nodes a frequency f acts as m = f mod M, and m > M/2 acts as
    M - m with the phase q pi / 2 negated, so every frequency folds onto
    0..M/2 and an under-resolved grid still holds the exact node values.
    The real and imaginary parts of the weights then take one real inverse
    transform each, so real weights give an exactly real sum.
    """
    H = M // 2
    m = freq % M
    up = m > H
    # exp(-i psi) on the kept frequencies, exp(+i psi) = (-1)^q exp(-i psi) on the folded
    sign = np.where(up, (-1.0) ** q, 1.0)
    fold = np.where(up, M - m, m)
    coef = np.stack([np.bincount(fold, part * sign, H + 1) for part in (weights.real, weights.imag)])
    coef = coef * np.conj(_QUARTER_TURNS[q % 4])
    coef[:, 1:H] *= 0.5  # the inverse transform counts each inner frequency twice
    re, im = np.fft.irfft(coef, M, norm="forward")[:, : H + 1]
    return re + 1j * im


def _binom(x: int, r: int) -> int:
    """binom(x, r) as the degree-r polynomial in x, at any integer x."""
    return math.prod(range(x - r + 1, x + 1)) // math.factorial(r)


@cache
def _chain_weights(lam: int) -> np.ndarray:
    """a[i, c] with g_k binom(k + lam - 1, lam - 1 - i) = sum_c a[i, c] binom(k + c, c).

    Both sides are polynomials in k of degree at most 2 lam - 2, and
    nabla binom(k + c, c) = binom(k + c - 1, c - 1) vanishes at k = -1 for
    c >= 1, so a[i, c] is the backward difference (nabla^c h_i)(-1) of the
    left side h_i.  Up to lam = 23 every integer is below 2^53 (the largest
    is 1.66e15), hence exact as a float.  At lam = 24 one, 9.25e15, passes
    2^53 but is still a float; from lam = 25 on some of them round.
    """

    def h(i: int, k: int) -> int:
        return _binom(k + lam - 1, lam - 1) * _binom(k + lam - 1, lam - 1 - i)

    a = np.array(
        [
            [
                sum((-1) ** j * math.comb(c, j) * h(i, -1 - j) for j in range(c + 1))
                for c in range(2 * lam - 1)
            ]
            for i in range(lam)
        ],
        dtype=float,
    )
    a.setflags(write=False)
    return a


def _cosine_coeffs(lam: int, n: np.ndarray, w: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """F_f with sum_n w_n phi_n(theta) = sum_f F_f cos(f theta), f = 0..n[-1].

    c1 holds C_n^lam(1) at the degrees n.

    C_n^lam(cos theta) = sum_{k=0}^{n} g_k g_{n-k} cos((n - 2k) theta) with
    g_j = binom(j + lam - 1, j) > 0, so with v_n = w_n / C_n^lam(1),
    F_f = (2 - [f = 0]) sum_k g_k g_{k+f} v_{2k+f}.  The g_k g_{n-k} add up
    to C_n^lam(1), so the |F_f| add up to at most sum_n |w_n|.

    The k-sum takes O(lam n_max) steps.  By Vandermonde,
    g_{k+f} = sum_{i<lam} binom(f, i) binom(k + lam - 1, lam - 1 - i), and
    _chain_weights writes g_k binom(k + lam - 1, lam - 1 - i) in the basis
    binom(k + c, c), whose sum against v_{2k+f} is the (c+1)-fold tail sum
    S^{c+1}(f) of v along the parity chain f, f + 2, f + 4, ...; so
    F_f = (2 - [f = 0]) sum_i binom(f, i) sum_c a[i, c] S^{c+1}(f).  Every
    v_n enters with positive binomial weights except for the small
    f-independent a[i, c], so the absolute error stays of the order of
    eps * sum_n |w_n|, the bound of the grid route.
    """
    size = int(n.max()) + 1
    v = np.zeros(size + size % 2, dtype=complex)
    v[n] = w / c1
    tail = v.reshape(-1, 2)  # row j holds v_{2j} and v_{2j+1}, one column per chain
    sums = []
    for _ in range(2 * lam - 1):
        tail = np.cumsum(tail[::-1], axis=0)[::-1]
        sums.append(tail.reshape(-1)[:size])
    T = _chain_weights(lam) @ np.stack(sums)  # T[i] = sum_c a[i, c] S^{c+1}
    f = np.arange(size, dtype=float)
    F = T[0]
    binom_f = np.ones(size)
    for i in range(1, lam):
        binom_f = binom_f * (f - (i - 1)) / i
        F = F + binom_f * T[i]
    F[1:] *= 2.0
    return F


def _kernel_grid(lam: int, spec: _Spectrum, t: float, M: int) -> np.ndarray:
    """The sum spec weighs (the factor kernel or kappa^(nu)) at time t on
    the half grid 2 pi k / M, k = 0..M/2."""
    nu = spec.nu
    if nu is not None:
        return _cos_sum_grid(spec.weights(t), spec.n + lam - nu, nu + lam, M)
    F = _cosine_coeffs(lam, spec.n, spec.weights(t), spec.c1)
    return _cos_sum_grid(F, np.arange(F.size), 0, M)


def _kernel_values(lam: int, spec: _Spectrum, theta, t) -> np.ndarray:
    """The sum spec weighs (the factor kernel or kappa^(nu)) at angles
    theta, at time t or at time t[i] for angle i, by one recurrence sweep
    with a weight column per distinct time.
    kappa^(nu) = sum_f a_f cos(f theta - q pi / 2),
    q = nu + lam, f = n - nu + lam >= 1, is swept at lam = 1: with
    U_k = (k + 1) phi_k^(1), cos(f theta) = (U_f - U_{f-2}) / 2 (even q),
    sin(f theta) = sin(theta) U_{f-1} (odd q), and the sign is (-1)^floor(q/2).
    """
    theta, nu = np.asarray(theta, dtype=float), spec.nu
    times, columns = np.unique(np.broadcast_to(t, theta.shape), return_inverse=True)
    shift = 0 if nu is None else lam - nu  # degree n sits at row n + shift
    w = np.zeros((int(spec.n.max()) + shift + 1, times.size), dtype=complex)
    w[spec.n + shift] = np.stack([spec.weights(float(s)) for s in times], axis=1)
    theta1, columns = np.atleast_1d(theta), np.atleast_1d(columns)
    if nu is None:
        out = phi_series(lam, w, theta1, columns)
    else:
        q = nu + lam
        k1 = np.arange(1.0, w.shape[0] + 1)[:, None]  # k + 1
        if q % 2:
            out = np.sin(theta1) * phi_series(1, k1[:-1] * w[1:], theta1, columns)
        else:
            w[:-2] -= w[2:]
            out = phi_series(1, 0.5 * k1 * w, theta1, columns)
        out *= (-1.0) ** (q // 2)
    return out[0] if theta.ndim == 0 else out


def kernel_1d(
    lam: int,
    beta,
    N: float,
    t: float,
    theta_grid,
    bump: Bump,
    nu: int | None = None,
) -> np.ndarray:
    """Single-factor kernel K_N(t, theta) at any angles, by the recurrence
    sweep; with nu, the numerator sum kappa_N^{(nu)} instead, as
    kernel_product does for a quadrature's grid."""
    return _kernel_values(lam, _spectrum(lam, beta, N, bump, nu), theta_grid, t)


def kernel_nu(lam: int, beta, N: float, t: float, theta, bump: Bump, nu: int) -> np.ndarray:
    """Decomposition piece K_N^{(nu)} = 2 (2 sin theta)^{-(nu+lam)} kappa_N^{(nu)}.

    The prefactor degenerates at the corners, so the guard band is an error.
    """
    sin_t = np.sin(np.asarray(theta, dtype=float))
    if np.any(np.abs(sin_t) < DEFAULT_GUARD):
        raise CornerGuardError(
            f"kernel_nu needs |sin theta| >= {DEFAULT_GUARD}; the full kernel owns corners"
        )
    return 2.0 * kernel_1d(lam, beta, N, t, theta, bump, nu) / (2.0 * sin_t) ** (nu + lam)


@dataclass
class KernelField:
    """A kernel at fixed (N, t) on a quadrature's half grids, or the
    numerator sums kappa^(nu) of its factors, as its spectra say.

    Values are stored factored (one complex array per factor, on nodes
    0..M/2); the product-grid value is the outer product.  spectra are the
    time-free mode data of the factors, each with the nu of the sum it
    weighs; fields with the same spectra share a sup's sweep.  factor_values is sampled from them
    through the grid route on first read and kept, so a norm that never
    reads the grid (a pole-box sup) never pays its transforms.
    evaluate_factor evaluates one factor at fresh angles by the recurrence,
    which gives a sup's Chebyshev proxy values off the grid.
    """

    space: ProductSpace
    N: float
    t: float
    quad: TorusQuadrature
    bump: Bump
    spectra: tuple[_Spectrum, ...]

    @cached_property
    def factor_values(self) -> tuple[np.ndarray, ...]:
        return tuple(
            _kernel_grid(f.lam, spec, self.t, M)
            for f, spec, M in zip(self.space.factors, self.spectra, self.quad.sizes)
        )

    def evaluate_factor(self, j: int, theta, t=None) -> np.ndarray:
        """Factor j at fresh angles, at the field's time.

        t, one time per angle, evaluates any field with the same spectra
        instead: all of them share one recurrence sweep.
        """
        t = self.t if t is None else t
        return _kernel_values(self.space.factors[j].lam, self.spectra[j], theta, t)

    def resample(self, quad: TorusQuadrature) -> "KernelField":
        """The same field on another rule, through the grid route."""
        return replace(self, quad=quad)


def kernel_product(
    space: ProductSpace,
    N: float,
    t: float,
    quad: TorusQuadrature,
    bump: Bump = Bump(),
    nu: int | None = None,
) -> KernelField:
    """Product-space kernel with the per-factor mollifier on quad's half
    grids, stored factored and sampled on first read; with nu, the product
    of the factors' numerator sums kappa^(nu) instead."""
    if quad.space != space:
        raise ValueError(f"a quadrature on {quad.space} cannot sample a kernel on {space}")
    spectra = tuple(_spectrum(f.lam, f.beta, N, bump, nu) for f in space.factors)
    return KernelField(space, N, t, quad, bump, spectra)


def kernel_direct_multi(
    space: ProductSpace,
    N: float,
    t: float,
    point: Sequence[float],
    bump: Bump,
    *,
    radial: bool = True,
) -> complex:
    """Brute-force lattice sum at one point of the torus.

    radial=True applies the mollifier to the joint normalized eigenvalue
    (the literal single-cutoff sum); radial=False applies it per factor and
    must agree with kernel_product, which is the oracle pairing.  Guarded
    against infeasible enumerations.
    """
    point = np.asarray(point, dtype=float)
    if point.shape != (space.r,):
        raise ValueError(f"point must have one angle per factor, got {point.shape}")
    tops = [top_degree(f.lam, f.beta, N) for f in space.factors]
    total = math.prod(top + 1 for top in tops)
    if total > ENUMERATION_GUARD:
        raise ValueError(
            f"lattice enumeration of {total} points exceeds guard {ENUMERATION_GUARD}"
        )
    # per-factor spectral data and zonal values at the point
    xs, mus, dphis = [], [], []
    for f, top, th in zip(space.factors, tops, point):
        n = np.arange(0, top + 1)
        m = n * (n + 2 * f.lam)
        xs.append(m / (float(f.beta) * N * N))
        mus.append(m / float(f.beta))
        rows = phi_matrix(f.lam, n, np.array([th]))[:, 0]
        dims = np.array([float(harmonic_dim(f.dim, int(k))) for k in n])
        dphis.append(dims * rows)
    mu_joint = reduce(np.add.outer, mus)
    prod = reduce(np.multiply.outer, dphis)
    if radial:
        cut = bump(reduce(np.add.outer, xs))
    else:
        cut = reduce(np.multiply.outer, [bump(x) for x in xs])
    return complex(np.sum(cut * np.exp(-1j * t * mu_joint) * prod))


def spectral_l2_norm(lam: int, beta, N: float, t: float, bump: Bump) -> float:
    """Exact L2 norm of the one-factor kernel: (sum_n bump(x_n)^2 d_n)^{1/2}.

    Time drops out (unimodular phases);  this is the quadrature oracle.
    """
    spec = _spectrum(lam, beta, N, bump, None)
    return math.sqrt(float(np.sum(spec.cut**2 * spec.dims)))


# ---------------------------------------------------------------------------
# serialization


def write_field(field_obj: KernelField, csv_path, json_path) -> None:
    """Write factor,theta,re,im rows plus a JSON sidecar describing the run."""
    import csv as _csv

    with open(csv_path, "w", newline="") as fh:
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow(["factor", "theta", "re", "im"])
        for j, vals in enumerate(field_obj.factor_values):
            for th, v in zip(field_obj.quad.nodes(j), vals):
                writer.writerow([j, repr(float(th)), repr(float(v.real)), repr(float(v.imag))])
    header = {
        "schema": 1,
        "space": field_obj.space.describe(),
        "N": field_obj.N,
        "t": field_obj.t,
        "bump": {"kind": field_obj.bump.kind, "lo": field_obj.bump.lo, "hi": field_obj.bump.hi},
        "storage": "factored",
    }
    with open(json_path, "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
