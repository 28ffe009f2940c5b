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

On the full uniform grid theta_k = 2 pi k / M (the quadrature grid) each
kappa is one FFT per exponential half: exp(i f theta_k) depends only on
f mod M, so placing the weights at frequency (n - nu + lam) mod M is exact,
and the cost is O(M log M).  Where the division by (2 sin theta)^(nu+lam)
would amplify rounding past specialfn.COND_LIMIT, and at every angle off
that grid, the kernel comes from the recurrence sweep phi_series instead,
at O(#modes * #angles).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .measure import uniform_grid_size
from .space import ProductSpace, check_multi_index, eigenvalue, harmonic_dim
from .specialfn import (
    COND_LIMIT,
    DEFAULT_GUARD,
    CornerGuardError,
    get_coeffs,
    phi_matrix,
    phi_series,
)

__all__ = [
    "Bump",
    "KernelField",
    "ZonalState",
    "kernel_1d",
    "kernel_nu",
    "kappa_nu",
    "kernel_product",
    "kernel_direct_multi",
    "evolve_zonal",
    "evaluate_zonal",
    "sobolev_norm",
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

    smooth: C-infinity, supported on [lo, hi], identically 1 on [2*lo, hi/2].
    sharp:  indicator of [lo, hi], for oracle comparisons.
    """

    kind: str = "smooth"
    lo: float = 0.25
    hi: float = 4.0

    def __post_init__(self) -> None:
        if self.kind not in ("smooth", "sharp"):
            raise ValueError(f"bump kind must be 'smooth' or 'sharp', got {self.kind!r}")
        if not (0.0 < self.lo < self.hi):
            raise ValueError(f"need 0 < lo < hi, got [{self.lo}, {self.hi}]")
        if self.kind == "smooth" and 2.0 * self.lo > self.hi / 2.0:
            raise ValueError("smooth bump needs 2*lo <= hi/2 for its plateau")

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "sharp":
            return ((x >= self.lo) & (x <= self.hi)).astype(float)
        up = _smoothstep((x - self.lo) / self.lo)
        down = _smoothstep((self.hi - x) / (self.hi / 2.0))
        return up * down


def dim_vector(lam: int, n: np.ndarray) -> np.ndarray:
    dim = 2 * lam + 1
    return np.array([harmonic_dim(dim, int(k)) for k in n], dtype=float)


def mode_weights(
    lam: int, beta, N: float, t: float, bump: Bump
) -> tuple[np.ndarray, np.ndarray]:
    """Degrees n inside the bump support and their complex mode weights.

    Returns (n, w) with w_n = bump(x_n) exp(-i t m_n / beta) d_n; degrees
    with an exactly vanishing cutoff are dropped, everything else kept.
    """
    beta_f = float(beta)
    bN2 = beta_f * N * N
    n_top = int(math.floor(math.sqrt(bump.hi * bN2 + lam * lam) - lam)) + 2
    n = np.arange(0, max(n_top, 0) + 1)
    m = n * (n + 2 * lam)
    cut = bump(m / bN2)
    keep = cut > 0.0
    n, m, cut = n[keep], m[keep], cut[keep]
    if n.size == 0:
        return n, np.zeros(0, dtype=complex)
    w = cut * np.exp(-1j * t * (m / beta_f)) * dim_vector(lam, n)
    return n, w


# exp(i psi) for psi = q pi / 2, exact
_QUARTER_TURNS = (1.0, 1j, -1.0, -1j)


def _grid_sin(M: int) -> np.ndarray:
    """sin(2 pi k / M), k < M, as +-sin(pi u / M) with integer 0 <= u <= M/2.

    np.sin of the rounded node loses up to 1e-12 relative next to pi and
    2 pi, which the (2 sin theta)^-(nu+lam) factors amplify.
    """
    r = 2 * np.arange(M)
    r = np.where(r > M, r - 2 * M, r)
    u = np.minimum(np.abs(r), M - np.abs(r))
    return np.sign(r) * np.sin(math.pi * u / M)


def _cos_sum_grid(weights: np.ndarray, freq: np.ndarray, q: int, M: int) -> np.ndarray:
    """sum_k weights[k] cos(freq[k] theta - q pi / 2) at theta = 2 pi j / M, j < M.

    The exp(+i f theta) half is the conjugate of the transform of
    conj(weights), so the two halves are conjugate bit for bit when the
    weights are real, and the sum is then exactly real.
    """
    spec = np.zeros(M, dtype=complex)
    np.add.at(spec, freq % M, weights)
    c = _QUARTER_TURNS[q % 4]
    return 0.5 * (np.conj(c * np.fft.fft(np.conj(spec))) + c * np.fft.fft(spec))


def kernel_1d(
    lam: int,
    beta,
    N: float,
    t: float,
    theta_grid,
    bump: Bump,
) -> np.ndarray:
    """Single-factor kernel K_N(t, theta) over an angle grid.

    On the full uniform grid the nu-decomposition is summed by FFT; nodes
    where a nu-term exceeds COND_LIMIT times sum_n |w_n| (the corners and
    their neighbourhood), and every angle set other than that grid, use
    the recurrence sweep.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    theta = np.asarray(theta_grid, dtype=float)
    scalar = theta.ndim == 0
    theta = np.atleast_1d(theta)
    n, w = mode_weights(lam, beta, N, t, bump)
    out = np.zeros(theta.shape, dtype=complex)
    if n.size == 0:
        return out[0] if scalar else out
    M = uniform_grid_size(theta)
    slow = np.ones(theta.shape, dtype=bool)
    if M:
        coeffs = get_coeffs(lam, int(n[-1]))
        two_sin = 2.0 * _grid_sin(M)
        worst = np.zeros(M)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for nu in range(lam):
                a = w * coeffs.cnv[n, nu]
                sin_pow = two_sin ** (nu + lam)
                out += 2.0 * _cos_sum_grid(a, n - nu + lam, nu + lam, M) / sin_pow
                np.maximum(worst, 2.0 * np.sum(np.abs(a)) / np.abs(sin_pow), out=worst)
        # NaN-safe: a term that is not provably small goes to the recurrence
        slow = ~(worst <= COND_LIMIT * np.sum(np.abs(w)))
    if slow.any():
        wfull = np.zeros(int(n[-1]) + 1, dtype=complex)
        wfull[n] = w
        out[slow] = phi_series(lam, wfull, theta[slow])
    return out[0] if scalar else out


def kappa_nu(
    lam: int,
    N: float,
    nu: int,
    t: float,
    theta,
    bump: Bump,
    *,
    beta=1,
) -> np.ndarray:
    """Pure trigonometric numerator sum kappa_N^{(nu)}; valid at every angle.

    FFT on the full uniform grid, a direct cosine sum at other angles.
    """
    if not 0 <= nu <= lam - 1:
        raise ValueError(f"need 0 <= nu <= lam-1 = {lam - 1}, got {nu}")
    theta = np.asarray(theta, dtype=float)
    scalar = theta.ndim == 0
    theta = np.atleast_1d(theta)
    n, w = mode_weights(lam, beta, N, t, bump)
    if n.size == 0:
        out = np.zeros(theta.shape, dtype=complex)
        return out[0] if scalar else out
    a = w * get_coeffs(lam, int(n[-1])).cnv[n, nu]
    freq = n - nu + lam
    M = uniform_grid_size(theta)
    if M:
        out = _cos_sum_grid(a, freq, nu + lam, M)
    else:  # direct sum, 256 angles at a time to bound memory
        blocks = np.split(theta.ravel(), list(range(256, theta.size, 256)))
        psi = (nu + lam) * math.pi / 2.0
        sums = [np.cos(np.multiply.outer(th, freq) - psi) @ a for th in blocks]
        out = np.concatenate(sums).reshape(theta.shape)
    return out[0] if scalar else out


def kernel_nu(
    lam: int,
    N: float,
    nu: int,
    t: float,
    theta,
    bump: Bump,
    *,
    beta=1,
    guard: float = DEFAULT_GUARD,
) -> np.ndarray:
    """Decomposition piece K_N^{(nu)} = 2 (2 sin theta)^{-(nu+lam)} kappa_N^{(nu)}.

    The prefactor degenerates at the corners, so the guard band is an error.
    """
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=float))
    sin_t = np.sin(theta_arr)
    if np.any(np.abs(sin_t) < guard):
        raise CornerGuardError(
            f"kernel_nu needs |sin theta| >= {guard}; the full kernel owns corners"
        )
    kap = kappa_nu(lam, N, nu, t, theta_arr, bump, beta=beta)
    out = 2.0 * kap / (2.0 * sin_t) ** (nu + lam)
    return out[0] if np.asarray(theta).ndim == 0 else out


@dataclass
class KernelField:
    """Sampled kernel over per-factor angle grids at fixed (N, t).

    Values are stored factored (one complex array per factor); the full
    product-grid value is the outer product.  evaluate_factor re-evaluates
    one factor kernel at fresh angles, which lets norm refinement zoom in
    without resampling the whole grid.
    """

    space: ProductSpace
    N: float
    t: float
    grids: tuple[np.ndarray, ...]
    factor_values: tuple[np.ndarray, ...]
    bump: Bump

    def evaluate_factor(self, j: int, theta) -> np.ndarray:
        f = self.space.factors[j]
        return kernel_1d(f.lam, f.beta, self.N, self.t, theta, self.bump)

    def full_values(self) -> np.ndarray:
        total = 1
        for g in self.grids:
            total *= len(g)
        if total > 2 * 10**7:
            raise ValueError(f"full product grid has {total} points; keep it factored")
        out = self.factor_values[0]
        for vals in self.factor_values[1:]:
            out = np.multiply.outer(out, vals)
        return out


def kernel_product(
    space: ProductSpace,
    N: float,
    t: float,
    grids: Sequence[np.ndarray],
    bump: Bump,
) -> KernelField:
    """Product-space kernel with the per-factor mollifier, stored factored."""
    if len(grids) != space.r:
        raise ValueError(f"got {len(grids)} grids for rank {space.r}")
    grids = tuple(np.atleast_1d(np.asarray(g, dtype=float)) for g in grids)
    values = tuple(
        kernel_1d(f.lam, f.beta, N, t, g, bump) for f, g in zip(space.factors, grids)
    )
    return KernelField(space, N, t, grids, values, bump)


def kernel_direct_multi(
    space: ProductSpace,
    N: float,
    t: float,
    point: Sequence[float],
    bump: Bump,
    *,
    radial: bool = True,
    guard: float = DEFAULT_GUARD,
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
    tops = []
    for f in space.factors:
        bN2 = float(f.beta) * N * N
        tops.append(int(math.floor(math.sqrt(bump.hi * bN2 + f.lam**2) - f.lam)) + 2)
    total = 1
    for top in tops:
        total *= top + 1
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
        rows = phi_matrix(f.lam, n, np.array([th]), guard=guard)[:, 0]
        dphis.append(dim_vector(f.lam, n) * rows)
    shape = [len(x) for x in xs]
    x_joint = np.zeros(shape)
    mu_joint = np.zeros(shape)
    prod = np.ones(shape, dtype=complex)
    for axis, (x, mu, dphi) in enumerate(zip(xs, mus, dphis)):
        sl = [None] * space.r
        sl[axis] = slice(None)
        idx = tuple(sl)
        x_joint = x_joint + x[idx]
        mu_joint = mu_joint + mu[idx]
        prod = prod * dphi[idx]
    if radial:
        cut = bump(x_joint)
    else:
        cut = np.ones(shape)
        for axis, x in enumerate(xs):
            sl = [None] * space.r
            sl[axis] = slice(None)
            cut = cut * bump(x)[tuple(sl)]
    return complex(np.sum(cut * np.exp(-1j * t * mu_joint) * prod))


# ---------------------------------------------------------------------------
# zonal states under the flow


@dataclass
class ZonalState:
    """Finitely supported zonal spectral data f = sum_n c_n (prod_j d_{n_j} phi_{n_j})."""

    space: ProductSpace
    coeffs: Mapping[tuple[int, ...], complex]

    def __post_init__(self) -> None:
        clean = {}
        for idx, c in dict(self.coeffs).items():
            clean[check_multi_index(self.space, idx)] = complex(c)
        self.coeffs = clean


def evolve_zonal(state: ZonalState, t: float) -> ZonalState:
    """Apply exp(it*Lap): multiply each coefficient by its eigenvalue phase."""
    out = {
        idx: c * np.exp(1j * t * float(eigenvalue(state.space, idx)))
        for idx, c in state.coeffs.items()
    }
    return ZonalState(state.space, out)


def evaluate_zonal(state: ZonalState, grids: Sequence[np.ndarray]) -> np.ndarray:
    """Sample the state on a product of per-factor angle grids.

    Returns a complex array of shape (len(grid_1), ..., len(grid_r)).
    Cost is #coeffs times the product grid size; fine for the finitely
    supported states this type is for.
    """
    space = state.space
    if len(grids) != space.r:
        raise ValueError(f"got {len(grids)} grids for rank {space.r}")
    grids = [np.atleast_1d(np.asarray(g, dtype=float)) for g in grids]
    idxs = list(state.coeffs)
    if not idxs:
        return np.zeros(tuple(len(g) for g in grids), dtype=complex)
    shape = tuple(len(g) for g in grids)
    total = len(idxs) * int(np.prod(shape))
    if total > 2 * 10**8:
        raise ValueError(f"evaluation cost {total} exceeds guard; thin the grid")
    # per-factor value rows for the degrees that actually occur
    rows: list[dict[int, np.ndarray]] = []
    for j, f in enumerate(space.factors):
        used = sorted({idx[j] for idx in idxs})
        mat = phi_matrix(f.lam, used, grids[j])
        dvec = dim_vector(f.lam, np.array(used))
        rows.append({n: dvec[i] * mat[i] for i, n in enumerate(used)})
    out = np.zeros(shape, dtype=complex)
    for idx in idxs:
        term = np.asarray(state.coeffs[idx], dtype=complex)
        piece = rows[0][idx[0]]
        for j in range(1, space.r):
            piece = np.multiply.outer(piece, rows[j][idx[j]])
        out += term * piece
    return out


def sobolev_norm(state: ZonalState, s: float) -> float:
    """Spectral Sobolev norm with weights (lambda^s + 1), pure L2 at s = 0.

    The squared norm is sum |c_n|^2 (prod_j d_{n_j}) w(lambda_n) because the
    L2 norm of prod_j d phi is the square root of the joint dimension.
    """
    total = 0.0
    for idx, c in state.coeffs.items():
        lam_n = -float(eigenvalue(state.space, idx))
        weight = 1.0 if s == 0 else lam_n**s + 1.0
        dprod = 1.0
        for n, f in zip(idx, state.space.factors):
            dprod *= harmonic_dim(f.dim, n)
        total += abs(c) ** 2 * dprod * weight
    return math.sqrt(total)


def spectral_l2_norm(lam: int, beta, N: float, t: float, bump: Bump) -> float:
    """Exact L2 norm of the one-factor kernel: (sum_n bump(x_n)^2 d_n)^{1/2}.

    Time drops out (unimodular phases);  this is the quadrature oracle.
    """
    n, _ = mode_weights(lam, beta, N, 0.0, bump)
    bN2 = float(beta) * N * N
    cut = bump(n * (n + 2 * lam) / bN2)
    return math.sqrt(float(np.sum(cut**2 * dim_vector(lam, n))))


# ---------------------------------------------------------------------------
# serialization


def write_field(field_obj: KernelField, csv_path, json_path) -> None:
    """Write factor,theta,re,im rows plus a JSON sidecar describing the run."""
    import csv as _csv

    with open(csv_path, "w", newline="") as fh:
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow(["factor", "theta", "re", "im"])
        for j, (grid, vals) in enumerate(zip(field_obj.grids, field_obj.factor_values)):
            for th, v in zip(grid, vals):
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
