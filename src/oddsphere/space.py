"""Geometry and spectrum of products of odd-dimensional spheres.

A configuration space is S^{d_1} x ... x S^{d_r} with every d_j odd and
>= 3, each factor carrying beta_j times the unit round metric, the ratios
of the beta_j rational.  The Laplace-Beltrami eigenvalue on the product of
the n_j-th zonal harmonics is

    -sum_j n_j (n_j + d_j - 1) / beta_j,

so all spectral gaps are rational and the Schrodinger flow exp(it*Lap) is
periodic in t.  Everything here is exact: integers and ``fractions.Fraction``.

Derived exponents:

    s  = max_j 2 d_j / (d_j - 1)        (kernel-bound integrability floor)
    p0 = 2 + 8 (s - 1) / (s r)          (space-time estimate threshold)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

__all__ = [
    "SphereFactor",
    "ProductSpace",
    "build_space",
    "eigenvalue",
    "harmonic_dim",
    "format_rational",
    "top_degree",
]

SHELL_WINDOW = (0.25, 4.0)  # P_N's fixed dyadic window of x_n = n (n + 2 lam) / (beta N^2)


def format_rational(x: Fraction) -> str:
    """Serialize a rational as 'p/q' (or 'p' when q == 1)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class SphereFactor:
    """One odd-dimensional sphere factor with its metric coefficient."""

    dim: int
    beta: Fraction

    def __post_init__(self) -> None:
        if self.dim < 3 or self.dim % 2 == 0:
            raise ValueError(f"sphere dimension must be odd and >= 3, got {self.dim}")
        beta = Fraction(self.beta)
        if beta <= 0:
            raise ValueError(f"metric coefficient must be positive, got {beta}")
        try:  # every grid and spectrum takes beta's float image
            image = float(beta)
        except OverflowError:
            raise ValueError("metric coefficient beta overflows a float") from None
        if image == 0.0:
            raise ValueError("metric coefficient beta underflows to 0.0 as a float")
        object.__setattr__(self, "beta", beta)

    @property
    def lam(self) -> int:
        """Half-integer count: dim == 2*lam + 1."""
        return (self.dim - 1) // 2

    @property
    def s_factor(self) -> Fraction:
        """Per-factor integrability floor 2 d / (d - 1)."""
        return Fraction(2 * self.dim, self.dim - 1)


@dataclass(frozen=True)
class ProductSpace:
    """Product of odd spheres with rational metric coefficients."""

    factors: tuple[SphereFactor, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("need at least one sphere factor")
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def d(self) -> int:
        """Total dimension."""
        return sum(f.dim for f in self.factors)

    @property
    def r(self) -> int:
        """Rank: number of factors, dimension of a maximal torus."""
        return len(self.factors)

    @property
    def s(self) -> Fraction:
        return max(f.s_factor for f in self.factors)

    @property
    def p0(self) -> Fraction:
        s = self.s
        return 2 + Fraction(8, 1) * (s - 1) / (s * self.r)

    @property
    def period(self) -> Fraction:
        """Period T of exp(it*Lap), returned as T / (2*pi), exact.

        Eigenvalue increments on factor j are integer multiples of 1/beta_j,
        so T/(2*pi) = lcm of the numerators of the beta_j makes every phase
        exp(-i t mu) close up.
        """
        return Fraction(math.lcm(*(f.beta.numerator for f in self.factors)))

    @property
    def period_seconds(self) -> float:
        """Flow period T in the same units as the time argument t."""
        try:
            return 2.0 * math.pi * float(self.period)
        except OverflowError:
            raise ValueError(
                "the flow period T / (2 pi), the lcm of the betas' numerators, overflows a float"
            ) from None

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    @property
    def betas(self) -> tuple[Fraction, ...]:
        return tuple(f.beta for f in self.factors)

    def describe(self) -> dict:
        """Plain-serializable summary of the space."""
        return {
            "dims": list(self.dims),
            "betas": [format_rational(b) for b in self.betas],
            "d": self.d,
            "r": self.r,
            "s": format_rational(self.s),
            "p0": format_rational(self.p0),
            "period_over_2pi": format_rational(self.period),
        }

    def __str__(self) -> str:
        parts = []
        for f in self.factors:
            tag = f"S^{f.dim}"
            if f.beta != 1:
                tag += f"[beta={format_rational(f.beta)}]"
            parts.append(tag)
        return " x ".join(parts)


def build_space(
    dims: Sequence[int], betas: Sequence[Fraction | int | str] | None = None
) -> ProductSpace:
    """Construct the product space, validating dimensions and metrics.

    Rejects even dimensions, dimensions below 3 (circles have no
    ultraspherical expansion of the kind used here), and nonpositive betas.
    """
    dims = list(dims)
    if betas is None:
        betas = [Fraction(1)] * len(dims)
    betas = [b if isinstance(b, Fraction) else Fraction(str(b)) for b in betas]
    if len(betas) != len(dims):
        raise ValueError(f"got {len(dims)} dims but {len(betas)} betas")
    return ProductSpace(tuple(SphereFactor(d, b) for d, b in zip(dims, betas)))


def eigenvalue(space: ProductSpace, idx: Sequence[int]) -> Fraction:
    """Laplacian eigenvalue -sum_j n_j (n_j + d_j - 1) / beta_j, exact, for
    one lattice point of zonal degrees (one nonnegative entry per factor)."""
    idx = tuple(int(n) for n in idx)
    if len(idx) != space.r:
        raise ValueError(f"index length {len(idx)} != rank {space.r}")
    if any(n < 0 for n in idx):
        raise ValueError(f"zonal degrees must be nonnegative, got {idx}")
    total = Fraction(0)
    for n, f in zip(idx, space.factors):
        total += Fraction(n * (n + f.dim - 1), 1) / f.beta
    return -total


def top_degree(lam: int, beta, N: float) -> int:
    """The degree past which the scale-N shell of S^{2 lam + 1} is empty, plus two
    spare degrees for the rounding of the square root: x_n <= 4 means
    n (n + 2 lam) <= 4 beta N^2.  Every grid is sized from it; N < 1 is a ValueError."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    bN2 = float(beta) * N * N
    return int(math.floor(math.sqrt(SHELL_WINDOW[1] * bN2 + lam * lam) - lam)) + 2


def harmonic_dim(dim: int, n: int) -> int:
    """Dimension of the degree-n spherical harmonics on S^dim, exact.

    Binomial difference C(n + dim, dim) - C(n + dim - 2, dim); degree-n
    harmonics are degree-n polynomials modulo degree-(n-2) multiples of r^2.
    """
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return comb(n + dim, dim) - comb(n + dim - 2, dim)
