"""Weighted quadrature on the maximal torus and regional kernel norms.

Integration of a zonal function over one sphere factor of dimension d
reduces to the torus with density |sin theta|^{d-1}; the density is
normalized to a probability measure per factor, so constants never leak
into fitted exponents.  Grids are uniform (periodic trapezoid), which is
exact for the trigonometric polynomials all these kernels are, provided
the grid beats the bandwidth; an empirical doubling check covers the
non-band-limited case |K|^p for fractional p.

Regions: "full" is the whole torus; a "corner" region is the product of
per-factor angular boxes of a given radius around a chosen pole (0 or pi)
of each factor; "away" is the complement of the union of all corner boxes.
Corner/full norms factor across the product; away norms come from
inclusion-exclusion over the per-factor pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from typing import Callable

import numpy as np

from .space import ProductSpace

__all__ = [
    "QuadratureError",
    "Region",
    "TorusQuadrature",
    "FieldSample",
    "density_normalizer",
    "lp_norm",
    "sup_norm",
    "resolution_check",
    "region_measure",
]

SUP_REFINE_TOL = 1e-4
RESOLUTION_TOL = 1e-5


class QuadratureError(RuntimeError):
    """Grid too coarse for the requested norm."""


@dataclass(frozen=True)
class Region:
    """Integration region on the product torus.

    kind 'corner' carries one pole index per factor (0 for theta=0, 1 for
    theta=pi) and a radius in radians; 'away' carries only the radius.
    """

    kind: str
    poles: tuple[int, ...] | None = None
    radius: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("full", "corner", "away"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        if self.kind != "full":
            if self.radius is None or not (0.0 < self.radius < math.pi / 2.0):
                raise ValueError(f"region radius must lie in (0, pi/2), got {self.radius}")
        if self.kind == "corner":
            if self.poles is None or any(p not in (0, 1) for p in self.poles):
                raise ValueError("corner region needs a pole index (0 or 1) per factor")

    @classmethod
    def full(cls) -> "Region":
        return cls("full")

    @classmethod
    def corner(cls, poles, radius: float) -> "Region":
        if isinstance(poles, int):
            poles = (poles,)
        return cls("corner", tuple(poles), radius)

    @classmethod
    def away(cls, radius: float) -> "Region":
        return cls("away", None, radius)

    def label(self) -> str:
        if self.kind == "full":
            return "full"
        if self.kind == "corner":
            tag = "".join(str(p) for p in self.poles)
            return f"corner{tag}@{self.radius:.6g}"
        return f"away@{self.radius:.6g}"


def density_normalizer(dim: int) -> float:
    """1 / integral_0^{2pi} |sin|^{dim-1}; dim odd makes this exact."""
    lam = (dim - 1) // 2
    return 4.0**lam / (2.0 * math.pi * comb(2 * lam, lam))


@dataclass(frozen=True)
class TorusQuadrature:
    """Uniform per-factor grids with the probability density weights."""

    space: ProductSpace
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.sizes) != self.space.r:
            raise ValueError(f"got {len(self.sizes)} sizes for rank {self.space.r}")

    @classmethod
    def for_kernel(
        cls, space: ProductSpace, N: float, oversample: int = 16
    ) -> "TorusQuadrature":
        """Grid sized oversample times the kernel bandwidth 2N + lam per factor."""
        if oversample < 1:
            raise ValueError(f"need oversample >= 1, got {oversample}")
        sizes = tuple(
            int(math.ceil(oversample * (2.0 * N + f.lam))) for f in space.factors
        )
        return cls(space, sizes)

    def nodes(self, j: int) -> np.ndarray:
        M = self.sizes[j]
        return 2.0 * math.pi * np.arange(M) / M

    def grids(self) -> tuple[np.ndarray, ...]:
        return tuple(self.nodes(j) for j in range(self.space.r))

    def doubled(self) -> "TorusQuadrature":
        return TorusQuadrature(self.space, tuple(2 * M for M in self.sizes))


@dataclass
class FieldSample:
    """Factored torus samples of a zonal function, with optional re-evaluator."""

    space: ProductSpace
    grids: tuple[np.ndarray, ...]
    factor_values: tuple[np.ndarray, ...]
    evaluators: tuple[Callable[[np.ndarray], np.ndarray], ...] | None = None

    def evaluate_factor(self, j: int, theta) -> np.ndarray:
        if self.evaluators is None:
            raise ValueError("this sampled field carries no evaluator")
        return self.evaluators[j](np.asarray(theta, dtype=float))


def uniform_grid_size(grid) -> int:
    """M if grid is the uniform periodic grid 2 pi k / M, k < M; else 0."""
    grid = np.asarray(grid)
    M = grid.size
    if grid.ndim != 1 or M == 0:
        return 0
    return M if np.allclose(grid, 2.0 * math.pi * np.arange(M) / M, rtol=0.0, atol=1e-12) else 0


def _check_uniform(grid: np.ndarray) -> float:
    """Weight 2*pi/M for a uniform full-circle grid starting at 0."""
    M = uniform_grid_size(grid)
    if not M:
        raise QuadratureError("norms need the uniform periodic grid [0, 2pi)")
    return 2.0 * math.pi / M


def _pole_distances(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d0 = np.minimum(grid, 2.0 * math.pi - grid)
    d1 = np.abs(grid - math.pi)
    return d0, d1


def _factor_masks(grid: np.ndarray, radius: float) -> dict[str, np.ndarray]:
    """Disjoint node partition: box around each pole, remainder away."""
    d0, d1 = _pole_distances(grid)
    near0 = d0 <= radius
    near1 = (d1 <= radius) & ~near0
    return {"pole0": near0, "pole1": near1, "away": ~(near0 | near1)}


def _resolution_floor(field, space: ProductSpace) -> None:
    """Reject grids below twice the field bandwidth (Parseval would alias)."""
    N = getattr(field, "N", None)
    if N is None:
        return
    for j, f in enumerate(space.factors):
        # |K|^2 has bandwidth 2 (n_max + lam) <= 2 (2N + lam); add the density
        need = 2 * (math.ceil(2.0 * N) + f.lam) + f.dim
        if len(field.grids[j]) < need:
            raise QuadratureError(
                f"factor {j}: grid of {len(field.grids[j])} nodes under-resolves "
                f"a scale-{N} kernel (need >= {need})"
            )


def _factor_power_integrals(
    space: ProductSpace, field, p: float, radius: float | None
) -> list[dict[str, float]]:
    """Per-factor integrals of |K_j|^p against the probability density.

    Keys: 'full' always; 'pole0', 'pole1', 'away' when a radius is given.
    """
    out = []
    for j, f in enumerate(space.factors):
        grid = np.asarray(field.grids[j], dtype=float)
        step = _check_uniform(grid)
        vals = np.abs(np.asarray(field.factor_values[j])) ** p
        dens = np.abs(np.sin(grid)) ** (f.dim - 1)
        contrib = density_normalizer(f.dim) * step * vals * dens
        entry = {"full": float(np.sum(contrib))}
        if radius is not None:
            masks = _factor_masks(grid, radius)
            for key, mask in masks.items():
                entry[key] = float(np.sum(contrib[mask]))
        out.append(entry)
    return out


def _combine_region_power(
    space: ProductSpace, integrals: list[dict[str, float]], region: Region
) -> float:
    if region.kind == "full":
        out = 1.0
        for entry in integrals:
            out *= entry["full"]
        return out
    if region.kind == "corner":
        if len(region.poles) != space.r:
            raise ValueError(
                f"corner region has {len(region.poles)} poles for rank {space.r}"
            )
        out = 1.0
        for entry, pole in zip(integrals, region.poles):
            out *= entry[f"pole{pole}"]
        return out
    # away: full product minus every all-corner box, by inclusion-exclusion
    full = 1.0
    for entry in integrals:
        full *= entry["full"]
    boxes = 1.0
    for entry in integrals:
        boxes *= entry["pole0"] + entry["pole1"]
    return max(full - boxes, 0.0)


def lp_norm(field, p: float, region: Region | None = None) -> float:
    """Regional L^p norm of a factored field under the probability measure.

    p = inf delegates to sup_norm.  Raises QuadratureError when the field's
    grid is below the aliasing floor for its frequency scale.
    """
    region = region or Region.full()
    if p == math.inf:
        return sup_norm(field, region)
    if not p > 0:
        raise ValueError(f"need p > 0, got {p}")
    space = field.space
    _resolution_floor(field, space)
    integrals = _factor_power_integrals(space, field, p, region.radius)
    power = _combine_region_power(space, integrals, region)
    return power ** (1.0 / p)


def _refine_factor_sup(field, j: int, keep: Callable[[np.ndarray], np.ndarray]) -> float:
    """Grid max over the nodes keep admits, then local doubling around the argmax."""
    grid = np.asarray(field.grids[j], dtype=float)
    mask = keep(grid)
    vals = np.abs(np.asarray(field.factor_values[j]))
    if not mask.any():
        return 0.0
    idx = np.flatnonzero(mask)
    k = idx[np.argmax(vals[idx])]
    best = float(vals[k])
    evaluate = getattr(field, "evaluate_factor", None)
    if evaluate is None or getattr(field, "evaluators", True) is None:
        return best
    th0 = float(grid[k])
    h = float(grid[1] - grid[0]) if len(grid) > 1 else math.pi
    for _ in range(60):
        cand = th0 + h * np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        cand = np.mod(cand, 2.0 * math.pi)
        cand = cand[keep(cand)]
        if cand.size == 0:
            h *= 0.5
            continue
        vals_c = np.abs(evaluate(j, cand))
        i = int(np.argmax(vals_c))
        new = float(vals_c[i])
        moved_best = max(new, best)
        if moved_best <= best * (1.0 + SUP_REFINE_TOL) and h < (grid[1] - grid[0]) / 4:
            best = moved_best
            break
        th0 = float(cand[i]) if new >= best else th0
        best = moved_best
        h *= 0.5
        if h < 1e-12:
            break
    return best


def sup_norm(field, region: Region | None = None) -> float:
    """Sup of |field| over the region: grid max plus local refinement.

    Factored structure: full and corner-box sups multiply across factors;
    the away sup is the best single factor away from its poles times the
    full sups of the others.  Only the per-factor pieces the region
    combines are refined.
    """
    region = region or Region.full()
    space = field.space

    def piece(j: int, key: str) -> float:
        if key == "full":
            return _refine_factor_sup(field, j, lambda th: np.ones(th.shape, dtype=bool))
        return _refine_factor_sup(field, j, lambda th: _factor_masks(th, region.radius)[key])

    if region.kind == "full":
        return math.prod(piece(j, "full") for j in range(space.r))
    if region.kind == "corner":
        return math.prod(piece(j, f"pole{p}") for j, p in zip(range(space.r), region.poles))
    full = [piece(j, "full") for j in range(space.r)]
    best = 0.0
    for j in range(space.r):
        val = piece(j, "away")
        for l in range(space.r):
            if l != j:
                val *= full[l]
        best = max(best, val)
    return best


def resolution_check(
    field, p: float = 2.0, region: Region | None = None, tol: float = RESOLUTION_TOL
) -> tuple[bool, float]:
    """Empirical convergence gate: recompute the norm on a doubled grid.

    Returns (passed, relative_change).  Needs a field that can re-evaluate
    itself (kernel fields can).
    """
    base = lp_norm(field, p, region)
    fine_grids = []
    fine_vals = []
    for j, grid in enumerate(field.grids):
        M = 2 * len(grid)
        fine = 2.0 * math.pi * np.arange(M) / M
        fine_grids.append(fine)
        fine_vals.append(field.evaluate_factor(j, fine))
    fine_field = FieldSample(field.space, tuple(fine_grids), tuple(fine_vals))
    refined = lp_norm(fine_field, p, region)
    rel = abs(refined - base) / max(abs(refined), np.finfo(float).tiny)
    return rel < tol, rel


def region_measure(
    space: ProductSpace, region: Region, N: float, oversample: int = 16
) -> float:
    """Probability measure of a region, on grids proportional to N.

    Grid size 2*oversample*N per factor keeps the node count inside a
    radius-1/N box independent of N, so measured volume scaling is free of
    boundary-snapping noise.
    """
    sizes = tuple(max(int(math.ceil(2 * oversample * N)), 8) for _ in space.factors)
    quad = TorusQuadrature(space, sizes)
    grids = quad.grids()
    ones = tuple(np.ones(len(g)) for g in grids)
    field = FieldSample(space, grids, ones)
    return lp_norm(field, 1.0, region)
