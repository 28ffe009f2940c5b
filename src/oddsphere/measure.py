"""Weighted quadrature on the maximal torus and regional kernel norms.

Integration of a zonal function over one sphere factor of dimension d
reduces to the torus with density |sin theta|^{d-1}; the density is
normalized to a probability measure per factor, so constants never leak
into fitted exponents.  The rule is the periodic trapezoid rule on the
grid 2 pi k / M, exact for every trigonometric polynomial of degree below
M.  On an odd sphere the density is one, of degree d - 1, and for an even
integer p so is |K|^p, of degree p n_top for a kernel of top degree n_top
(space.top_degree, set by the scale N alone, whatever the cutoff's shape):
a whole-circle L^p integral at even p is exact once M > p n_top + d - 1,
and TorusQuadrature.for_kernel(power=p) sizes the grid just past that.
Everywhere else the grid is oversampled (DEFAULT_OVERSAMPLE nodes per unit
of bandwidth): at fractional p and p = inf, whose |K|^p is not a
trigonometric polynomial, and on pole boxes and their complements, whose
edges the trapezoid rule does not resolve; an empirical doubling check
(resolution_check) covers those.  A zonal function is even in theta, so
the rule folds onto the half grid k = 0..M/2 (M even), and every sampled
field carries the TorusQuadrature it was sampled on.

Regions: "full" is the whole torus; a "corner" region is the product of
per-factor angular boxes of a given radius around a chosen pole (0 or pi)
of each factor; "away" is the complement of the union of all corner boxes.
Every region combines per-factor pieces (a pole box, the whole circle or the
rest of it): corner and full norms multiply across factors, away integrals
sum over the sets of factors away from their poles and away sups come from
the best single factor.
Every piece's sup comes from a Chebyshev proxy of |K_j|^2 on the piece's
interval, evaluated at fresh angles by the field itself, in two sweeps for
all pieces of all fields of a scale (sup_norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from math import comb
from typing import Callable

import numpy as np

from .arcs import FAREY_BYTES
from .space import ProductSpace, top_degree

__all__ = [
    "DEFAULT_OVERSAMPLE",
    "QuadratureError",
    "Region",
    "TorusQuadrature",
    "FieldSample",
    "density_normalizer",
    "lp_norm",
    "sup_norm",
    "resolution_check",
]

DEFAULT_OVERSAMPLE = 16  # grid nodes per unit of kernel bandwidth
RESOLUTION_TOL = 1e-5
GRID_NODE_BYTES = 48  # sampling peak per grid node: 43-47 traced (S^3, S^11, N <= 16384)
CHAIN_BYTES = 96  # per lam and unit of bandwidth, in _cosine_coeffs: 80 traced (lam <= 23)


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


def _fft_size(nominal: int) -> int:
    """The smallest even integer >= nominal with no prime factor above 11.

    2, 3, 5, 7 and 11 are the radices numpy's pocketfft transforms natively;
    a larger prime factor sends it to Bluestein's algorithm, 4 to 12 times
    slower (M = 16 * 2053 at N = 1024, lam = 5: 7.7 ms against 0.75 ms).
    From 926 on the result is at most 3.5% above nominal, and at most 0.44%
    on the scan ladders N = 512, 1024, ..., 16384 with lam <= 5.
    """
    if nominal < 1:
        raise ValueError(f"need a positive grid size, got {nominal}")
    M = nominal + nominal % 2
    while True:
        rest = M
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return M
        M += 2


@dataclass(frozen=True)
class TorusQuadrature:
    """Per-factor half-grid rules: nodes 2 pi k / M, k = 0..M/2, and their weights."""

    space: ProductSpace
    sizes: tuple[int, ...]
    rules: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if len(self.sizes) != self.space.r:
            raise ValueError(f"got {len(self.sizes)} sizes for rank {self.space.r}")
        if any(M < 2 or M % 2 for M in self.sizes):
            raise ValueError(f"grid sizes must be even and positive, got {self.sizes}")

    @classmethod
    def for_kernel(
        cls,
        space: ProductSpace,
        N: float,
        oversample: int = DEFAULT_OVERSAMPLE,
        *,
        power: float | None = None,
    ) -> "TorusQuadrature":
        """Grid sized oversample times the kernel bandwidth per factor.

        The bandwidth is 2N + lam, scaled by sqrt(beta) when beta > 1: the
        kernel's top degree is about 2N sqrt(beta).  Each size is rounded up
        to the next even integer with no prime factor above 11 (_fft_size).

        An even integer power p says that the rule integrates |K|^p over
        whole circles, for kernels of scale N under any cutoff.  Then
        |K_j|^p |sin theta|^(d-1) is a cosine polynomial of degree
        p n_top + d - 1, n_top = space.top_degree, which the trapezoid rule
        integrates exactly on more nodes than that: each size is capped at
        _fft_size(p n_top + d), taken no lower than the aliasing floor
        (_floor_size).  Any other power keeps the oversampled sizes.  rules
        names the rule that set each size, "degree-exact" where it is below
        the oversampled size, else "oversample"; a rule built otherwise has none.

        N < 1 is a ValueError, and so is an oversampled grid whose sampling
        would peak past FAREY_BYTES (GRID_NODE_BYTES per node, CHAIN_BYTES per
        lam and unit of bandwidth, summed over factors), whatever the power.
        """
        if oversample < 1:
            raise ValueError(f"need oversample >= 1, got {oversample}")
        if N < 1:
            raise ValueError(f"need N >= 1, got {N}")
        nominal = [oversample * (2.0 * N + f.lam) * max(1.0, math.sqrt(f.beta))
                   for f in space.factors]
        peak = sum((GRID_NODE_BYTES + CHAIN_BYTES * f.lam / oversample) * nodes
                   for f, nodes in zip(space.factors, nominal))
        if not peak <= FAREY_BYTES:  # also catches an inf or nan size
            raise ValueError(f"N = {N} needs a grid of {peak:.3g} bytes > {FAREY_BYTES}")
        exact = power is not None and float(power).is_integer() and int(power) % 2 == 0
        sizes, rules = [], []
        for f, nodes in zip(space.factors, nominal):
            M = oversampled = _fft_size(math.ceil(nodes))
            if exact:
                degree = int(power) * top_degree(f.lam, f.beta, N) + f.dim
                cap = max(degree, _floor_size(f, N))
                if cap < M:  # min(M, _fft_size(cap)), as _fft_size is monotone
                    M = _fft_size(cap)
            sizes.append(M)
            rules.append("degree-exact" if M < oversampled else "oversample")
        return cls(space, tuple(sizes), tuple(rules))

    def nodes(self, j: int) -> np.ndarray:
        """Factor j's half grid, as pi (k / (M/2)): 0, pi/2 (M/2 even) and pi are exact."""
        H = self.sizes[j] // 2
        return math.pi * (np.arange(H + 1) / H)

    def weights(self, j: int) -> np.ndarray:
        """Probability weights of factor j's nodes: the normalized density
        |sin theta|^(d-1) times the step 2 pi / M, doubled inside (0, pi),
        where each node also stands for its mirror image 2 pi - theta.
        Computed once per rule, and read-only."""
        return self._weights[j]

    @cached_property
    def _weights(self) -> tuple[np.ndarray, ...]:
        out = []
        for j, f in enumerate(self.space.factors):
            step = 2.0 * math.pi / self.sizes[j]
            w = density_normalizer(f.dim) * step * np.abs(np.sin(self.nodes(j))) ** (f.dim - 1)
            w[1:-1] *= 2.0
            w.setflags(write=False)
            out.append(w)
        return tuple(out)

    def mask(self, j: int, key: str, radius: float | None) -> np.ndarray:
        """Factor j's nodes in a piece's node set: the whole circle ('full'),
        the radius box around a pole ('pole0', 'pole1') or the rest ('away').
        Computed once per rule, factor and radius, and read-only."""
        if (j, key, radius) not in self._masks:
            grid = self.nodes(j)
            if key == "full":
                found = {"full": np.ones(grid.shape, dtype=bool)}
            else:
                found = _factor_masks(grid, radius)
            for name, m in found.items():
                m.setflags(write=False)
                self._masks[(j, name, radius)] = m
        return self._masks[(j, key, radius)]

    @cached_property
    def _masks(self) -> dict:
        return {}

    def doubled(self) -> "TorusQuadrature":
        """The rule on twice the nodes; 2M stays even, and 11-smooth if M is."""
        return TorusQuadrature(self.space, tuple(2 * M for M in self.sizes))


@dataclass
class FieldSample:
    """Factored half-grid samples of a zonal function, with optional
    per-factor evaluators at fresh angles, which a sup needs (sup_norm)."""

    space: ProductSpace
    quad: TorusQuadrature
    factor_values: tuple[np.ndarray, ...]
    evaluators: tuple[Callable[[np.ndarray], np.ndarray], ...] | None = None

    def evaluate_factor(self, j: int, theta) -> np.ndarray:
        if self.evaluators is None:
            raise ValueError("this sampled field carries no evaluator")
        return self.evaluators[j](np.asarray(theta, dtype=float))


def _factor_masks(grid: np.ndarray, radius: float) -> dict[str, np.ndarray]:
    """Disjoint node partition: box around each pole, remainder away."""
    near0 = np.minimum(grid, 2.0 * math.pi - grid) <= radius
    near1 = (np.abs(grid - math.pi) <= radius) & ~near0
    return {"pole0": near0, "pole1": near1, "away": ~(near0 | near1)}


def _floor_size(f, N: float) -> int:
    """The fewest nodes factor f's grid may have for a scale-N kernel.

    |K|^2 has bandwidth 2 (n_max + lam), n_max ~ 2N sqrt(beta) the
    shell's top degree, never taken below 2N; add the density.
    """
    n_max = max(top_degree(f.lam, f.beta, N), math.ceil(2.0 * N))
    return 2 * (n_max + f.lam) + f.dim


def _resolution_floor(space: ProductSpace, quad: TorusQuadrature, N: float | None) -> None:
    """Reject grids below twice the bandwidth of scale N (Parseval would alias).

    N is None for a field of no scale, which any grid may sample."""
    if N is None:
        return
    for j, f in enumerate(space.factors):
        need = _floor_size(f, N)
        if quad.sizes[j] < need:
            raise QuadratureError(
                f"factor {j}: grid of {quad.sizes[j]} nodes under-resolves "
                f"scale N = {N} (need >= {need})"
            )


def _pieces(r: int, region: Region, sup: bool) -> list[tuple[int, str, float | None]]:
    """The per-factor pieces (factor, node set, radius) a region combines.

    Full and corner regions take one piece per factor: the whole circle or
    the chosen pole box.  The away region takes the rest of every factor's
    circle; an integral adds both pole boxes, and a sup on a product adds
    the whole circles.
    """
    if region.kind == "corner":
        if len(region.poles) != r:
            raise ValueError(f"corner region has {len(region.poles)} poles for rank {r}")
        return [(j, f"pole{p}", region.radius) for j, p in enumerate(region.poles)]
    full = [(j, "full", None) for j in range(r)]
    if region.kind == "full":
        return full
    if sup:
        return [(j, "away", region.radius) for j in range(r)] + (full if r > 1 else [])
    return [(j, key, region.radius) for j in range(r) for key in ("away", "pole0", "pole1")]


def _combine(r: int, region: Region, value: dict, sup: bool) -> float:
    """A region's integral of |K|^p (or its sup) from its pieces' values.

    Full and corner regions multiply across factors.  Away from the
    corners, a node has a nonempty set S of factors away from their poles,
    so an integral sums, over every such S, the product of the away pieces
    of S and the pole boxes of the others: positive terms only.  A sup is
    the best single factor away from its poles times the full sups of the
    others.
    """
    if region.kind != "away":
        return math.prod(value[piece] for piece in _pieces(r, region, sup))
    away = [value[(j, "away", region.radius)] for j in range(r)]
    if sup:
        return max(
            math.prod([away[j]] + [value[(i, "full", None)] for i in range(r) if i != j])
            for j in range(r)
        )
    # some: the sets S over the factors so far that are nonempty; none: S empty
    some, none = 0.0, 1.0
    for j, a in enumerate(away):
        b = value[(j, "pole0", region.radius)] + value[(j, "pole1", region.radius)]
        some, none = some * (a + b) + none * a, none * b
    return some


def _integrals(field, p: float, pieces) -> dict:
    """The integral of |K_j|^p over each piece's nodes; |K_j|^p is taken
    once per factor and let go on return."""
    value = {}
    for j in range(field.space.r):
        with np.errstate(over="ignore", invalid="ignore"):  # _norms rejects a non-finite norm
            contrib = field.quad.weights(j) * np.abs(field.factor_values[j]) ** p
            for piece in pieces:
                if piece[0] == j:
                    part = contrib if piece[1] == "full" else contrib[field.quad.mask(*piece)]
                    value[piece] = float(np.sum(part))
    return value


def lp_norm(field, p: float, region: Region | None = None):
    """Regional L^p norm of a factored field under the probability measure.

    p = inf delegates to sup_norm.  Raises QuadratureError when the field's
    grid is below the aliasing floor for its frequency scale N (a field
    without N is not checked), and ValueError
    naming p (and N) when a norm is not finite: |K|^p overflows at large p.

    Given an iterable of fields and a list of regions instead, returns one
    list of norms per field, one per region: each field's |K_j|^p is taken
    once per factor whatever the regions.  The values are those of one
    call per field and region.
    """
    if p == math.inf:
        return sup_norm(field, region)
    if not p > 0:
        raise ValueError(f"need p > 0, got {p}")
    return _norms(field, region, p)


# A sup proxy interpolates |K_j|^2 at the Chebyshev-Lobatto points cos(pi i / m),
# m = SUP_NODES - 1; row i of _DCT (a DCT-I) is point i's share of each coefficient.
SUP_NODES = 16
SUP_CERT_TOL = 1e-6  # a larger tail certificate samples the piece densely
SUP_DENSE = 257  # evenly spaced angles of that dense sample
_LOBATTO = np.cos(math.pi * np.arange(SUP_NODES) / (SUP_NODES - 1))
_HALF = np.where(np.arange(SUP_NODES) % (SUP_NODES - 1), 1.0, 0.5)
_DCT = np.cos(math.pi / (SUP_NODES - 1) * np.outer(np.arange(SUP_NODES), np.arange(SUP_NODES)))
_DCT *= (2.0 / (SUP_NODES - 1)) * np.outer(_HALF, _HALF)


@dataclass
class _SupPiece:
    """A sup piece (factor, node set, radius), its interval and its evaluator."""

    owner: object  # its evaluate_factor computes the piece's values
    time: float | None  # the piece's time, when the owner takes one per angle
    lo: float
    hi: float
    first: np.ndarray  # angles the first sweep adds to the proxy's points
    sup: dict  # where the piece's sup is written
    piece: tuple


def _grid_sups(field, pieces, owners: dict, pending: list[_SupPiece]) -> dict:
    """Put each piece of field on pending, with its interval and first
    angles (sup_norm), for _proxy_sups to write its sup into the returned
    dict; a piece with no node is 0.  No grid value is ever a sup."""
    value = {}
    owner, time = field, None
    if hasattr(field, "t"):
        # kernel fields with the same spectra evaluate given one time per
        # angle, so all share one owner: a copy of the first, never sampled
        key = tuple(map(id, field.spectra))
        owner, time = owners.setdefault(key, replace(field)), field.t
    for piece in pieces:
        j, key, radius = piece
        grid = field.quad.nodes(j)
        mask = field.quad.mask(j, key, radius)
        if not mask.any():
            value[piece] = 0.0
            continue
        idx = np.flatnonzero(mask)
        if key.startswith("pole"):
            lo, hi = (0.0, radius) if key == "pole0" else (math.pi - radius, math.pi)
            pending.append(_SupPiece(owner, time, lo, hi, grid[idx], value, piece))
            continue
        h, edge = 2.0 * math.pi / field.quad.sizes[j], radius or 0.0
        for i, k in enumerate(_seeds(field, j, idx)):
            lo, hi = max(grid[k] - h, edge), min(grid[k] + h, math.pi - edge)
            first = grid[k : k + 1]
            if key == "away" and i == 0:  # |K| may still be falling from the boxes there
                first = np.append(first, (edge, math.pi - edge))
            pending.append(_SupPiece(owner, time, lo, hi, first, value, piece))
    return value


def _seeds(field, j: int, idx: np.ndarray) -> np.ndarray:
    """The nodes of a full or away piece (node indices idx, a run of the
    half grid) whose intervals its sup refines: the grid argmax of |K_j|,
    then every other grid local maximum that refinement could still lift
    above it.  A piece's end node is compared with its inner neighbour only.

    |K_j|^2 is a cosine polynomial of degree D = 2 (n_max + lam) (see
    _floor_size), so on M nodes a local maximum lies within pi/M of a node
    and rises above it by at most (D pi/M)^2 / 2 times sup |K_j|^2
    (Bernstein), and sup |K_j|^2 is at most the grid maximum over
    cos(D pi/M) (Szego) when D pi/M < pi/2; on a coarser grid every local
    maximum is a seed.  A field without N seeds its argmax alone.
    """
    size = np.abs(np.asarray(field.factor_values[j]))
    top = int(np.argmax(size[idx]))
    N = getattr(field, "N", None)
    if N is None:
        return idx[top : top + 1]
    f = field.space.factors[j]
    x = math.pi * (_floor_size(f, N) - f.dim) / field.quad.sizes[j]
    rise = 0.5 * x * x / math.cos(x) * float(size.max()) ** 2 if x < math.pi / 2 else math.inf
    piece = size[idx] ** 2
    end = np.full(1, -1.0)
    peak = (piece >= np.concatenate([piece[1:], end])) & (piece >= np.concatenate([end, piece[:-1]]))
    peak &= piece >= piece[top] - rise
    peak[top] = False
    return np.concatenate([idx[top : top + 1], idx[peak]])


def _sweep(pending: list[_SupPiece], angles: list[np.ndarray]) -> list[np.ndarray]:
    """|values| of each pending piece at its angles, by one evaluate_factor
    call per owner and factor for all of them."""
    batches: dict[tuple[int, int], list[int]] = {}
    for i, ref in enumerate(pending):
        batches.setdefault((id(ref.owner), ref.piece[0]), []).append(i)
    out: list = [None] * len(pending)
    for batch in batches.values():
        ref = pending[batch[0]]
        sizes = [angles[i].size for i in batch]
        args = [ref.piece[0], np.concatenate([angles[i] for i in batch])]
        if ref.time is not None:
            args.append(np.repeat([pending[i].time for i in batch], sizes))
        vals = ref.owner.evaluate_factor(*args)
        for i, part in zip(batch, np.split(np.abs(vals), np.cumsum(sizes)[:-1])):
            out[i] = part
    return out


def _clenshaw(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k c[i, k] T_k(x[i, l]) for every row i of c and column l of x."""
    b1 = b2 = np.zeros_like(x)
    for k in range(c.shape[1] - 1, 0, -1):
        b1, b2 = c[:, k, None] + 2.0 * x * b1 - b2, b1
    return c[:, :1] + x * b1 - b2


def _derivative(c: np.ndarray) -> np.ndarray:
    """The Chebyshev coefficients of the derivative of each row's series."""
    d = np.zeros((c.shape[0], c.shape[1] + 1))
    for k in range(c.shape[1] - 1, 0, -1):
        d[:, k - 1] = d[:, k + 1] + 2.0 * k * c[:, k]
    return d[:, :-2] * _HALF[: c.shape[1] - 1]


def _proxy_argmax(c: np.ndarray) -> np.ndarray:
    """The argmax on [-1, 1] of each row's Chebyshev series: the best of 65
    evenly spaced points, moved by Newton steps on the derivative wherever
    the series is concave, and kept only if the series is no lower there."""
    coarse = np.linspace(-1.0, 1.0, 65)
    vals = _clenshaw(c, np.broadcast_to(coarse, (c.shape[0], coarse.size)))
    x = coarse[np.argmax(vals, axis=1), None]
    d1 = _derivative(c)
    d2 = _derivative(d1)
    y = x
    for _ in range(4):
        curv = _clenshaw(d2, y)
        y = np.clip(y - _clenshaw(d1, y) / np.where(curv < 0.0, curv, -np.inf), -1.0, 1.0)
    return np.where(_clenshaw(c, y) >= vals.max(axis=1, keepdims=True), y, x)[:, 0]


def _proxy_sups(pending: list[_SupPiece]) -> None:
    """Write the sup of every pending piece from two sweeps (see sup_norm).
    The proxy arithmetic is elementwise across pieces, so no piece's sup
    depends on the others."""
    if not pending:
        return
    lo = np.array([ref.lo for ref in pending])[:, None]
    hi = np.array([ref.hi for ref in pending])[:, None]
    cheb = lo + (hi - lo) * (1.0 + _LOBATTO) / 2.0
    cheb[:, :1], cheb[:, -1:] = hi, lo
    first = _sweep(pending, [np.concatenate([row, ref.first]) for row, ref in zip(cheb, pending)])
    g = np.stack([vals[:SUP_NODES] for vals in first]) ** 2
    c = np.zeros_like(g)
    for i in range(SUP_NODES):
        c += g[:, i, None] * _DCT[i]
    flagged = np.abs(c[:, -2:]).max(axis=1) > SUP_CERT_TOL * np.abs(c).max(axis=1)
    at = lo[:, 0] + (hi - lo)[:, 0] * (1.0 + _proxy_argmax(c)) / 2.0
    second = [
        np.append(a, np.linspace(ref.lo, ref.hi, SUP_DENSE) if flag else [])
        for a, flag, ref in zip(at, flagged, pending)
    ]
    for ref, one, two in zip(pending, first, _sweep(pending, second)):
        ref.sup[ref.piece] = max(ref.sup.get(ref.piece, 0.0), float(max(one.max(), two.max())))


def _norms(fields, regions, p: float):
    """The L^p norms (sups at p = inf) of every field over every region.

    Each field gives the value of every distinct piece its regions combine
    once, its integral of |K_j|^p or its sup, and is then let go, its grid
    values with it (a kernel field samples them only if a piece reads
    them), before the next field is built.  The sups of all fields' pieces
    are then taken together.  A single field and region give a single
    norm.
    """
    if regions is None or isinstance(regions, Region):
        return _norms([fields], [regions or Region.full()], p)[0][0]
    regions = list(regions)
    sup = p == math.inf
    owners: dict = {}
    pending: list[_SupPiece] = []
    results = []
    for field in fields:
        r = field.space.r
        pieces = dict.fromkeys(piece for reg in regions for piece in _pieces(r, reg, sup))
        if not sup or any(not key.startswith("pole") for _, key, _ in pieces):
            # the pieces read grid values
            _resolution_floor(field.space, field.quad, getattr(field, "N", None))
        if sup:
            value = _grid_sups(field, pieces, owners, pending)
        else:
            value = _integrals(field, p, pieces)
        results.append((r, value, getattr(field, "N", None)))
        del field  # before the next field is built
    _proxy_sups(pending)
    norms = [[_combine(r, reg, value, sup) for reg in regions] for r, value, _ in results]
    norms = norms if sup else [[power ** (1.0 / p) for power in row] for row in norms]
    for row, (_, _, N) in zip(norms, results):
        if not all(map(math.isfinite, row)):
            at = "" if N is None else f", N = {N}"
            raise ValueError(f"the L^p norm at p = {p:g}{at} is not finite")
    return norms


def sup_norm(field, region: Region | None = None):
    """Sup of |field| over the region: the largest value the field's own
    evaluate_factor gives at angles a Chebyshev proxy chooses.

    Each piece the region combines (_pieces) spans an interval: a pole box
    [pole, pole +- radius], as a kernel is even about its poles, and a full
    or away piece one interval per seed node (_seeds: the grid argmax and
    every grid local maximum that refinement could lift above it) +- one
    grid step, clipped to the piece.  Sweep 1 evaluates SUP_NODES
    Chebyshev-Lobatto points of each interval, its ends among them, and
    every box node (or the seed node, and for an away piece's argmax both
    edges of the region, where |K| may still be falling from the boxes).
    The
    Chebyshev coefficients of |K_j|^2 there give an interpolant and a tail
    certificate, the larger of the last two against the largest.  Sweep 2
    evaluates the interpolant's argmax and, where the certificate exceeds
    SUP_CERT_TOL (a box at the recurrence's rounding floor, whose proxy
    follows noise), the dense fallback: SUP_DENSE evenly spaced angles.
    The sup is the largest value evaluated, never a grid value, so a
    FieldSample without evaluators is a ValueError.  A full or away piece
    reads grid values for its seeds, so its grid must clear the aliasing
    floor, as an integral's must (lp_norm).  A pole box reads no grid
    value, so corner sups never sample a kernel field's grid.

    Given an iterable of fields and a list of regions instead, returns one
    list of sups per field, one per region.  Each piece is measured once
    however many regions share it, and each sweep is one evaluate_factor
    call per factor for the pieces of all kernel fields with the same
    spectra.  The values are those of one call per field and region.
    """
    return _norms(field, region, math.inf)


def resolution_check(
    field, p: float = 2.0, region: Region | None = None, tol: float = RESOLUTION_TOL
) -> tuple[bool, float]:
    """Empirical convergence gate: recompute the norm on the doubled rule.

    Returns (passed, relative_change).  Needs a field with a resample
    method (kernel fields sample themselves again through the grid route).
    """
    base = lp_norm(field, p, region)
    refined = lp_norm(field.resample(field.quad.doubled()), p, region)
    rel = abs(refined - base) / max(abs(refined), np.finfo(float).tiny)
    return rel < tol, rel
