"""Scaling-exponent scans: measure kernel norms, fit log-log slopes, judge.

Every scan follows the same scheme.  For a geometric ladder of frequency
scales N and a set of major arcs a/q sampled at within-arc offsets delta
(so t/T = a/q + delta with |delta| below the arc half-width 1/(qN)), a
regional norm of the kernel is measured and divided by its predicted
envelope

    N^target / [sqrt(q) (1 + N ||t/T - a/q||^{1/2})]^r,

giving a dimensionless ratio.  If the envelope is honest, the per-N worst
ratio is bounded; at desk scale the epsilon factors and powers of log N in
the envelope show up as a small positive fitted slope, so each scan carries
an explicit slope budget (default 0.30) instead of a free epsilon.

One private engine (_scan) does the folding, fitting and judging for every
mode; a mode only says how to measure the records of one N.

Minor-arc times prove nothing and never enter verdicts: scan times are
constructed inside chosen windows (center plus exact rational offsets), so
every measured time is major by construction.  Arbitrary times can be
classified (and minor ones reported) through the arcs module.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from . import measure
from .kernel import Bump, _spectrum, kernel_product
from .measure import DEFAULT_OVERSAMPLE, Region, TorusQuadrature
from .space import ProductSpace, format_rational
from .specialfn import phi_matrix

__all__ = [
    "ScanPlan",
    "ScanRecord",
    "ScalingReport",
    "fit_loglog",
    "decay_scan",
    "corner_scan",
    "kappa_scan",
    "threshold_check",
    "strichartz_zonal_scan",
    "write_report",
]

DEFAULT_N_LIST = (16, 32, 64, 128, 256, 512)
DEFAULT_ARCS = ((0, 1), (1, 2), (1, 3), (2, 5))
DEFAULT_OFFSETS = (Fraction(0), Fraction(1, 4), Fraction(1, 2))
DEFAULT_TOLERANCE = 0.30
# The space-time scan runs three loops.  It sums each trial's angle
# integral in blocks of SPACETIME_BLOCK quarter-grid angles (each serves
# twice as many half-grid nodes; a last short block stays short), a fixed
# order that keeps its records bit-stable, and evaluates phi_n one block at
# a time.  Within a block it runs the T time samples in groups of
# SPACETIME_GROUP (the last group may be short): a group's phases are
# computed once, then each trial takes two GEMMs giving the even and odd
# sums over the group's samples and one |E +- O|^p pass.  No GEMM element
# changes its order of summation and each power row is one GEMV over its
# block, so the records do not depend on the group size.  Its memory is
# modes x block plus the buffers of one group (G x modes complex phases and
# products, 2G x modes doubles of A, 2 x 2G x block doubles of sums and
# 4G x block of E +- O); only the trials x T power rows and the T drawn
# times grow with T, and the trials' drawn coefficients add trials x modes.
# Groups of 64 keep the GEMMs at 128 rows, where BLAS runs near its peak;
# groups of 32 made the N = 16..512 scan 8-21% slower on 2 vCPUs.
SPACETIME_BLOCK = 512
SPACETIME_GROUP = 64


def fit_loglog(pairs: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """Least squares on (log N, log value); returns (slope, intercept, rms residual).

    Closed form on the centred logs, so no LAPACK call is made."""
    if len(pairs) < 3:
        raise ValueError(f"need at least 3 points to fit, got {len(pairs)}")
    ns = [float(n) for n, _ in pairs]
    vs = [float(v) for _, v in pairs]
    if len(set(ns)) != len(ns):
        raise ValueError("N values must be distinct")
    if any(v <= 0 for v in vs) or any(n <= 0 for n in ns):
        raise ValueError("log-log fit needs positive values")
    x = np.log(np.array(ns))
    y = np.log(np.array(vs))
    dx = x - x.mean()
    slope = float(np.sum(dx * (y - y.mean())) / np.sum(dx * dx))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    return slope, intercept, float(np.sqrt(np.mean(resid**2)))


def _slope_stderr(pairs: Sequence[tuple[float, float]], slope: float, intercept: float) -> float:
    x = np.log(np.array([n for n, _ in pairs], dtype=float))
    y = np.log(np.array([v for _, v in pairs], dtype=float))
    resid = y - (slope * x + intercept)
    dof = max(len(x) - 2, 1)
    sxx = float(np.sum((x - x.mean()) ** 2))
    return float(math.sqrt(float(np.sum(resid**2)) / dof / sxx))


def _check_ladder(N_list: Sequence[int], tolerance: float) -> None:
    """A scan needs three or more distinct scales N >= 1, the fewest a slope
    fit takes, and a finite slope budget: checked before any kernel is sampled."""
    if len(set(N_list)) != len(N_list):
        raise ValueError(f"N values must be distinct, got {list(N_list)}")
    if len(N_list) < 3:
        raise ValueError(f"need at least 3 scales N to fit a slope, got {list(N_list)}")
    if min(N_list) < 1:
        raise ValueError(f"need every N >= 1, got {min(N_list)}")
    if not math.isfinite(tolerance):
        raise ValueError(f"need a finite tolerance, got {tolerance}")


@dataclass(frozen=True)
class ScanPlan:
    """Work list for a ratio scan: the one declaration of its settings and defaults."""

    space: ProductSpace
    p: float
    N_list: Sequence[int] = DEFAULT_N_LIST
    arcs: Sequence[tuple[int, int]] = DEFAULT_ARCS
    offsets: Sequence[Fraction] = DEFAULT_OFFSETS  # as fractions of the half-width
    bump: Bump = field(default_factory=Bump)
    oversample: int = DEFAULT_OVERSAMPLE
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        object.__setattr__(self, "N_list", tuple(self.N_list))
        object.__setattr__(self, "arcs", tuple(tuple(arc) for arc in self.arcs))
        object.__setattr__(self, "offsets", tuple(self.offsets))
        if not self.p > 0:
            raise ValueError(f"need p > 0, got {self.p}")
        _check_ladder(self.N_list, self.tolerance)
        n_min = min(self.N_list)
        for i, (a, q) in enumerate(self.arcs):
            if (a, q) in self.arcs[:i]:
                raise ValueError(f"arcs must be distinct, got {a}/{q} twice")
            if math.gcd(a, q) != 1 or not (0 <= a < q or (a, q) == (0, 1)):
                raise ValueError(f"arc {a}/{q} is not a reduced fraction in [0,1)")
            if not q < n_min:
                raise ValueError(f"arc denominator {q} must stay below min N = {n_min}")
        for i, off in enumerate(self.offsets):
            if not (0 <= off < 1):
                raise ValueError(f"offsets are fractions of the half-width, got {off}")
            if off in self.offsets[:i]:
                raise ValueError(f"offsets must be distinct, got {off} twice")


# the fields of a record in report order: the CSV columns and the JSON keys
RECORD_FIELDS = (
    "N", "tau", "a", "q", "dist", "p", "region", "norm", "bound_denominator", "ratio",
)


def _json_p(p: float | None):
    return "inf" if p == math.inf else p


@dataclass
class ScanRecord:
    N: int
    tau: str  # exact t/T as 'a/q + f/(qN)'
    a: int
    q: int
    dist: float  # ||t/T - a/q||
    p: float | None
    region: str
    norm: float
    bound_denominator: float
    ratio: float
    extra: dict = field(default_factory=dict)

    def row(self) -> list:
        """CSV cells; the csv module writes floats by repr and None as ''."""
        return [getattr(self, name) for name in RECORD_FIELDS]

    def to_json(self) -> dict:
        out = {name: getattr(self, name) for name in RECORD_FIELDS}
        out["p"] = _json_p(self.p)
        if self.extra:
            out["extra"] = self.extra
        return out


@dataclass
class ScalingReport:
    mode: str
    space: dict
    p: float | None
    target_exponent: float
    tolerance: float
    records: list[ScanRecord]
    worst_per_N: list[tuple[int, float]]
    fitted_slope: float
    slope_CI: float
    residual: float
    verdict: str
    warnings: list[str] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "mode": self.mode,
            "space": self.space,
            "p": _json_p(self.p),
            "target_exponent": self.target_exponent,
            "tolerance": self.tolerance,
            "fitted_slope": self.fitted_slope,
            "slope_CI": self.slope_CI,
            "residual": self.residual,
            "verdict": self.verdict,
            "warnings": self.warnings,
            "params": self.params,
            "worst_per_N": [[n, v] for n, v in self.worst_per_N],
            "records": [rec.to_json() for rec in self.records],
        }


def write_report(report: ScalingReport, json_path=None, csv_path=None) -> None:
    if json_path is not None:
        with open(json_path, "w") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if csv_path is not None:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RECORD_FIELDS)
            for rec in report.records:
                writer.writerow(rec.row())


def bound_denominator(q: int, N: float, dist: float, r: int) -> float:
    """[sqrt(q) (1 + N dist^{1/2})]^r, the arc-decay envelope denominator."""
    return float((math.sqrt(q) * (1.0 + N * math.sqrt(dist))) ** r)


def _arc_time_points(
    arcs: Sequence[tuple[int, int]], offsets: Sequence[Fraction], N: float
) -> list[tuple[int, int, Fraction, float]]:
    """(a, q, tau, dist) for every arc at every within-arc offset, N exact."""
    points = []
    for a, q in arcs:
        halfwidth = 1 / (q * Fraction(N))
        for off in offsets:
            delta = Fraction(off) * halfwidth
            points.append((a, q, Fraction(a, q) + delta, float(delta)))
    return points


def _tau_label(a: int, q: int, tau: Fraction) -> str:
    delta = tau - Fraction(a, q)
    if delta == 0:
        return f"{a}/{q}"
    return f"{a}/{q}+{format_rational(delta)}"


def _grid_rule(
    space: ProductSpace, N: int, oversample: int, power: float | None, grids: list
) -> TorusQuadrature:
    """The rule of scale N, degree-exact for an even power (for_kernel).

    Appends to grids each factor's size and the rule that set it: the
    oversampled size, or the degree-exact cap where that is smaller.
    """
    oversampled = TorusQuadrature.for_kernel(space, N, oversample)
    quad = TorusQuadrature.for_kernel(space, N, oversample, power=power)
    grids.append(
        {
            "N": N,
            "sizes": list(quad.sizes),
            "rules": [
                "degree-exact" if M < M_over else "oversample"
                for M, M_over in zip(quad.sizes, oversampled.sizes)
            ],
        }
    )
    return quad


def _scan(
    mode: str,
    space: ProductSpace,
    p: float,
    target: float,
    tolerance: float,
    N_list: Sequence[int],
    measure_N: Callable[[int], Iterable[ScanRecord]],
    params: dict,
) -> ScalingReport:
    """The one scan engine: per-N records, worst ratio per N, one fit, one verdict."""
    records: list[ScanRecord] = []
    worst: list[tuple[int, float]] = []
    for N in N_list:
        worst_ratio = 0.0
        for rec in measure_N(N):
            records.append(rec)
            worst_ratio = max(worst_ratio, rec.ratio)
        worst.append((N, worst_ratio))
    slope, intercept, resid = fit_loglog(worst)
    return ScalingReport(
        mode=mode,
        space=space.describe(),
        p=p,
        target_exponent=target,
        tolerance=tolerance,
        records=records,
        worst_per_N=worst,
        fitted_slope=slope,
        slope_CI=_slope_stderr(worst, slope, intercept),
        residual=resid,
        verdict="pass" if slope <= tolerance else "fail",
        params=params,
    )


def _arc_scan(
    plan: ScanPlan,
    mode: str,
    target: float,
    regions_for_N: Callable[[int], Sequence[Region]],
    nu: int | None = None,
) -> ScalingReport:
    """Regional L^p norms over (N, arc, offset, region) against the arc envelope.

    The field is the kernel, or with nu its numerator sum kappa^(nu).  A
    scan at an even p over full regions only integrates on the degree-exact
    rule, every other scan on the oversampled rule.
    """
    space = plan.space
    extra = {} if nu is None else {"nu": nu}
    grids: list = []

    def measure_N(N: int):
        regions = regions_for_N(N)
        whole = all(region.kind == "full" for region in regions)
        power = plan.p if whole else None
        quad = _grid_rule(space, N, plan.oversample, power, grids)
        points = _arc_time_points(plan.arcs, plan.offsets, N)
        fields = (
            kernel_product(space, N, float(tau) * space.period_seconds, quad, plan.bump, nu)
            for _, _, tau, _ in points
        )
        norms = measure.lp_norm(fields, plan.p, regions)
        for (a, q, tau, dist), row in zip(points, norms):
            denom = bound_denominator(q, N, dist, space.r)
            for region, norm in zip(regions, row):
                yield ScanRecord(
                    N=N,
                    tau=_tau_label(a, q, tau),
                    a=a,
                    q=q,
                    dist=dist,
                    p=plan.p,
                    region=region.label(),
                    norm=norm,
                    bound_denominator=denom,
                    ratio=norm * denom / N**target,
                    extra=dict(extra),
                )

    params = {
        **extra,
        "N_list": list(plan.N_list),
        "arcs": [f"{a}/{q}" for a, q in plan.arcs],
        "offsets": [format_rational(o) for o in plan.offsets],
        "bump": plan.bump.kind,
        "oversample": plan.oversample,
        "grids": grids,
    }
    return _scan(
        mode, space, plan.p, target, plan.tolerance, plan.N_list, measure_N, params
    )


def _lp_target(space: ProductSpace, p: float) -> float:
    """Envelope exponent d - d/p; d at p = inf."""
    return space.d - space.d / p


def decay_scan(plan: ScanPlan) -> ScalingReport:
    """Arc-decay ratio scan of regional L^p norms against N^{d - d/p}.

    Valid for p >= s; smaller p still runs but the report is flagged
    exploratory.  p = inf uses the sup norm against N^d.
    """
    space = plan.space
    target = _lp_target(space, plan.p)
    report = _arc_scan(plan, "decay", target, lambda N: [Region.full()])
    if plan.p < float(space.s):
        report.warnings.append(
            f"exploratory: p={plan.p} is below the validity floor s={format_rational(space.s)}"
        )
    return report


def corner_scan(space: ProductSpace, p: float, *args, **settings) -> ScalingReport:
    """Corner-neighborhood ratio scan; the envelope holds for every p > 0.

    Each radius-1/N box around each product corner is scanned; the fit uses
    the per-N worst ratio over corners, arcs, and offsets.  Further
    arguments (N_list, arcs, offsets, ...) are ScanPlan's.
    """
    plan = ScanPlan(space, p, *args, **settings)

    def corners(N: int) -> list[Region]:
        return [Region.corner(poles, 1.0 / N) for poles in np.ndindex(*(2,) * space.r)]

    return _arc_scan(plan, "corner", _lp_target(space, p), corners)


def kappa_scan(space: ProductSpace, nu: int, *args, **settings) -> ScalingReport:
    """Sup-norm scan of the numerator sums kappa_N^{(nu)} against N^{lam - nu + 1}.

    Further arguments (N_list, arcs, offsets, ...) are ScanPlan's.
    """
    if space.r != 1:
        raise ValueError("kappa scans are per sphere factor; pass a rank-one space")
    lam = space.factors[0].lam
    plan = ScanPlan(space, math.inf, *args, **settings)
    return _arc_scan(plan, "kappa", lam - nu + 1.0, lambda N: [Region.full()], nu)


def threshold_check(space: ProductSpace, p: float, *args, **settings) -> ScalingReport:
    """Away-from-corners ratio scan probing the integrability floor 2d/(d-1).

    Below the floor the away-region envelope genuinely fails; the failure
    is visible at the worst within-arc offsets, where the kernel has fully
    dispersed onto the region, so offset sampling matters here.  Further
    arguments (N_list, arcs, offsets, ...) are ScanPlan's.
    """
    if space.r != 1:
        raise ValueError("the threshold probe is a single-sphere statement")
    plan = ScanPlan(space, p, *args, **settings)
    report = _arc_scan(
        plan, "threshold", _lp_target(space, p), lambda N: [Region.away(1.0 / N)]
    )
    d = space.d
    p_floor = 2.0 * d / (d - 1.0)
    report.params["p_floor"] = p_floor
    if p < p_floor:
        report.warnings.append(
            f"exploratory: p={p} is below the away-region floor 2d/(d-1)={p_floor}"
        )
    return report


def _random_shell_state(
    rng: np.random.Generator, n_shell: np.ndarray, dims: np.ndarray
) -> np.ndarray:
    """Complex-Gaussian coefficients on the shell, normalized to unit L2."""
    c = rng.standard_normal(n_shell.size) + 1j * rng.standard_normal(n_shell.size)
    c /= math.sqrt(float(np.sum(np.abs(c) ** 2 * dims)))
    return c


def _abs_power(u: np.ndarray, p: float) -> np.ndarray:
    """|u|^p for u stacked as real parts over imaginary parts; overwrites u.

    s = re^2 + im^2 lands in the real half; an integer p/2 is then taken by
    left-to-right binary powering into the imaginary half, any other p/2 by
    one in-place power.
    """
    split = len(u) // 2
    re, im = u[:split], u[split:]
    re *= re
    im *= im
    re += im
    half = p / 2.0
    if not half.is_integer():
        re **= half
        return re
    power = re
    for bit in bin(int(half))[3:]:
        power = np.multiply(power, power, out=im)
        if bit == "1":
            power *= re
    return power


def strichartz_zonal_scan(
    space: ProductSpace,
    p: float,
    N_list: Sequence[int] = DEFAULT_N_LIST,
    trials: int = 20,
    *,
    seed: int = 0,
    time_samples: int = 192,
    bump: Bump = Bump(),
    oversample: int = DEFAULT_OVERSAMPLE,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ScalingReport:
    """Worst-of-trials space-time L^p growth of random frequency-shell data.

    Coefficients are complex Gaussian on the bump's shell at scale N with
    unit L2 norm; the space-time norm uses the probability measure on the
    space and the normalized time average over one flow period, sampled at
    stratified-random times (the p-th power of the flow is far from
    band-limited in t, so a dense deterministic t grid is infeasible; the
    stratified estimate is unbiased and seeded).  Each N draws its time
    samples, then its trials, from its own stream keyed by the seed and the
    exact N, so a record depends on (seed, N, trials, time_samples) alone,
    whatever the ladder, and never falls when a trial is added.  The angle
    integral takes the quadrature's half-grid rule, degree-exact at even p
    and oversampled otherwise (TorusQuadrature.for_kernel), on the open half
    grid 0 < theta < pi, folded exactly onto the quarter grid
    0 < theta <= pi/2 by the mode parity: phi_n is evaluated only there.
    Three loops run it: blocks of SPACETIME_BLOCK angles, one phi_matrix
    call each; within a block, groups of SPACETIME_GROUP time samples, each
    group's phases computed once; within a group, the trials.  Records do
    not depend on the group size.  Memory is modes x block plus the buffers
    of one group (its complex phases and products, its 2 x group x modes A,
    its 2 x 2 x group x block even and odd sums and 4 x group x block
    E +- O), the trials x modes drawn coefficients and the trials x T power
    rows: it grows neither with modes times grid size nor with trials or
    modes times time samples.  On S^3 at p = 8 with 20 trials and 192 time
    samples, traced allocations peak at 8.6 MiB on N = 16..512 (8.7 MiB
    with 768 time samples) and 14.4 MiB on 16..1024; the process's resident
    peak is 46 and 52 MB.  A grid below the aliasing floor of scale N
    raises QuadratureError.
    Pass verdict requires the fitted worst-trial exponent at or below
    d/2 - (d+2)/p plus budget.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if not 0 < p < math.inf:
        raise ValueError(f"need 0 < p < inf, got {p}")
    if time_samples < 1:
        raise ValueError(f"need time_samples >= 1, got {time_samples}")
    _check_ladder(N_list, tolerance)
    if space.r != 1:
        raise ValueError("random-data scans are implemented for rank-one spaces")
    f = space.factors[0]
    lam = f.lam
    d = space.d
    target = d / 2.0 - (d + 2.0) / p
    T_sec = space.period_seconds
    grids: list = []

    def measure_N(N: int):
        spec = _spectrum(lam, f.beta, N, bump)
        n_shell, dims, mu = spec.n, spec.dims, spec.mu
        quad = _grid_rule(space, N, oversample, p, grids)
        measure._resolution_floor(space, quad, N)  # else |u|^2 would alias
        # the rule's half grid 2 pi k / M, k = 0..H = M/2, already folds node
        # M - k onto node k; phi_n(pi - theta) = (-1)^n phi_n(theta) folds
        # half-grid node H - k onto node k with the odd modes negated.
        # Quarter-grid node k = 1..H//2 thus carries u(theta_k) = E + O and
        # u(theta_{H-k}) = E - O, E and O the even- and odd-mode sums; at
        # theta = pi/2 (k = H/2, H even) the two are one node, so each takes
        # half its weight.  The poles carry weight |sin theta|^(d-1): 0 at
        # theta = 0 and below 1e-31 at theta = pi, so both are left out.
        H = quad.sizes[0] // 2
        theta = quad.nodes(0)[1 : H // 2 + 1]
        weights = quad.weights(0)[1 : H // 2 + 1].copy()
        if H % 2 == 0:
            weights[-1] *= 0.5
        parity = n_shell % 2
        order = np.argsort(parity, kind="stable")  # even modes first
        n_even = parity.size - int(np.count_nonzero(parity))
        n_sorted = n_shell[order]
        T = time_samples
        rng = np.random.default_rng((seed, *Fraction(N).as_integer_ratio()))
        t_sec = (np.arange(T) + rng.random(T)) / T * T_sec
        mu_sorted = mu[order]
        # the draws keep the shell's own mode order
        scaled = [(_random_shell_state(rng, n_shell, dims) * dims)[order] for _ in range(trials)]
        # reused per block and group of time samples: its phases; per trial,
        # A, the group's (time, mode) product, real parts over imaginary
        # parts, the even and odd sums (rows in A's order), and E + O and
        # E - O laid out [near re; far re; near im; far im], so that one
        # |u|^p pass takes both.
        group = min(SPACETIME_GROUP, T)
        width = min(SPACETIME_BLOCK, theta.size)
        phase = np.empty((group, n_sorted.size), dtype=complex)
        product = np.empty_like(phase)
        A = np.empty((2 * group, n_sorted.size))
        sums = np.empty((2, 2 * group * width))
        signs = np.empty(4 * group * width)
        power = np.zeros((trials, T))  # integral of |u|^p over angles
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            for b in range(0, theta.size, SPACETIME_BLOCK):
                w = min(SPACETIME_BLOCK, theta.size - b)
                rows = phi_matrix(lam, n_sorted, theta[b : b + w])
                for g0 in range(0, T, group):
                    G = min(group, T - g0)
                    # exp(-i t mu) in place: 0 + i (-t mu), then exp
                    ph = phase[:G]
                    np.multiply.outer(t_sec[g0 : g0 + G], mu_sorted, out=ph.imag)
                    np.negative(ph.imag, out=ph.imag)
                    ph.real = 0.0
                    np.exp(ph, out=ph)
                    even, odd = (buf[: 2 * G * w].reshape(2 * G, w) for buf in sums)
                    pm = signs[: 4 * G * w].reshape(2, 2, G, w)
                    for acc, g in zip(power[:, g0 : g0 + G], scaled):
                        part = np.multiply(ph, g, out=product[:G])
                        A[:G] = part.real
                        A[G : 2 * G] = part.imag
                        np.matmul(A[: 2 * G, :n_even], rows[:n_even], out=even)
                        np.matmul(A[: 2 * G, n_even:], rows[n_even:], out=odd)
                        e, o = even.reshape(2, G, w), odd.reshape(2, G, w)
                        np.add(e, o, out=pm[:, 0])  # theta_k
                        np.subtract(e, o, out=pm[:, 1])  # theta_{H-k}
                        u = _abs_power(pm.reshape(4 * G, w), p)
                        u[:G] += u[G:]
                        acc += u[:G] @ weights[b : b + w]
                del rows  # else the next block's rows would be built beside it
            worst_norm = max(float(np.mean(f_t)) ** (1.0 / p) for f_t in power)
        if not math.isfinite(worst_norm):
            raise ValueError(f"the space-time L^p norm at p = {p:g}, N = {N} is not finite")
        yield ScanRecord(
            N=N,
            tau="[0,1)",
            a=0,
            q=1,
            dist=0.0,
            p=p,
            region="spacetime",
            norm=worst_norm,
            bound_denominator=1.0,
            ratio=worst_norm / N**target,
        )

    params = {
        "trials": trials,
        "seed": seed,
        "time_samples": time_samples,
        "N_list": list(N_list),
        "bump": bump.kind,
        "oversample": oversample,
        "grids": grids,
    }
    report = _scan("strichartz", space, p, target, tolerance, N_list, measure_N, params)
    if p < float(space.p0):
        report.warnings.append(
            f"exploratory: p={p} is below the space-time threshold "
            f"p0={format_rational(space.p0)}; no pass verdict is claimed"
        )
        if report.verdict == "pass":
            report.verdict = "exploratory"
    return report
