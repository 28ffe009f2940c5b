"""Quadrature, regional norms, and their spectral oracles."""

import math

import numpy as np
import pytest

from oddsphere import space
from oddsphere.kernel import Bump, kernel_product, spectral_l2_norm
from oddsphere.measure import (
    FieldSample,
    QuadratureError,
    Region,
    TorusQuadrature,
    lp_norm,
    region_measure,
    resolution_check,
    sup_norm,
)
from oddsphere.specialfn import phi
from oddsphere.verify import fit_loglog

S3 = space.build_space([3], [1])
S5 = space.build_space([5], [1])
S3S3 = space.build_space([3, 3], [1, 1])


def random_field(sp, quad, rng, modes=12):
    """Synthetic factored field: random low-degree trig polynomials."""
    grids = quad.grids()
    vals = []
    evs = []
    for g in grids:
        coef = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)

        def ev(th, coef=coef):
            th = np.asarray(th, dtype=float)
            return sum(c * np.exp(1j * k * th) for k, c in enumerate(coef))

        vals.append(ev(g))
        evs.append(ev)
    return FieldSample(sp, grids, tuple(vals), evaluators=tuple(evs))


def test_quadrature_construction():
    quad = TorusQuadrature.for_kernel(S3, 32)
    assert quad.sizes[0] >= 16 * (2 * 32 + 1)
    grids = quad.grids()
    assert grids[0][0] == 0.0 and len(grids[0]) == quad.sizes[0]
    with pytest.raises(ValueError):
        TorusQuadrature(S3, (8, 8))
    with pytest.raises(ValueError):
        TorusQuadrature.for_kernel(S3, 32, oversample=0)


def test_region_validation():
    with pytest.raises(ValueError):
        Region("weird")
    with pytest.raises(ValueError):
        Region.corner(0, 2.0)  # radius too large
    with pytest.raises(ValueError):
        Region.corner(3, 0.1)  # bad pole index
    assert Region.full().label() == "full"


def test_constant_field_has_unit_norm():
    quad = TorusQuadrature.for_kernel(S3, 8)
    fld = FieldSample(S3, quad.grids(), (np.ones(quad.sizes[0]),))
    for p in (0.5, 1.0, 2.0, 4.0):
        assert lp_norm(fld, p) == pytest.approx(1.0, rel=1e-12)


def test_parseval_against_spectral_oracle():
    bump = Bump()
    rng = np.random.default_rng(0)
    for N in (32, 128):
        quad = TorusQuadrature.for_kernel(S3, N)
        oracle = spectral_l2_norm(1, 1, N, 0.0, bump)
        for t in rng.uniform(0, S3.period_seconds, 3):
            fld = kernel_product(S3, N, t, quad.grids(), bump)
            assert lp_norm(fld, 2) == pytest.approx(oracle, rel=1e-6)


def test_parseval_product_space():
    bump = Bump()
    N = 16
    quad = TorusQuadrature.for_kernel(S3S3, N)
    fld = kernel_product(S3S3, N, 0.77, quad.grids(), bump)
    oracle = spectral_l2_norm(1, 1, N, 0.0, bump) ** 2
    assert lp_norm(fld, 2) == pytest.approx(oracle, rel=1e-6)


def test_pure_mode_norm_exact():
    # || d_n phi_n ||_2 = sqrt(d_n) once the grid beats the bandwidth
    for n in (3, 11):
        d_n = (n + 1) ** 2
        M = 16 * (2 * n + 1)
        grid = 2 * math.pi * np.arange(M) / M
        fld = FieldSample(S3, (grid,), (d_n * phi(1, n, grid),))
        assert lp_norm(fld, 2) == pytest.approx(math.sqrt(d_n), rel=1e-9)


def test_holder_monotonicity_on_probability_measure():
    rng = np.random.default_rng(7)
    quad = TorusQuadrature(S3, (512,))
    exps = [0.5, 1.0, 2.0, 3.0, 4.0, 8.0]
    for _ in range(50):
        fld = random_field(S3, quad, rng)
        norms = [lp_norm(fld, p) for p in exps]
        for lo, hi in zip(norms, norms[1:]):
            assert lo <= hi * (1 + 1e-12)


def test_region_additivity_partitions_the_circle():
    bump = Bump()
    N = 32
    quad = TorusQuadrature.for_kernel(S3, N)
    fld = kernel_product(S3, N, 0.3, quad.grids(), bump)
    p = 2.0
    radius = 1.0 / N
    full = lp_norm(fld, p) ** p
    parts = (
        lp_norm(fld, p, Region.corner(0, radius)) ** p
        + lp_norm(fld, p, Region.corner(1, radius)) ** p
        + lp_norm(fld, p, Region.away(radius)) ** p
    )
    assert parts == pytest.approx(full, rel=1e-8)


def test_region_additivity_product_space():
    bump = Bump()
    N = 8
    quad = TorusQuadrature.for_kernel(S3S3, N)
    fld = kernel_product(S3S3, N, 0.2, quad.grids(), bump)
    p, radius = 2.0, 1.0 / N
    full = lp_norm(fld, p) ** p
    corners = sum(
        lp_norm(fld, p, Region.corner((i, j), radius)) ** p
        for i in (0, 1)
        for j in (0, 1)
    )
    away = lp_norm(fld, p, Region.away(radius)) ** p
    assert corners + away == pytest.approx(full, rel=1e-8)


def test_corner_norm_bounded_by_full():
    bump = Bump()
    quad = TorusQuadrature.for_kernel(S3, 16)
    fld = kernel_product(S3, 16, 0.9, quad.grids(), bump)
    for p in (1.0, 2.0, 4.0):
        assert lp_norm(fld, p, Region.corner(0, 1 / 16)) <= lp_norm(fld, p)


def test_sup_norm_attained_at_identity_for_t0():
    bump = Bump()
    N = 32
    quad = TorusQuadrature.for_kernel(S3, N)
    fld = kernel_product(S3, N, 0.0, quad.grids(), bump)
    from oddsphere.kernel import kernel_1d

    expected = abs(kernel_1d(1, 1, N, 0.0, np.array([0.0]), bump)[0])
    assert sup_norm(fld) == pytest.approx(expected, rel=1e-12)


def test_sup_norm_pure_mode():
    n, d_n = 5, 36
    M = 512
    grid = 2 * math.pi * np.arange(M) / M
    fld = FieldSample(S3, (grid,), (d_n * phi(1, n, grid),))
    assert sup_norm(fld) == pytest.approx(d_n, rel=1e-9)


def test_sup_refinement_converges():
    # oscillatory kernel away from refocusing times: grid max alone is off
    # by O((N h)^2); refinement must converge to 1e-4
    bump = Bump()
    N = 128
    quad = TorusQuadrature.for_kernel(S3, N, oversample=16)
    t = 0.37 * S3.period_seconds
    fld = kernel_product(S3, N, t, quad.grids(), bump)
    coarse = max(np.abs(fld.factor_values[0]))
    refined = sup_norm(fld)
    assert refined >= coarse * (1 - 1e-12)
    # re-running with a doubled base grid moves the answer by < 2e-4
    quad2 = TorusQuadrature(S3, (2 * quad.sizes[0],))
    fld2 = kernel_product(S3, N, t, quad2.grids(), bump)
    refined2 = sup_norm(fld2)
    assert abs(refined - refined2) / refined2 < 2e-4


def test_sup_refines_only_the_pieces_the_region_uses():
    N, radius = 16, 1 / 16
    quad = TorusQuadrature.for_kernel(S3, N)
    kern = kernel_product(S3, N, 0.37, quad.grids(), Bump())
    probed = []

    def evaluate(theta):
        probed.extend(theta)
        return kern.evaluate_factor(0, theta)

    fld = FieldSample(S3, kern.grids, kern.factor_values, evaluators=(evaluate,))
    assert sup_norm(fld, Region.corner(1, radius)) == sup_norm(kern, Region.corner(1, radius))
    assert probed and all(abs(th - math.pi) <= radius for th in probed)


def _resolution_passes(N, p, oversample):
    quad = TorusQuadrature.for_kernel(S3, N, oversample)
    fld = kernel_product(S3, N, 0.618, quad.grids(), Bump())
    try:
        ok, _ = resolution_check(fld, p=p)
    except QuadratureError:
        ok = False
    return ok


@pytest.mark.parametrize("N", [32, 128, 512])
@pytest.mark.parametrize("p", [2.0, 4.0])
def test_resolution_check_and_failing_oversample(N, p):
    # convergence study: the default oversample passes; bisect down to the
    # largest failing one and report it
    assert _resolution_passes(N, p, 16)
    assert not _resolution_passes(N, p, 1)
    lo, hi = 1, 16  # lo fails, hi passes
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _resolution_passes(N, p, mid):
            hi = mid
        else:
            lo = mid
    print(f"\nN={N} p={p}: largest failing oversample {lo}, smallest passing {hi}")
    assert hi <= 16


def test_lp_norm_rejects_under_resolved_grid():
    bump = Bump()
    N = 64
    grid = 2 * math.pi * np.arange(32) / 32  # way below the bandwidth
    fld = kernel_product(S3, N, 0.0, [grid], bump)
    with pytest.raises(QuadratureError):
        lp_norm(fld, 2)


def test_lp_norm_rejects_non_uniform_grid():
    grid = np.linspace(0, 2 * math.pi, 64)  # endpoint duplicated
    fld = FieldSample(S3, (grid,), (np.ones(64),))
    with pytest.raises(QuadratureError):
        lp_norm(fld, 2)


def test_lp_norm_rejects_bad_p():
    quad = TorusQuadrature.for_kernel(S3, 8)
    fld = FieldSample(S3, quad.grids(), (np.ones(quad.sizes[0]),))
    with pytest.raises(ValueError):
        lp_norm(fld, 0.0)


@pytest.mark.parametrize("sp,d", [(S3, 3), (S5, 5)])
def test_corner_region_volume_scaling(sp, d):
    pairs = []
    for N in (16, 32, 64, 128, 256, 512):
        pairs.append((N, region_measure(sp, Region.corner(0, 1.0 / N), N)))
    slope, _, _ = fit_loglog(pairs)
    assert abs(slope + d) < 0.05


def test_away_region_measure_complements_corners():
    N = 16
    radius = 1.0 / N
    m_full = region_measure(S3, Region.full(), N)
    m_away = region_measure(S3, Region.away(radius), N)
    m_c = region_measure(S3, Region.corner(0, radius), N) + region_measure(
        S3, Region.corner(1, radius), N
    )
    assert m_full == pytest.approx(1.0, rel=1e-12)
    assert m_away + m_c == pytest.approx(1.0, rel=1e-12)
