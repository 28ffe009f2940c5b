"""Kernel structural identities, each checked against an independent route."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oddsphere import space
from oddsphere.kernel import (
    Bump,
    ZonalState,
    evaluate_zonal,
    evolve_zonal,
    kappa_nu,
    kernel_1d,
    kernel_direct_multi,
    kernel_nu,
    kernel_product,
    mode_weights,
    sobolev_norm,
    spectral_l2_norm,
    write_field,
)
from oddsphere.specialfn import CornerGuardError, phi_recurrence, phi_series


S3 = space.build_space([3], [1])
S3S3 = space.build_space([3, 3], [1, 1])


def recurrence_route_kernel(lam, beta, N, t, theta, bump):
    """Kernel via the recurrence sweep only: independent of the nu-sums."""
    n, w = mode_weights(lam, beta, N, t, bump)
    wfull = np.zeros(int(n[-1]) + 1, dtype=complex)
    wfull[n] = w
    return phi_series(lam, wfull, theta)


def test_bump_shapes():
    smooth = Bump()
    x = np.linspace(-1, 6, 500)
    vals = smooth(x)
    assert np.all((vals >= 0) & (vals <= 1))
    assert np.all(vals[(x < 0.25) | (x > 4.0)] == 0)
    assert_allclose(smooth(np.array([0.5, 1.0, 2.0])), 1.0)
    sharp = Bump("sharp")
    assert_allclose(sharp(np.array([0.2, 0.25, 1.0, 4.0, 4.1])), [0, 1, 1, 1, 0])
    with pytest.raises(ValueError):
        Bump("boxcar")
    with pytest.raises(ValueError):
        Bump(lo=2.0, hi=1.0)


def test_kernel_at_identity_with_sharp_bump_is_dimension_count():
    N = 8
    sharp = Bump("sharp")
    val = kernel_1d(1, 1, N, 0.0, np.array([0.0]), sharp)[0]
    n, _ = mode_weights(1, 1, N, 0.0, sharp)
    expected = sum((int(k) + 1) ** 2 for k in n)
    assert val.imag == 0
    assert val.real == pytest.approx(expected, abs=1e-9)
    # support is exactly the lattice shell lo <= n(n+2)/N^2 <= hi
    for k in n:
        assert 0.25 <= k * (k + 2) / N**2 <= 4.0


def test_single_mode_bump_reduces_to_one_term():
    # support containing only n = 1 (x_1 = 3 at N = 1 on the 3-sphere)
    one = Bump("sharp", lo=2.0, hi=4.0)
    theta = np.linspace(0, 2 * math.pi, 11)
    t = 0.733
    got = kernel_1d(1, 1, 1, t, theta, one)
    want = np.exp(-1j * 3.0 * t) * 4.0 * np.cos(theta)  # d_1 = 4, phi_1 = cos
    assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("lam,N", [(1, 16), (2, 16), (3, 16), (1, 64), (2, 64), (3, 64)])
def test_nu_decomposition_matches_recurrence_route(lam, N):
    bump = Bump()
    t = 0.37 * S3.period_seconds
    theta = np.linspace(0, 2 * math.pi, 257, endpoint=False)
    away = np.abs(np.sin(theta)) > 1e-3
    total = sum(kernel_nu(lam, N, nu, t, theta[away], bump) for nu in range(lam))
    oracle = recurrence_route_kernel(lam, 1, N, t, theta, bump)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(total - oracle[away])) / scale < 1e-8


def test_kernel_1d_equals_recurrence_route_everywhere():
    bump = Bump()
    theta = np.linspace(0, 2 * math.pi, 513, endpoint=False)
    for lam in (1, 2):
        got = kernel_1d(lam, 1, 32, 1.234, theta, bump)
        want = recurrence_route_kernel(lam, 1, 32, 1.234, theta, bump)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-9


@pytest.mark.parametrize("lam", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("N", [16, 128, 1024])
def test_grid_route_matches_recurrence_oracle(lam, N):
    # the full quadrature grid takes the FFT route, corners included
    M = math.ceil(16 * (2.0 * N + lam))
    theta = 2 * math.pi * np.arange(M) / M
    t = 0.37 * S3.period_seconds
    got = kernel_1d(lam, 1, N, t, theta, Bump())
    want = recurrence_route_kernel(lam, 1, N, t, theta, Bump())
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-10


def test_kernel_1d_near_guard_band_on_s9():
    # just outside |sin theta| = 1e-3 the nu-terms cancel deeply; S^9
    # exposed it at N = 16
    theta = np.array([1.0001 * math.asin(1e-3)])
    got = kernel_1d(4, 1, 16, 0.0, theta, Bump())
    want = recurrence_route_kernel(4, 1, 16, 0.0, theta, Bump())
    assert abs(got[0] - want[0]) <= 1e-12 * abs(want[0])


@pytest.mark.parametrize("lam", [2, 4])
def test_kappa_nu_grid_and_direct_routes_agree(lam):
    # the full grid is summed by FFT, any other angle set directly
    N, t = 64, 0.53
    M = math.ceil(16 * (2.0 * N + lam))
    theta = 2 * math.pi * np.arange(M) / M
    for nu in range(lam):
        on_grid = kappa_nu(lam, N, nu, t, theta, Bump())
        direct = kappa_nu(lam, N, nu, t, theta[1:], Bump())
        assert np.max(np.abs(on_grid[1:] - direct)) / np.max(np.abs(on_grid)) < 1e-12


def test_kernel_nu_corner_guard():
    with pytest.raises(CornerGuardError):
        kernel_nu(2, 16, 0, 0.0, np.array([1e-5]), Bump())


def test_lam1_has_single_piece():
    bump = Bump()
    theta = np.linspace(0.1, 3.0, 40)
    assert_allclose(
        kernel_nu(1, 32, 0, 0.9, theta, bump),
        kernel_1d(1, 1, 32, 0.9, theta, bump),
        rtol=1e-10,
    )


def test_kappa_nu_finite_at_corners():
    val = kappa_nu(2, 32, 1, 0.5, np.array([0.0, math.pi]), Bump())
    assert np.all(np.isfinite(val))


def test_time_periodicity():
    bump = Bump()
    theta = np.linspace(0, 2 * math.pi, 101, endpoint=False)
    for dims, betas in ([(3,), (1,)], [(5,), (Fraction(2, 3),)], [(7,), (1,)]):
        sp = space.build_space(dims, betas)
        f = sp.factors[0]
        T = sp.period_seconds
        k1 = kernel_1d(f.lam, f.beta, 32, 0.7, theta, bump)
        k2 = kernel_1d(f.lam, f.beta, 32, 0.7 + T, theta, bump)
        assert np.max(np.abs(k1 - k2)) / np.max(np.abs(k1)) < 1e-10


def test_conjugation_symmetry():
    bump = Bump()
    theta = np.linspace(0, 2 * math.pi, 101, endpoint=False)
    k_plus = kernel_1d(2, 1, 32, 0.61, theta, bump)
    k_minus = kernel_1d(2, 1, 32, -0.61, theta, bump)
    assert np.max(np.abs(k_minus - np.conj(k_plus))) / np.max(np.abs(k_plus)) < 1e-12


def test_weyl_symmetry():
    bump = Bump()
    theta = np.linspace(0.01, 2 * math.pi - 0.01, 97)
    k = kernel_1d(2, 1, 32, 0.61, theta, bump)
    k_ref = kernel_1d(2, 1, 32, 0.61, 2 * math.pi - theta, bump)
    assert np.max(np.abs(k - k_ref)) / np.max(np.abs(k)) < 1e-12


def test_corner_translation_of_parity_subseries():
    # even/odd degree sub-sums transform under theta -> theta + pi with the
    # advertised signs
    bump = Bump()
    lam, N, t = 2, 32, 0.41
    n, w = mode_weights(lam, 1, N, t, bump)
    theta = np.linspace(0, math.pi, 67)
    for parity, sign in ((0, 1.0), (1, -1.0)):
        wfull = np.zeros(int(n[-1]) + 1, dtype=complex)
        sel = (n % 2) == parity
        wfull[n[sel]] = w[sel]
        shifted = phi_series(lam, wfull, theta + math.pi)
        base = phi_series(lam, wfull, theta)
        scale = np.max(np.abs(base))
        assert np.max(np.abs(shifted - sign * base)) / scale < 1e-10


def test_product_matches_direct_multi_product_mollifier():
    bump = Bump()
    rng = np.random.default_rng(5)
    sp = space.build_space([3, 5], [1, Fraction(2, 3)])
    t = 0.317 * sp.period_seconds
    for _ in range(4):
        point = rng.uniform(0, 2 * math.pi, size=2)
        fld = kernel_product(sp, 16, t, [point[:1], point[1:]], bump)
        via_product = fld.factor_values[0][0] * fld.factor_values[1][0]
        via_direct = kernel_direct_multi(sp, 16, t, point, bump, radial=False)
        assert abs(via_product - via_direct) / abs(via_direct) < 1e-9


def test_direct_multi_rank_one_equals_kernel_1d():
    bump = Bump()
    v1 = kernel_direct_multi(S3, 16, 0.33, [0.9], bump, radial=True)
    v2 = kernel_1d(1, 1, 16, 0.33, np.array([0.9]), bump)[0]
    assert abs(v1 - v2) < 1e-10 * abs(v2)


def test_direct_multi_radial_shell_count():
    # t = 0 at the identity with a sharp radial bump counts the joint
    # dimensions over the spherical shell of the lattice
    sharp = Bump("sharp")
    sp = S3S3
    N = 6
    val = kernel_direct_multi(sp, N, 0.0, [0.0, 0.0], sharp, radial=True)
    total = 0
    for n1 in range(0, 30):
        for n2 in range(0, 30):
            x = (n1 * (n1 + 2) + n2 * (n2 + 2)) / N**2
            if 0.25 <= x <= 4.0:
                total += (n1 + 1) ** 2 * (n2 + 1) ** 2
    assert val.imag == pytest.approx(0.0, abs=1e-9)
    assert val.real == pytest.approx(total, rel=1e-12)


def test_direct_multi_enumeration_guard():
    with pytest.raises(ValueError, match="guard"):
        kernel_direct_multi(S3S3, 2.0 * 10**4, 0.0, [0.0, 0.0], Bump())


def test_radial_vs_product_mollifier_differ():
    # diagnostic, not an identity: the two cutoffs genuinely differ
    bump = Bump()
    v_rad = kernel_direct_multi(S3S3, 16, 0.0, [0.4, 1.1], bump, radial=True)
    v_prod = kernel_direct_multi(S3S3, 16, 0.0, [0.4, 1.1], bump, radial=False)
    assert abs(v_rad - v_prod) > 1e-6 * abs(v_prod)


def test_parseval_oracle():
    bump = Bump()
    for N in (16, 64):
        oracle = spectral_l2_norm(1, 1, N, 0.0, bump)
        n, w = mode_weights(1, 1, N, 0.123, bump)
        direct = math.sqrt(sum(abs(wi) ** 2 / (int(k) + 1) ** 2 for k, wi in zip(n, w)))
        assert oracle == pytest.approx(direct, rel=1e-12)


def test_zonal_evolution():
    st = ZonalState(S3, {(1,): 1.0, (4,): 0.5 - 0.25j})
    # t = 0 is the identity
    same = evolve_zonal(st, 0.0)
    assert same.coeffs == st.coeffs
    # one full period returns every coefficient
    moved = evolve_zonal(st, S3.period_seconds)
    for idx, c in st.coeffs.items():
        assert abs(moved.coeffs[idx] - c) < 1e-12
    # N distinct modes rotate at distinct speeds
    quarter = evolve_zonal(st, 0.25)
    assert abs(quarter.coeffs[(1,)] - np.exp(-3j * 0.25)) < 1e-14


def test_sobolev_norm_examples():
    st = ZonalState(S3, {(1,): 1.0})
    assert sobolev_norm(st, 0) == pytest.approx(2.0, rel=1e-14)  # sqrt(d_1)
    # positive smoothness weights (lambda^s + 1)
    assert sobolev_norm(st, 1) == pytest.approx(2.0 * math.sqrt(4.0), rel=1e-14)


def test_sobolev_norm_matches_quadrature():
    # || d_n phi_n ||_2 = sqrt(d_n) under the probability measure
    from oddsphere.measure import FieldSample, TorusQuadrature, lp_norm

    st = ZonalState(S3, {(6,): 1.0})
    quad = TorusQuadrature.for_kernel(S3, 8)
    vals = evaluate_zonal(st, quad.grids())
    fld = FieldSample(S3, quad.grids(), (vals,))
    assert lp_norm(fld, 2) == pytest.approx(sobolev_norm(st, 0), rel=1e-9)


def test_evaluate_zonal_product():
    st = ZonalState(S3S3, {(1, 2): 2.0})
    g1 = np.array([0.3])
    g2 = np.array([1.4])
    val = evaluate_zonal(st, [g1, g2])[0, 0]
    want = (
        2.0
        * 4.0 * phi_recurrence(1, 1, 0.3)
        * 9.0 * phi_recurrence(1, 2, 1.4)
    )
    assert val == pytest.approx(want, rel=1e-12)


def test_field_serialization(tmp_path):
    bump = Bump()
    fld = kernel_product(S3, 8, 0.0, [np.linspace(0, 2 * math.pi, 33, endpoint=False)], bump)
    csv_path = tmp_path / "field.csv"
    json_path = tmp_path / "field.json"
    write_field(fld, csv_path, json_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "factor,theta,re,im"
    assert len(lines) == 1 + 33
    # t = 0 kernel is real
    for line in lines[1:]:
        assert float(line.split(",")[3]) == 0.0
    header = json.loads(json_path.read_text())
    assert header["schema"] == 1
    assert header["N"] == 8 and header["bump"]["kind"] == "smooth"


def test_full_values_outer_product_and_guard():
    bump = Bump()
    grids = [np.linspace(0, 2 * math.pi, 9, endpoint=False)] * 2
    fld = kernel_product(S3S3, 8, 0.2, grids, bump)
    full = fld.full_values()
    assert full.shape == (9, 9)
    assert_allclose(full[3, 5], fld.factor_values[0][3] * fld.factor_values[1][5])
