"""Kernel structural identities, each checked against an independent route."""

import dataclasses
import json
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from oddsphere import kernel, space
from oddsphere.kernel import (
    Bump,
    kappa_nu,
    kernel_1d,
    kernel_direct_multi,
    kernel_nu,
    kernel_product,
    mode_weights,
    spectral_l2_norm,
    write_field,
)
from oddsphere.measure import TorusQuadrature
from oddsphere.specialfn import CornerGuardError, phi_series


S3 = space.build_space([3], [1])
S3S3 = space.build_space([3, 3], [1, 1])


def recurrence_route_kernel(lam, beta, N, t, theta, bump):
    """Kernel via the recurrence sweep only: independent of the nu-sums."""
    n, w = mode_weights(lam, beta, N, t, bump)
    wfull = np.zeros(int(n[-1]) + 1, dtype=complex)
    wfull[n] = w
    return phi_series(lam, wfull, theta)


def grid_route_on_full_circle(lam, N, t, M, bump=Bump()):
    """kernel_product on the half grid of M nodes, mirrored onto k = 0..M-1.

    The kernel is even in theta, so node M - k holds the value of node k.
    """
    sp = space.build_space([2 * lam + 1])
    half = kernel_product(sp, N, t, TorusQuadrature(sp, (M,)), bump).factor_values[0]
    k = np.arange(M)
    return half[np.minimum(k, M - k)]


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
    # the dyadic window is fixed: kind is the one setting
    assert [f.name for f in dataclasses.fields(Bump)] == ["kind"]
    assert (Bump.lo, Bump.hi) == (0.25, 4.0)


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
    # at N = 1 on the 3-sphere x_0 = 0, x_1 = 3 and x_2 = 8, so the window
    # [1/4, 4] holds n = 1 alone
    one = Bump("sharp")
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
    # the quadrature's half grid takes the cosine-expansion transform at
    # every node, corners included; the recurrence sweep is the oracle
    M = math.ceil(16 * (2.0 * N + lam))
    theta = 2 * math.pi * np.arange(M) / M
    t = 0.37 * S3.period_seconds
    got = grid_route_on_full_circle(lam, N, t, M)
    want = recurrence_route_kernel(lam, 1, N, t, theta, Bump())
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-10


def mp_kernel_at_nodes(lam, N, t, M, nodes):
    """sum_n w_n phi_n(2 pi j / M) for the float weights w_n, in 40 digits."""
    n, w = mode_weights(lam, 1, N, t, Bump())
    weights = {int(k): mp.mpc(wk.real, wk.imag) for k, wk in zip(n, w)}
    out = []
    with mp.workdps(40):
        for j in nodes:
            x = mp.cos(2 * mp.pi * int(j) / M)
            prev, cur, total = mp.mpf(0), mp.mpf(1), weights.get(0, 0)
            for k in range(1, int(n[-1]) + 1):  # Gegenbauer three-term recurrence
                prev, cur = cur, (2 * x * (k + lam - 1) * cur - (k + 2 * lam - 2) * prev) / k
                if k in weights:
                    total += weights[k] * cur / math.comb(k + 2 * lam - 1, k)
            out.append(complex(total))
    return np.array(out), float(np.sum(np.abs(w)))


@pytest.mark.parametrize("lam", [2, 4])
def test_grid_route_exact_to_rounding_at_corner_nodes(lam):
    # every node within 1/N of a pole, against the kernel at the exact node
    # 2 pi j / M; the error is measured against sum_n |w_n| >= |K|
    N = 128
    M = math.ceil(16 * (2.0 * N + lam))
    theta = 2 * math.pi * np.arange(M) / M
    t = 0.37 * S3.period_seconds
    nodes = np.flatnonzero(
        (np.minimum(theta, 2 * math.pi - theta) <= 1 / N) | (np.abs(theta - math.pi) <= 1 / N)
    )
    want, scale = mp_kernel_at_nodes(lam, N, t, M, nodes)
    got = grid_route_on_full_circle(lam, N, t, M)[nodes]
    assert np.max(np.abs(got - want)) <= 2e-16 * scale


def exact_cosine_coeffs(lam, n, w):
    """F_f = (2 - [f = 0]) sum_k g_k g_{k+f} w_{2k+f} / C_{2k+f}^lam(1), in Fraction."""
    top = int(n[-1])
    v = [(Fraction(0), Fraction(0))] * (top + 1)
    for k, wk in zip(n, w):
        c1 = math.comb(int(k) + 2 * lam - 1, int(k))
        v[k] = (Fraction(wk.real) / c1, Fraction(wk.imag) / c1)
    g = [math.comb(j + lam - 1, j) for j in range(top + 1)]
    out = []
    for f in range(top + 1):
        terms = [(g[k] * g[k + f], v[2 * k + f]) for k in range((top - f) // 2 + 1)]
        re = sum(c * x for c, (x, _) in terms)
        im = sum(c * y for c, (_, y) in terms)
        out.append((1 if f == 0 else 2) * complex(re, im))
    return np.array(out)


@pytest.mark.parametrize("lam", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["real", "random sign", "complex"])
def test_cosine_coeffs_match_the_exact_k_sum(lam, kind):
    n, w = mode_weights(lam, 1, 64, 0.0, Bump())
    if kind == "random sign":
        w = w * np.random.default_rng(lam).choice([-1.0, 1.0], w.size)
    elif kind == "complex":
        w = mode_weights(lam, 1, 64, 0.37 * S3.period_seconds, Bump())[1]
    got = kernel._cosine_coeffs(lam, n, w, kernel._spectrum(lam, 1, 64, Bump()).c1)
    assert got.shape == (int(n[-1]) + 1,)
    assert np.max(np.abs(got - exact_cosine_coeffs(lam, n, w))) <= 1e-16 * np.sum(np.abs(w))


@pytest.mark.parametrize("lam", [1, 2, 3, 4, 5, 7])
def test_chain_weights_expand_each_vandermonde_term_exactly(lam):
    # h_i(k) = g_k binom(k + lam - 1, lam - 1 - i) = sum_c a[i, c] binom(k + c, c)
    a = kernel._chain_weights(lam)
    assert a.shape == (lam, 2 * lam - 1)
    for i in range(lam):
        for k in range(3 * lam + 1):
            h = math.comb(k + lam - 1, lam - 1) * math.comb(k + lam - 1, lam - 1 - i)
            assert sum(Fraction(a[i, c]) * math.comb(k + c, c) for c in range(2 * lam - 1)) == h


@pytest.mark.parametrize("lam", [1, 5])
def test_grid_route_at_large_n_matches_recurrence(lam):
    # the neighbours of both poles plus random nodes, 64 in all
    N = 8192
    M = TorusQuadrature.for_kernel(space.build_space([2 * lam + 1]), N).sizes[0]
    theta = 2 * math.pi * np.arange(M) / M
    poles = np.r_[0:4, M - 4 : M, M // 2 - 4 : M // 2 + 5]
    others = np.setdiff1d(np.arange(M), poles)
    nodes = np.r_[poles, np.random.default_rng(lam).choice(others, 64 - poles.size, replace=False)]
    t = 0.37 * S3.period_seconds
    got = grid_route_on_full_circle(lam, N, t, M)
    want = recurrence_route_kernel(lam, 1, N, t, theta[nodes], Bump())
    assert np.max(np.abs(got[nodes] - want)) <= 1e-10 * np.max(np.abs(got))


def test_kernel_1d_near_guard_band_on_s9():
    # just outside |sin theta| = 1e-3 the nu-terms cancel deeply; S^9
    # exposed it at N = 16
    theta = np.array([1.0001 * math.asin(1e-3)])
    got = kernel_1d(4, 1, 16, 0.0, theta, Bump())
    want = recurrence_route_kernel(4, 1, 16, 0.0, theta, Bump())
    assert abs(got[0] - want[0]) <= 1e-12 * abs(want[0])


@pytest.mark.parametrize("lam", [2, 4])
def test_under_resolved_grid_route_equals_the_recurrence_at_its_nodes(lam):
    # at oversample 1 the top frequencies pass M/2 and fold back: the node
    # values stay those of the kernel itself
    N, t = 64, 0.37 * S3.period_seconds
    sp = space.build_space([2 * lam + 1])
    quad = TorusQuadrature.for_kernel(sp, N, 1)
    n_top = mode_weights(lam, 1, N, t, Bump())[0][-1]
    assert n_top > quad.sizes[0] // 2
    got = kernel_product(sp, N, t, quad, Bump()).factor_values[0]
    want = kernel_1d(lam, 1, N, t, quad.nodes(0), Bump())
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    for nu in range(lam):  # nu + lam odd folds a sine series, with the phase negated
        got = kappa_nu(lam, N, nu, t, quad, Bump())
        want = kappa_nu(lam, N, nu, t, quad.nodes(0), Bump())
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("lam", [2, 4])
def test_kappa_nu_grid_and_direct_routes_agree(lam):
    # a quadrature's half grid is summed by transform, bare angles directly;
    # kappa_nu(2 pi - theta) = (-1)^(nu + lam) kappa_nu(theta) gives the rest
    N, t = 64, 0.53
    M = math.ceil(16 * (2.0 * N + lam))
    theta = 2 * math.pi * np.arange(M) / M
    quad = TorusQuadrature(space.build_space([2 * lam + 1]), (M,))
    k = np.arange(M)
    for nu in range(lam):
        half = kappa_nu(lam, N, nu, t, quad, Bump())
        on_grid = np.where(k <= M // 2, 1, (-1) ** (nu + lam)) * half[np.minimum(k, M - k)]
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
    fld = kernel_product(sp, 16, t, TorusQuadrature.for_kernel(sp, 16), bump)
    for _ in range(4):
        point = rng.uniform(0, 2 * math.pi, size=2)
        via_product = fld.evaluate_factor(0, point[0]) * fld.evaluate_factor(1, point[1])
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




def test_field_serialization(tmp_path):
    bump = Bump()
    fld = kernel_product(S3, 8, 0.0, TorusQuadrature(S3, (64,)), bump)
    csv_path = tmp_path / "field.csv"
    json_path = tmp_path / "field.json"
    write_field(fld, csv_path, json_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "factor,theta,re,im"
    assert len(lines) == 1 + 33  # the half grid: theta = 2 pi k / 64, k = 0..32
    assert float(lines[-1].split(",")[1]) == math.pi
    # t = 0 kernel is real
    for line in lines[1:]:
        assert float(line.split(",")[3]) == 0.0
    header = json.loads(json_path.read_text())
    assert header["schema"] == 1
    assert header["N"] == 8 and header["bump"] == {"kind": "smooth", "lo": 0.25, "hi": 4.0}


@pytest.mark.parametrize("lam", [1, 3])
def test_scalar_time_is_the_per_angle_sweep_bit_for_bit(lam):
    # a scalar t runs the arithmetic of one weight column for every angle:
    # that of phi_series with 1-D weights, and of one time per angle
    N, t = 32, 0.37
    theta = np.linspace(0.0, math.pi, 41)
    got = kernel_1d(lam, 1, N, t, theta, Bump())
    assert np.array_equal(got, recurrence_route_kernel(lam, 1, N, t, theta, Bump()))
    sp = space.build_space([2 * lam + 1])
    fld = kernel_product(sp, N, t, TorusQuadrature.for_kernel(sp, N), Bump())
    per_angle = fld.evaluate_factor(0, theta, np.full(theta.shape, t))
    assert np.array_equal(fld.evaluate_factor(0, theta), per_angle)
    grid = theta.reshape(1, -1)
    assert np.array_equal(kernel_1d(lam, 1, N, t, grid, Bump()), got.reshape(grid.shape))
    assert kernel_1d(lam, 1, N, t, theta[7], Bump()) == got[7]


@pytest.mark.parametrize("lam", [1, 2, 4, 5])
def test_spectral_tables_are_the_exact_integers_rounded_once(lam):
    # a factor's spectrum holds d_n and C_n^lam(1) at its own degrees, each
    # the float of the exact integer, at a small and at a large scale
    for N in (16, 360):
        spec = kernel._spectrum(lam, 1, N, Bump())
        n = spec.n.tolist()
        assert n[-1] > 1.5 * N
        assert list(spec.dims) == [float(space.harmonic_dim(2 * lam + 1, k)) for k in n]
        assert list(spec.c1) == [float(math.comb(k + 2 * lam - 1, k)) for k in n]
        assert not (spec.dims.flags.writeable or spec.c1.flags.writeable)
