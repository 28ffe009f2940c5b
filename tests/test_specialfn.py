"""Spherical-function oracle tests: recurrence vs explicit sum."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from oddsphere.measure import TorusQuadrature
from oddsphere.space import build_space
from oddsphere.specialfn import (
    CornerGuardError,
    cnv_exact,
    get_coeffs,
    phi_explicit,
    phi_matrix,
    phi_series,
)


def s3_closed_form(n, theta):
    theta = np.asarray(theta, dtype=float)
    return np.sin((n + 1) * theta) / ((n + 1) * np.sin(theta))


def recurrence(lam, n, theta):
    """phi_n(theta) from the recurrence sweep, one row of phi_matrix."""
    return phi_matrix(lam, [n], theta)[0]


def test_recurrence_base_cases():
    assert recurrence(3, 0, 0.7)[0] == 1.0
    for lam in (1, 2, 4):
        assert_allclose(recurrence(lam, 1, 0.9), math.cos(0.9), rtol=1e-15)


def test_recurrence_normalization_exact_at_zero():
    for lam in range(1, 7):
        rows = phi_matrix(lam, [0, 1, 2, 10, 100, 500], 0.0)
        assert rows.ravel().tolist() == [1.0] * 6


def test_recurrence_s3_values():
    assert_allclose(recurrence(1, 2, math.pi / 2), -1.0 / 3.0, atol=1e-15)
    theta = np.linspace(0.05, math.pi - 0.05, 301)
    for n in (1, 5, 40, 100):
        assert_allclose(recurrence(1, n, theta), s3_closed_form(n, theta), atol=1e-12)


def test_boundedness_on_grid():
    theta = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    for lam in range(1, 7):
        rows = phi_matrix(lam, np.arange(501), theta)
        assert np.max(np.abs(rows)) <= 1.0 + 1e-12


def test_weyl_symmetry():
    # the closed sum on both sides (every angle lies outside the guard band)
    theta = np.linspace(0.1, math.pi - 0.1, 57)
    for lam in (1, 2, 3):
        for n in (3, 17, 64):
            assert_allclose(
                phi_explicit(lam, n, 2 * math.pi - theta), phi_explicit(lam, n, theta), atol=1e-12
            )


def test_corner_translation_identity():
    theta = np.linspace(0.0, math.pi, 41)
    for lam in (1, 2, 3, 4):
        for n in (1, 2, 9, 50, 201):
            lhs = recurrence(lam, n, theta + math.pi)
            rhs = (-1.0) ** n * recurrence(lam, n, theta)
            assert_allclose(lhs, rhs, atol=1e-10)


def test_explicit_matches_s3_closed_form():
    val = phi_explicit(1, 5, 1.0)
    assert_allclose(val, math.sin(6.0) / (6.0 * math.sin(1.0)), rtol=1e-13)


def test_explicit_matches_recurrence():
    assert_allclose(phi_explicit(2, 7, 2.0), recurrence(2, 7, 2.0), rtol=1e-10)
    theta = np.linspace(0.02, math.pi - 0.02, 97)
    for lam in (1, 2, 3, 4, 5):
        for n in (0, 1, 2, 3, 11, 47, 150):
            a = phi_explicit(lam, n, theta)
            b = recurrence(lam, n, theta)
            assert_allclose(a, b, atol=1e-10)


def test_explicit_guard():
    with pytest.raises(CornerGuardError):
        phi_explicit(1, 3, 1e-6)
    with pytest.raises(CornerGuardError):
        phi_explicit(2, 3, math.pi - 1e-5)


def test_routes_meet_at_the_guard_band():
    assert phi_explicit(3, 0, 0.02) == pytest.approx(1.0, abs=1e-11)
    # the recurrence inside the band, next to the corner, stays finite
    val = recurrence(2, 50, math.pi - 0.0005)[0]
    assert np.isfinite(val) and abs(val) <= 1.0 + 1e-12
    # overlap band: both routes agree
    assert_allclose(phi_explicit(1, 4, math.pi / 3), recurrence(1, 4, math.pi / 3), atol=1e-10)
    # the recurrence just inside the band meets the closed sum just outside
    guard = 1e-3
    eps = 1e-9
    below = recurrence(2, 30, guard - eps)[0]
    above = phi_explicit(2, 30, guard + eps)
    assert abs(below - above) < 1e-6


def test_orthogonality_under_torus_density():
    # int_0^pi phi_m phi_n sin^{2 lam} = 0 for m != n; full-circle trapezoid
    # is exact for these trigonometric polynomials
    M = 4096
    theta = 2.0 * math.pi * np.arange(M) / M
    for lam in (1, 2, 3):
        dens = np.abs(np.sin(theta)) ** (2 * lam)
        rows = phi_matrix(lam, [3, 4, 10, 25], theta)
        gram = (rows * dens) @ rows.T * (2 * math.pi / M)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-8
        assert np.all(np.diag(gram) > 0)


def test_phi_series_matches_direct_sum():
    rng = np.random.default_rng(3)
    w = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    theta = np.array([0.0, 0.4, math.pi / 2, math.pi, 5.0])
    got = phi_series(2, w, theta)
    want = sum(w[n] * row for n, row in enumerate(phi_matrix(2, np.arange(40), theta)))
    assert_allclose(got, want, atol=1e-11)


def test_phi_matrix_hybrid_agrees_with_recurrence():
    n_values = [0, 2, 5, 33]
    theta = np.linspace(0.01, 6.2, 50)
    rows = phi_matrix(3, n_values, theta)
    for i, n in enumerate(n_values):
        assert_allclose(rows[i], phi_explicit(3, n, theta), atol=1e-10)
    poles = phi_matrix(3, n_values, [0.0, math.pi])
    for i, n in enumerate(n_values):
        assert poles[i].tolist() == [1.0, (-1.0) ** n]


def _phi_reference(lam, n, theta):
    """phi_n(theta) from mpmath's Gegenbauer polynomial at 60 digits."""
    with mp.workdps(60):
        x = mp.cos(mp.mpf(float(theta)))
        return float(mp.gegenbauer(n, lam, x) / mp.binomial(n + 2 * lam - 1, n))


@pytest.mark.parametrize("lam", [1, 3, 5])
def test_high_degree_against_multiprecision_next_to_the_poles(lam):
    # nodes of the N = 1024 quadrature grid next to 0, pi and 2 pi, plus
    # angles where the closed sum is ill-conditioned (1e-3 <= |sin| <= 1e-1)
    n = 2047
    M = TorusQuadrature.for_kernel(build_space([2 * lam + 1]), 1024).sizes[0]
    grid = 2 * math.pi * np.arange(M) / M
    half = M // 2
    nodes = np.r_[0:5, half - 5:half + 6, M - 5:M]
    band = np.arcsin(np.geomspace(1e-3, 1e-1, 5))
    theta = np.concatenate([grid[nodes], band, math.pi - band, math.pi + band])
    want = np.array([_phi_reference(lam, n, th) for th in theta])
    assert np.max(np.abs(phi_matrix(lam, [n], theta)[0] - want)) <= 1e-12


def test_coeff_table_invariants():
    for lam in (1, 2, 3, 4, 5, 6):
        coeffs = get_coeffs(lam, 4096)
        assert coeffs.shape == (4097, lam)
        # each entry is a product of at most 2 lam - 1 rounded factors
        tol = Fraction(2 * lam, 2**52)
        for n, row in enumerate(coeffs.tolist()):
            for nu, c in enumerate(row):
                exact = cnv_exact(lam, n, nu)
                assert abs(Fraction(c) - exact) <= tol * abs(exact), (lam, n, nu)
                # lam = 1 is the single term 1/(n+1), rounded once
                assert lam > 1 or c == float(exact), n


def test_input_validation():
    with pytest.raises(ValueError):
        phi_explicit(1, -2, 0.5)
    with pytest.raises(ValueError):
        get_coeffs(0, 5)
    with pytest.raises(ValueError):
        phi_matrix(0, [3], [0.5])
    with pytest.raises(ValueError):
        phi_matrix(1, [3, -1], [0.5])


def test_phi_series_weight_columns_match_one_call_per_column():
    # angle i sums column columns[i]; its arithmetic is that column's alone
    rng = np.random.default_rng(11)
    for lam in (1, 2, 4):
        w = rng.standard_normal((300, 5)) + 1j * rng.standard_normal((300, 5))
        w[:40] = 0.0  # rows below the cutoff's support are skipped
        w[150:170] = 0.0  # interior rows with no weight in any column
        w[220:, 3] = 0.0  # live rows that are zero in one column
        theta = rng.uniform(-7.0, 7.0, 60)
        columns = rng.integers(0, 5, theta.size)
        got = phi_series(lam, w, theta, columns)
        for c in range(5):
            sel = columns == c
            assert np.array_equal(got[sel], phi_series(lam, w[:, c], theta[sel]))
