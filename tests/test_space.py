"""Exact geometry/spectrum invariants."""

import math
import random
from fractions import Fraction

import pytest

from oddsphere.space import (
    build_space,
    eigenvalue,
    format_rational,
    harmonic_dim,
    top_degree,
)


def test_build_space_examples():
    sp = build_space([3], [1])
    assert sp.d == 3 and sp.r == 1
    assert sp.s == Fraction(3)
    assert sp.p0 == Fraction(22, 3)

    sp2 = build_space([3, 5], [1, 1])
    assert sp2.d == 8 and sp2.r == 2
    assert sp2.s == Fraction(3)  # max(3, 5/2)
    assert sp2.p0 == Fraction(14, 3)


@pytest.mark.parametrize("dims", [[4], [2], [1], [3, 6]])
def test_build_space_rejects_bad_dimensions(dims):
    with pytest.raises(ValueError):
        build_space(dims)


def test_build_space_rejects_bad_betas():
    with pytest.raises(ValueError):
        build_space([3], [0])
    with pytest.raises(ValueError):
        build_space([3], [Fraction(-1, 2)])
    with pytest.raises(ValueError):
        build_space([3, 3], [1])  # length mismatch
    # every grid and spectrum takes beta's float image
    with pytest.raises(ValueError, match="beta overflows a float"):
        build_space([3], ["1e400"])
    with pytest.raises(ValueError, match="beta underflows to 0.0 as a float"):
        build_space([3, 5], ["1", "1e-400"])


def test_eigenvalue_examples():
    sp = build_space([3], [1])
    assert eigenvalue(sp, (2,)) == Fraction(-8)
    assert eigenvalue(sp, (0,)) == 0
    mixed = build_space([3, 3], [1, Fraction(2, 3)])
    assert eigenvalue(mixed, (1, 2)) == Fraction(-15)
    assert eigenvalue(mixed, (0, 0)) == 0


def test_eigenvalue_strictly_decreasing_in_each_coordinate():
    sp = build_space([3, 5, 7], [1, Fraction(2, 3), Fraction(5, 4)])
    rng = random.Random(7)
    for _ in range(50):
        idx = tuple(rng.randrange(0, 30) for _ in range(3))
        for j in range(3):
            bumped = list(idx)
            bumped[j] += 1
            assert eigenvalue(sp, bumped) < eigenvalue(sp, idx)


def test_eigenvalue_validates_index():
    sp = build_space([3, 3])
    with pytest.raises(ValueError):
        eigenvalue(sp, (1,))
    with pytest.raises(ValueError):
        eigenvalue(sp, (1, -1))


def test_harmonic_dim_examples_and_closed_form():
    assert harmonic_dim(3, 0) == 1
    assert harmonic_dim(3, 1) == 4
    assert harmonic_dim(3, 2) == 9
    # closed form on the 3-sphere: (n+1)^2
    for n in range(200):
        assert harmonic_dim(3, n) == (n + 1) ** 2
    # classical 2-sphere count as a cross-check of the binomial difference
    for n in range(50):
        assert harmonic_dim(2, n) == 2 * n + 1


@pytest.mark.parametrize("dim", [3, 5, 7, 9])
def test_harmonic_dim_is_polynomial_of_degree_dim_minus_one(dim):
    # (dim)-th forward difference vanishes once n >= 2
    vals = [harmonic_dim(dim, n) for n in range(2, 2 + dim + 8)]
    diffs = vals
    for _ in range(dim):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    assert all(v == 0 for v in diffs)
    # degree is exactly dim-1: the (dim-1)-th difference is a nonzero constant
    diffs = vals
    for _ in range(dim - 1):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    assert len(set(diffs)) == 1 and diffs[0] != 0


def test_flow_period_examples():
    assert build_space([3], [1]).period == 1
    assert build_space([3, 3], [1, Fraction(2, 3)]).period == 2
    assert build_space([5], [Fraction(1, 2)]).period == 1
    assert build_space([3, 5, 3], [Fraction(3, 7), Fraction(2, 3), 2]).period == 6


def test_flow_period_closes_every_phase():
    sp = build_space([3, 5, 3], [Fraction(3, 7), Fraction(2, 3), 2])
    T = sp.period
    rng = random.Random(11)
    for _ in range(100):
        a = tuple(rng.randrange(0, 40) for _ in range(3))
        b = tuple(rng.randrange(0, 40) for _ in range(3))
        gap = eigenvalue(sp, a) - eigenvalue(sp, b)
        assert (T * gap).denominator == 1


def test_s_factor_decreases_with_dimension():
    last = None
    for dim in (3, 5, 7, 9, 11):
        s = build_space([dim]).s
        assert s == Fraction(2 * dim, dim - 1)
        if last is not None:
            assert s < last
        last = s


def test_rational_serialization_round_trip():
    for text in ("3", "-5", "2/3", "-7/4"):
        assert format_rational(Fraction(text)) == text
    assert format_rational(Fraction(4, 6)) == "2/3"
    assert build_space([3], [" 4/6 "]).betas == (Fraction(2, 3),)


def test_describe_and_str():
    sp = build_space([3, 5], [1, Fraction(2, 3)])
    info = sp.describe()
    assert info["s"] == "3" and info["p0"] == "14/3"
    assert "S^5[beta=2/3]" in str(sp)
    # 1/beta = 3/2 for the second factor, so phases close after two turns
    assert math.isclose(sp.period_seconds, 2 * math.pi * 2)


def test_top_degree_is_two_past_the_last_shell_degree():
    # x_n = n (n + 2 lam) / (beta N^2) <= 4 iff (n + lam)^2 <= 4 beta N^2 + lam^2;
    # the float square root lands on the exact last degree on these inputs
    for lam in (1, 2, 5):
        for beta in (Fraction(1), Fraction(2, 3), Fraction(144, 89)):
            for N in (*range(1, 130), 100.5, 1024):
                bound = 4 * beta * Fraction(N) ** 2 + lam * lam
                last = math.isqrt(math.floor(bound)) - lam
                assert (last + lam) ** 2 <= bound < (last + lam + 1) ** 2
                assert top_degree(lam, beta, N) == last + 2, (lam, beta, N)
