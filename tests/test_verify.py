"""Scan harness mechanics on small, fast configurations."""

import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oddsphere import measure, space, verify
from oddsphere.kernel import Bump, kappa_nu, kernel_product, mode_weights
from oddsphere.measure import Region, TorusQuadrature, density_normalizer
from oddsphere.specialfn import phi_matrix
from oddsphere.verify import (
    DEFAULT_ARCS,
    DEFAULT_OFFSETS,
    ScanPlan,
    bound_denominator,
    corner_scan,
    decay_scan,
    fit_loglog,
    kappa_scan,
    strichartz_zonal_scan,
    threshold_check,
    write_report,
)

S3 = space.build_space([3], [1])
S5 = space.build_space([5], [1])
S7 = space.build_space([7], [1])
S9 = space.build_space([9], [1])
S3S3 = space.build_space([3, 3], [1, 1])

SMALL_NS = (8, 16, 32)
SMALL_ARCS = ((0, 1), (1, 2), (1, 3))


def test_fit_loglog_exact_power():
    pairs = [(n, float(n) ** 2) for n in (4, 8, 16, 32)]
    slope, intercept, resid = fit_loglog(pairs)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert resid == pytest.approx(0.0, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-10)


def test_fit_loglog_with_log_factor():
    pairs = [(n, 0.7 * n**2.25 * math.log(n)) for n in (16, 32, 64, 128, 256, 512)]
    slope, _, _ = fit_loglog(pairs)
    assert 2.25 <= slope <= 2.55


def test_fit_loglog_is_least_squares_without_lapack(monkeypatch):
    pairs = [(n, 3.1 * n**-0.23 * (1.0 + 0.1 * math.sin(n))) for n in (16, 32, 64, 128, 256, 512)]
    x = np.log([n for n, _ in pairs])
    y = np.log([v for _, v in pairs])
    slope, intercept = np.polyfit(x, y, 1)

    def no_lapack(*args, **kwargs):
        raise AssertionError("fit_loglog called LAPACK")

    monkeypatch.setattr(np.linalg, "lstsq", no_lapack)
    monkeypatch.setattr(np, "polyfit", no_lapack)
    got = fit_loglog(pairs)
    assert got[:2] == pytest.approx((slope, intercept), rel=1e-12, abs=0)
    assert got[2] == pytest.approx(np.sqrt(np.mean((y - slope * x - intercept) ** 2)), rel=1e-9)


def test_fit_loglog_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_loglog([(2, 1.0), (4, 2.0)])
    with pytest.raises(ValueError):
        fit_loglog([(2, 1.0), (2, 2.0), (4, 3.0)])
    with pytest.raises(ValueError):
        fit_loglog([(2, 1.0), (4, 0.0), (8, 3.0)])
    with pytest.raises(ValueError):
        fit_loglog([(2, 1.0), (4, -2.0), (8, 3.0)])


def test_scan_plan_validation():
    with pytest.raises(ValueError):
        ScanPlan(S3, 4.0, N_list=())
    for N_list in ((0, 16, 32), (-16, 16, 32)):
        with pytest.raises(ValueError, match="N >= 1"):
            ScanPlan(S3, 4.0, N_list=N_list)
    for tolerance in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite tolerance"):
            ScanPlan(S3, 4.0, tolerance=tolerance)
    with pytest.raises(ValueError):
        ScanPlan(S3, 4.0, N_list=(8, 16, 32), arcs=((1, 9),))  # q >= min N
    with pytest.raises(ValueError):
        ScanPlan(S3, 4.0, arcs=((2, 4),))  # not reduced
    with pytest.raises(ValueError):
        ScanPlan(S3, 4.0, offsets=(Fraction(3, 2),))  # outside the arc
    for p in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            ScanPlan(S3, p)
    # a repeated arc or offset would sample every kernel twice
    with pytest.raises(ValueError, match="arcs must be distinct, got 0/1 twice"):
        ScanPlan(S3, 4.0, arcs=((0, 1), (1, 2), (0, 1)))
    with pytest.raises(ValueError, match="offsets must be distinct, got 1/4 twice"):
        ScanPlan(S3, 4.0, offsets=(0.25, Fraction(0), Fraction(1, 4)))
    with pytest.raises(ValueError):
        corner_scan(S3, 0.0, SMALL_NS, SMALL_ARCS)
    with pytest.raises(ValueError):
        threshold_check(S3, 0.0, SMALL_NS, SMALL_ARCS)


def test_decay_scan_record_structure():
    plan = ScanPlan(S3, 4.0, SMALL_NS, SMALL_ARCS)
    report = decay_scan(plan)
    assert report.mode == "decay"
    assert report.target_exponent == pytest.approx(3 - 3 / 4)
    assert len(report.records) == len(SMALL_NS) * len(SMALL_ARCS) * 3
    assert len(report.worst_per_N) == len(SMALL_NS)
    for rec in report.records:
        assert np.isfinite(rec.ratio) and rec.ratio > 0
        assert np.isfinite(rec.norm) and rec.norm > 0
        # envelope denominator recomputed independently from (a, q, N, dist)
        again = (math.sqrt(rec.q) * (1 + rec.N * math.sqrt(rec.dist))) ** S3.r
        assert rec.bound_denominator == pytest.approx(again, rel=1e-12)
    # worst-per-N is genuinely the max over that N's records
    for N, worst in report.worst_per_N:
        assert worst == pytest.approx(max(r.ratio for r in report.records if r.N == N))


def test_decay_scan_flags_p_below_s():
    plan = ScanPlan(S3, 2.0, SMALL_NS, SMALL_ARCS)
    report = decay_scan(plan)
    assert any("below the validity floor" in w for w in report.warnings)


def test_decay_scan_sup_mode():
    # at t = 0 the kernel focuses at the identity with height ~ N^d
    plan = ScanPlan(S3, math.inf, (16, 32, 64, 128), ((0, 1),), offsets=(Fraction(0),))
    report = decay_scan(plan)
    assert report.target_exponent == 3.0
    raw = [(n, v * n**3.0) for n, v in report.worst_per_N]
    slope, _, _ = fit_loglog(raw)
    assert abs(slope - 3.0) < 0.1


def test_corner_scan_covers_all_corners():
    report = corner_scan(S3S3, 2.0, SMALL_NS, SMALL_ARCS)
    per_N = len(SMALL_ARCS) * 3 * 4  # arcs * offsets * corner tuples
    assert len(report.records) == len(SMALL_NS) * per_N
    labels = {rec.region.split("@")[0] for rec in report.records}
    assert labels == {"corner00", "corner01", "corner10", "corner11"}


def test_arc_scan_takes_a_float_N_at_its_exact_value():
    exact = corner_scan(S3, 4.0, (Fraction(33, 2), 32, 64), SMALL_ARCS)
    as_float = corner_scan(S3, 4.0, (16.5, 32, 64), SMALL_ARCS)
    assert as_float.records == exact.records


def test_corner_sups_on_s9_respect_the_mode_bound():
    # |phi_n| <= 1 caps every kernel value by sum_n bump(x_n) d_n
    s9 = space.build_space([9])
    report = corner_scan(s9, math.inf, (16, 32, 64))
    lam = s9.factors[0].lam
    for rec in report.records:
        _, w = mode_weights(lam, 1, rec.N, 0.0, Bump())
        assert rec.norm <= np.sum(np.abs(w)) * (1 + 1e-9), rec.row()


def test_kappa_scan_preconditions():
    with pytest.raises(ValueError):
        kappa_scan(S5, 2, SMALL_NS, SMALL_ARCS)  # nu > lam-1 = 1
    with pytest.raises(ValueError):
        kappa_scan(S3S3, 0, SMALL_NS, SMALL_ARCS)  # rank must be one
    # arcs and offsets are validated as in every other scan
    with pytest.raises(ValueError):
        kappa_scan(S5, 0, SMALL_NS, ((2, 4),))  # not reduced
    with pytest.raises(ValueError):
        kappa_scan(S5, 0, SMALL_NS, ((1, 9),))  # q >= min N
    with pytest.raises(ValueError):
        kappa_scan(S5, 0, SMALL_NS, SMALL_ARCS, offsets=(Fraction(3, 2),))


# two grid local maxima of |kappa| lie within the between-node rise of each
# other, and the lower one refines higher: seeding the grid argmax alone
# left these records 0.25% and 0.21% below the sup
@pytest.mark.parametrize("sp, nu, N, label", [(S5, 1, 64, "2/5+1/640"), (S7, 2, 32, "1/3+1/192")])
def test_full_sups_refine_every_near_maximum(sp, nu, N, label):
    report = kappa_scan(sp, nu, (16, 32, 64))
    (rec,) = [rec for rec in report.records if (rec.N, rec.tau) == (N, label)]
    (tau,) = [
        tau
        for a, q, tau, _ in verify._arc_time_points(DEFAULT_ARCS, DEFAULT_OFFSETS, N)
        if verify._tau_label(a, q, tau) == label
    ]
    theta = np.linspace(0.0, math.pi, 200001)
    t_sec = float(tau) * sp.period_seconds
    dense = np.abs(kappa_nu(sp.factors[0].lam, N, nu, t_sec, theta, Bump())).max()
    assert dense <= rec.norm < dense * (1.0 + 1e-6)


def test_away_sups_evaluate_the_region_edges():
    # |K| can be largest at an edge of the away region, still falling from
    # the pole box, where a coarse grid's nearest node reads lower: at N = 32,
    # tau = 1/2 + 1/256 the node reads 793.77 and the edge 1859.83
    N_list = (16, 32, 64, 128)
    coarse = threshold_check(S3, math.inf, N_list, oversample=4)
    fine = threshold_check(S3, math.inf, N_list)
    assert [rec.norm for rec in coarse.records] == pytest.approx(
        [rec.norm for rec in fine.records], rel=1e-12, abs=0
    )
    records = iter(coarse.records)
    for N in N_list:
        quad = TorusQuadrature.for_kernel(S3, N, 4)
        for a, q, tau, _ in verify._arc_time_points(DEFAULT_ARCS, DEFAULT_OFFSETS, N):
            rec = next(records)
            kern = kernel_product(S3, N, float(tau) * S3.period_seconds, quad, Bump())
            edges = np.abs(kern.evaluate_factor(0, np.array([1 / N, math.pi - 1 / N])))
            assert rec.norm >= edges.max()
            if (N, rec.tau) == (32, "1/2+1/256"):
                assert rec.norm == pytest.approx(1859.83, abs=0.01)
    assert next(records, None) is None


def test_sups_that_read_the_grid_check_the_aliasing_floor():
    # 36 nodes at N = 16 against a floor of 71: full and away sups (kernel
    # and kappa fields) are refused; corner sups read no grid value and run
    with pytest.raises(measure.QuadratureError, match="under-resolves"):
        threshold_check(S3, math.inf, (16, 32, 64), oversample=1)
    with pytest.raises(measure.QuadratureError, match="under-resolves"):
        decay_scan(ScanPlan(S3, math.inf, (16, 32, 64), oversample=1))
    with pytest.raises(measure.QuadratureError, match="under-resolves"):
        kappa_scan(S3, 0, (16, 32, 64), oversample=1)
    with pytest.raises(measure.QuadratureError, match="under-resolves"):
        strichartz_zonal_scan(S3, 8.0, (16, 32, 64), trials=2, time_samples=16, oversample=1)
    corner_scan(S3, math.inf, (16, 32, 64), oversample=1)


def test_threshold_check_mechanics():
    report = threshold_check(S3, 3.0, SMALL_NS, SMALL_ARCS)
    assert report.mode == "threshold"
    assert report.params["p_floor"] == pytest.approx(3.0)
    assert not report.warnings
    low = threshold_check(S3, 2.1, SMALL_NS, SMALL_ARCS)
    assert any("below the away-region floor" in w for w in low.warnings)
    with pytest.raises(ValueError):
        threshold_check(S3S3, 3.0, SMALL_NS, SMALL_ARCS)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [1e12, 1001.0])
def test_strichartz_norm_that_overflows_raises_naming_p_and_N(p):
    # |u|^p overflows float64 at N = 16: no warning, but an error naming p and N
    with pytest.raises(ValueError, match=re.escape(f"p = {p:g}, N = 16 is not finite")):
        strichartz_zonal_scan(S3, p, (16, 32, 64), trials=2, time_samples=8)


def test_strichartz_preconditions_and_flags():
    with pytest.raises(ValueError):
        strichartz_zonal_scan(S3, 8.0, SMALL_NS, trials=0)
    for p in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            strichartz_zonal_scan(S3, p, SMALL_NS, trials=2, time_samples=16)
    with pytest.raises(ValueError):
        strichartz_zonal_scan(S3, 8.0, SMALL_NS, trials=2, time_samples=0)
    with pytest.raises(ValueError, match="N >= 1"):
        strichartz_zonal_scan(S3, 8.0, (0, 16, 32), trials=2, time_samples=16)
    for tolerance in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite tolerance"):
            strichartz_zonal_scan(
                S3, 8.0, SMALL_NS, trials=2, time_samples=16, tolerance=tolerance
            )
    report = strichartz_zonal_scan(
        S3, 4.0, SMALL_NS, trials=2, seed=9, time_samples=16
    )
    # p = 4 < p0 = 22/3: recorded but never granted a pass
    assert any("below the space-time threshold" in w for w in report.warnings)
    assert report.verdict in ("exploratory", "fail")


def test_strichartz_deterministic_given_seed():
    kwargs = dict(trials=2, seed=42, time_samples=16)
    a = strichartz_zonal_scan(S3, 8.0, SMALL_NS, **kwargs)
    b = strichartz_zonal_scan(S3, 8.0, SMALL_NS, **kwargs)
    assert a.to_json() == b.to_json()


def dense_strichartz_norms(sp, p, N_list, trials, seed, time_samples, oversample=16):
    """Worst-trial norms from the dense formula: phi_matrix on all M nodes."""
    f = sp.factors[0]
    lam, beta = f.lam, float(f.beta)
    norms = []
    for N in N_list:
        rng = np.random.default_rng((seed, *Fraction(N).as_integer_ratio()))
        n_shell, _ = mode_weights(lam, beta, N, 0.0, Bump())
        dims = np.array([float(space.harmonic_dim(f.dim, int(k))) for k in n_shell])
        mu = n_shell * (n_shell + 2 * lam) / beta
        M = TorusQuadrature.for_kernel(sp, N, oversample).sizes[0]
        grid = 2.0 * math.pi * np.arange(M) / M
        weights = (
            density_normalizer(f.dim) * (2.0 * math.pi / grid.size)
            * np.abs(np.sin(grid)) ** (f.dim - 1)
        )
        rows = phi_matrix(lam, n_shell, grid)
        t_frac = (np.arange(time_samples) + rng.random(time_samples)) / time_samples
        phase = np.exp(-1j * np.outer(t_frac * sp.period_seconds, mu))
        worst = 0.0
        for _ in range(trials):
            c = rng.standard_normal(n_shell.size) + 1j * rng.standard_normal(n_shell.size)
            c /= math.sqrt(float(np.sum(np.abs(c) ** 2 * dims)))
            u = (phase * (c * dims)[None, :]) @ rows
            worst = max(worst, float(np.mean((np.abs(u) ** p) @ weights)) ** (1.0 / p))
        norms.append(worst)
    return norms


@pytest.mark.parametrize(
    "sp, p, oversample",
    [(sp, p, 16) for sp in (S3, S5, S7) for p in (2.0, 7.5, 8.0)]
    # oversample 3 on S^3: coarse grids, M = 100, 196, 392
    + [(S3, 8.0, 3)]
    # p = 6 takes integer powering with an odd step, p = 3 the generic power
    + [(sp, p, 16) for sp in (S3, S5, S7, S9) for p in (3.0, 6.0)]
    + [(S9, p, 16) for p in (2.0, 7.5, 8.0)],
)
def test_strichartz_matches_dense_formula(sp, p, oversample):
    kwargs = dict(trials=3, seed=11, time_samples=24, oversample=oversample)
    report = strichartz_zonal_scan(sp, p, (16, 32, 64), **kwargs)
    ref = dense_strichartz_norms(sp, p, (16, 32, 64), **kwargs)
    assert [rec.norm for rec in report.records] == pytest.approx(ref, rel=1e-12, abs=0)


def test_dense_ladder_has_both_midpoint_cases():
    # M/2 even puts a quarter-grid node at pi/2, paired with itself; M/2 odd
    # leaves none, so the dense comparison above covers both
    sizes = [TorusQuadrature.for_kernel(S3, N, 16).sizes[0] for N in (16, 32, 64)]
    assert sizes == [528, 1050, 2100]


def record_phi_matrix(monkeypatch):
    """Patch verify.phi_matrix to log (modes, angles) of every call."""
    calls = []

    def recording_phi_matrix(lam, n_values, theta, **kwargs):
        calls.append((len(n_values), np.array(theta)))
        return phi_matrix(lam, n_values, theta, **kwargs)

    monkeypatch.setattr(verify, "phi_matrix", recording_phi_matrix)
    return calls


def assert_each_quarter_grid_node_once(calls, N_list):
    assert all(np.all((th > 0.0) & (th <= math.pi / 2.0)) for _, th in calls)
    for N in N_list:
        modes = mode_weights(1, 1.0, N, 0.0, Bump())[0].size
        M = TorusQuadrature.for_kernel(S3, N, power=8.0).sizes[0]
        theta = np.concatenate([th for n, th in calls if n == modes])
        k = theta * M / (2.0 * math.pi)
        assert np.allclose(k, np.round(k), rtol=0.0, atol=1e-9)
        assert sorted(np.round(k).astype(int)) == list(range(1, M // 4 + 1))
    assert sum(th.size for _, th in calls) == sum(
        TorusQuadrature.for_kernel(S3, N, power=8.0).sizes[0] // 4 for N in N_list
    )


def test_strichartz_evaluates_each_quarter_grid_node_once(monkeypatch):
    calls = record_phi_matrix(monkeypatch)
    N_list = (16, 32, 64)
    strichartz_zonal_scan(S3, 8.0, N_list, trials=2, seed=3, time_samples=8)
    assert all(th.size <= verify.SPACETIME_BLOCK for _, th in calls)
    assert_each_quarter_grid_node_once(calls, N_list)


# In angles, N = 16, 32, 64 have 67, 132 and 262 quarter-grid nodes: blocks
# of 8 end every N in a short block, and blocks of 11 divide N = 32 evenly.
@pytest.mark.parametrize("block", [8, 11])
def test_strichartz_several_blocks_per_scale(monkeypatch, block):
    N_list = (16, 32, 64)
    kwargs = dict(trials=3, seed=5, time_samples=16)
    whole = strichartz_zonal_scan(S3, 8.0, N_list, **kwargs)
    monkeypatch.setattr(verify, "SPACETIME_BLOCK", block)
    calls = record_phi_matrix(monkeypatch)
    blocked = strichartz_zonal_scan(S3, 8.0, N_list, **kwargs)
    assert [rec.norm for rec in blocked.records] == pytest.approx(
        [rec.norm for rec in whole.records], rel=1e-13, abs=0
    )
    for N in N_list:
        modes = mode_weights(1, 1.0, N, 0.0, Bump())[0].size
        sizes = [th.size for n, th in calls if n == modes]
        whole_blocks, rest = divmod(sum(sizes), block)
        assert sizes == [block] * whole_blocks + ([rest] if rest else [])
    assert_each_quarter_grid_node_once(calls, N_list)


def test_strichartz_phi_matrix_calls_stay_under_two_blocks(monkeypatch):
    # N = 128 and 256 have 525 and 1029 quarter-grid angles: blocks of 512,
    # then short blocks of 13 and 5
    calls = record_phi_matrix(monkeypatch)
    N_list = (64, 128, 256)
    strichartz_zonal_scan(S3, 8.0, N_list, trials=2, seed=1, time_samples=8)
    assert all(th.size <= verify.SPACETIME_BLOCK for _, th in calls)
    assert [th.size for _, th in calls] == [262, 512, 13, 512, 512, 5]
    assert_each_quarter_grid_node_once(calls, N_list)


def test_strichartz_holds_one_block_of_rows(monkeypatch):
    # traced memory at each phi_matrix call of N = 256: each block's
    # 383 x 512 rows (1.5 MiB) must be let go before the next is built
    held = []

    def tracing_phi_matrix(lam, n_values, theta):
        held.append((len(n_values), tracemalloc.get_traced_memory()[0]))
        return phi_matrix(lam, n_values, theta)

    monkeypatch.setattr(verify, "phi_matrix", tracing_phi_matrix)
    tracemalloc.start()
    try:
        strichartz_zonal_scan(S3, 8.0, (64, 128, 256), trials=2, seed=1, time_samples=8)
    finally:
        tracemalloc.stop()
    modes = mode_weights(1, 1.0, 256, 0.0, Bump())[0].size
    nows = [now for n, now in held if n == modes]
    assert len(nows) == 3
    for first, second in zip(nows, nows[1:]):
        assert second - first < 2**18 < modes * verify.SPACETIME_BLOCK * 8


def test_strichartz_working_set_does_not_grow_with_trials():
    N_list = (16, 32, 64, 128)
    kwargs = dict(seed=2, time_samples=64)
    strichartz_zonal_scan(S3, 8.0, N_list, trials=1, **kwargs)  # fill the caches
    peaks = {}
    for trials in (2, 40):
        tracemalloc.start()
        try:
            strichartz_zonal_scan(S3, 8.0, N_list, trials=trials, **kwargs)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # 38 more coefficient vectors and power rows at N = 128, plus slack
    modes = mode_weights(1, 1.0, N_list[-1], 0.0, Bump())[0].size
    extra = 38 * (16 * modes + 8 * kwargs["time_samples"])
    assert peaks[40] - peaks[2] <= extra + 2**18


def test_strichartz_working_set_per_time_sample():
    # time samples run in groups of SPACETIME_GROUP, whose phases, products
    # and even and odd sums are reused: an added time sample costs only its
    # power row entry per trial and its drawn time
    N_list = (16, 32, 64, 128)
    kwargs = dict(trials=3, seed=2)
    strichartz_zonal_scan(S3, 8.0, N_list, time_samples=4, **kwargs)  # fill the caches
    peaks = {}
    for time_samples in (64, 256):
        tracemalloc.start()
        try:
            strichartz_zonal_scan(S3, 8.0, N_list, time_samples=time_samples, **kwargs)
            peaks[time_samples] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[256] - peaks[64] <= 192 * (8 * kwargs["trials"] + 8) + 2**18


# one sample per group, groups of 7 (the last a short group of 2) and one
# group of all 100 time samples, on blocks small enough that every N spans
# several; p = 3 as well as 7.5, as a 1/p-th root hides less of a last-bit
# change in the power sums
@pytest.mark.parametrize("group", [1, 7, 100])
def test_strichartz_records_do_not_depend_on_the_time_groups(monkeypatch, group):
    N_list = (16, 32, 64)
    kwargs = dict(trials=3, seed=2, time_samples=100)
    monkeypatch.setattr(verify, "SPACETIME_BLOCK", 16)
    for p in (3.0, 7.5):
        grouped = strichartz_zonal_scan(S3, p, N_list, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(verify, "SPACETIME_GROUP", group)
            regrouped = strichartz_zonal_scan(S3, p, N_list, **kwargs)
        assert [rec.norm for rec in regrouped.records] == [rec.norm for rec in grouped.records]


def test_strichartz_draws_time_samples_then_trials():
    # each N draws its time samples, then its trials, from its own stream,
    # so k + 1 trials add one draw to the k trials of every N
    runs = [
        strichartz_zonal_scan(S3, 8.0, (16, 32, 64), trials=k, seed=5, time_samples=16)
        for k in range(1, 6)
    ]
    for i in range(3):
        worst = [run.records[i].norm for run in runs]
        assert worst == sorted(worst)


def test_strichartz_record_does_not_depend_on_the_ladder():
    kwargs = dict(trials=3, seed=5, time_samples=16)
    low = strichartz_zonal_scan(S3, 8.0, (16, 32, 64), **kwargs).records[1]
    high = strichartz_zonal_scan(S3, 8.0, (32, 64, 128), **kwargs).records[0]
    assert (low.N, high.N) == (32, 32)
    assert low.norm == high.norm


def test_report_serialization(tmp_path):
    plan = ScanPlan(S3, 4.0, SMALL_NS, ((0, 1),), offsets=(Fraction(0), Fraction(1, 2)))
    report = decay_scan(plan)
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    write_report(report, json_path, csv_path)
    payload = json.loads(json_path.read_text())
    assert payload["schema"] == 1
    assert payload["mode"] == "decay"
    assert len(payload["records"]) == len(report.records)
    # ratio formula revalidates from the serialized fields
    for rec in payload["records"]:
        denom = (math.sqrt(rec["q"]) * (1 + rec["N"] * math.sqrt(rec["dist"]))) ** 1
        assert rec["bound_denominator"] == pytest.approx(denom, rel=1e-12)
        assert rec["ratio"] == pytest.approx(
            rec["norm"] * denom / rec["N"] ** payload["target_exponent"], rel=1e-12
        )
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("N,tau,a,q,dist,p,region,norm")
    assert len(lines) == 1 + len(report.records)


def test_reports_record_each_grid_and_its_rule(tmp_path):
    # an even-p kernel scan over whole circles integrates on the
    # degree-exact rule; regions with edges, fractional p, p = inf and the
    # kappa sums keep the oversampled one, and the report says which rule
    # set each size
    sp = space.build_space([3, 5], [1, Fraction(2, 3)])

    def assert_grids(report, sp, power, rule):
        want = [TorusQuadrature.for_kernel(sp, N, power=power) for N in SMALL_NS]
        assert report.params["grids"] == [
            {"N": N, "sizes": list(quad.sizes), "rules": [rule] * sp.r}
            for N, quad in zip(SMALL_NS, want)
        ]

    for p in (2.0, 4.0):
        assert_grids(decay_scan(ScanPlan(sp, p, SMALL_NS, SMALL_ARCS)), sp, p, "degree-exact")
    report = strichartz_zonal_scan(S3, 8.0, SMALL_NS, trials=1, time_samples=4)
    assert_grids(report, S3, 8.0, "degree-exact")
    for scan_space, report in (
        (sp, decay_scan(ScanPlan(sp, 3.0, SMALL_NS, SMALL_ARCS))),
        (sp, decay_scan(ScanPlan(sp, math.inf, SMALL_NS, SMALL_ARCS))),
        (sp, corner_scan(sp, 4.0, SMALL_NS, SMALL_ARCS)),
        (S3, threshold_check(S3, 4.0, SMALL_NS, SMALL_ARCS)),
        (S5, kappa_scan(S5, 1, SMALL_NS, SMALL_ARCS)),
        (S3, strichartz_zonal_scan(S3, 7.5, SMALL_NS, trials=1, time_samples=4)),
    ):
        assert_grids(report, scan_space, None, "oversample")
    write_report(report, tmp_path / "r.json")
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["params"]["grids"] == report.params["grids"]


def test_grids_do_not_depend_on_the_cutoff_shape():
    # every grid is sized from the scale's top degree alone: the smooth and
    # the sharp cutoff share the window, so their scans share every grid
    sp = space.build_space([3, 5], [1, Fraction(2, 3)])
    grids = {}
    for kind in ("smooth", "sharp"):
        bump = Bump(kind)
        decay = decay_scan(ScanPlan(sp, 4.0, SMALL_NS, SMALL_ARCS, bump=bump))
        spacetime = strichartz_zonal_scan(S3, 8.0, SMALL_NS, trials=1, time_samples=4, bump=bump)
        grids[kind] = (decay.params["grids"], spacetime.params["grids"])
    assert grids["smooth"] == grids["sharp"]


def test_bound_denominator_formula():
    # q = 1 at the widest offset 1/(2N): denominator ~ (1 + sqrt(N/2))^r
    N = 50.0
    val = bound_denominator(1, N, 1.0 / (2 * N), 2)
    assert val == pytest.approx((1 + math.sqrt(N / 2.0)) ** 2, rel=1e-12)


def _assert_norms_match_single_calls(report, plan, regions_for_N, field_at):
    # every record of a scan, measured in one batch with the other fields
    # and regions of its N (sups refined in lockstep), equals the norm of its
    # own field and region alone, bit for bit
    records = iter(report.records)
    for N in plan.N_list:
        quad = TorusQuadrature.for_kernel(plan.space, N, plan.oversample)
        for a, q, tau, dist in verify._arc_time_points(plan.arcs, plan.offsets, N):
            fld = field_at(N, quad, float(tau) * plan.space.period_seconds)
            for region in regions_for_N(N):
                rec = next(records)
                assert (rec.N, rec.tau, rec.region) == (N, verify._tau_label(a, q, tau), region.label())
                assert rec.norm == measure.lp_norm(fld, plan.p, region)
    assert next(records, None) is None


def _kernel_at(sp):
    return lambda N, quad, t: kernel_product(sp, N, t, quad, Bump())


def _corners(sp):
    return lambda N: [Region.corner(poles, 1 / N) for poles in np.ndindex(*(2,) * sp.r)]


@pytest.mark.parametrize(
    "sp",
    [space.build_space([9]), space.build_space([3, 5], [1, Fraction(2, 3)])],
    ids=["S9", "S3xS5"],
)
def test_lockstep_corner_sups_equal_single_calls(sp):
    plan = ScanPlan(sp, math.inf, (16, 32, 64, 128))
    report = corner_scan(sp, math.inf, plan.N_list)
    _assert_norms_match_single_calls(report, plan, _corners(sp), _kernel_at(sp))


def test_lockstep_decay_and_away_sups_equal_single_calls():
    plan = ScanPlan(S3S3, math.inf, SMALL_NS, SMALL_ARCS)
    report = decay_scan(plan)
    _assert_norms_match_single_calls(report, plan, lambda N: [Region.full()], _kernel_at(S3S3))
    plan = ScanPlan(S3, math.inf, (16, 32, 64, 128))
    report = threshold_check(S3, math.inf, plan.N_list)
    _assert_norms_match_single_calls(
        report, plan, lambda N: [Region.away(1 / N)], _kernel_at(S3)
    )


def test_lockstep_kappa_sups_equal_single_calls():
    plan = ScanPlan(S5, math.inf, SMALL_NS, SMALL_ARCS)
    report = kappa_scan(S5, 1, SMALL_NS, SMALL_ARCS)
    _assert_norms_match_single_calls(
        report, plan, lambda N: [Region.full()],
        lambda N, quad, t: kernel_product(S5, N, t, quad, Bump(), nu=1),
    )


@pytest.mark.parametrize("p", [0.5, 3.0])
def test_batched_corner_norms_equal_single_calls(p):
    sp = space.build_space([3, 5], [1, Fraction(2, 3)])
    plan = ScanPlan(sp, p, SMALL_NS, SMALL_ARCS)
    report = corner_scan(sp, p, SMALL_NS, SMALL_ARCS)
    _assert_norms_match_single_calls(report, plan, _corners(sp), _kernel_at(sp))


def test_batched_away_norms_equal_single_calls():
    plan = ScanPlan(S3, 2.1, (16, 32, 64, 128))
    report = threshold_check(S3, 2.1, plan.N_list)
    _assert_norms_match_single_calls(
        report, plan, lambda N: [Region.away(1 / N)], _kernel_at(S3)
    )


def test_arc_scan_makes_one_norm_call_per_N(monkeypatch):
    calls = []
    original = measure.lp_norm

    def spy(fields, p, regions=None):
        calls.append(p)
        return original(fields, p, regions)

    monkeypatch.setattr(measure, "lp_norm", spy)
    for p in (0.5, math.inf):
        calls.clear()
        corner_scan(S3S3, p, SMALL_NS, SMALL_ARCS)
        assert calls == [p] * len(SMALL_NS)


@pytest.mark.parametrize("N_list", [(16, 32), (16, 32, 32), (16, 16, 16, 32)])
def test_short_ladders_fail_before_any_kernel(monkeypatch, N_list):
    sampled = []
    monkeypatch.setattr(verify, "kernel_product", lambda *args: sampled.append(args))
    monkeypatch.setattr(verify, "phi_matrix", lambda *args: sampled.append(args))
    with pytest.raises(ValueError, match="distinct|at least 3"):
        decay_scan(ScanPlan(S3, 4.0, N_list))
    with pytest.raises(ValueError, match="distinct|at least 3"):
        strichartz_zonal_scan(S3, 8.0, N_list, trials=1, time_samples=4)
    assert sampled == []
