"""Scan harness mechanics on small, fast configurations."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from oddsphere import space
from oddsphere.kernel import Bump, ZonalState, evaluate_zonal, evolve_zonal, mode_weights
from oddsphere.measure import FieldSample, TorusQuadrature, lp_norm
from oddsphere.verify import (
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
    with pytest.raises(ValueError):
        ScanPlan(S3, 4.0, N_list=(8,), arcs=((1, 9),))  # q >= min N
    with pytest.raises(ValueError):
        ScanPlan(S3, 4.0, arcs=((2, 4),))  # not reduced
    with pytest.raises(ValueError):
        ScanPlan(S3, 4.0, offsets=(Fraction(3, 2),))  # outside the arc


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


def test_threshold_check_mechanics():
    report = threshold_check(S3, 3.0, SMALL_NS, SMALL_ARCS)
    assert report.mode == "threshold"
    assert report.params["p_floor"] == pytest.approx(3.0)
    assert not report.warnings
    low = threshold_check(S3, 2.1, SMALL_NS, SMALL_ARCS)
    assert any("below the away-region floor" in w for w in low.warnings)
    with pytest.raises(ValueError):
        threshold_check(S3S3, 3.0, SMALL_NS, SMALL_ARCS)


def test_strichartz_preconditions_and_flags():
    with pytest.raises(ValueError):
        strichartz_zonal_scan(S3, 8.0, SMALL_NS, trials=0)
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


def test_single_mode_flow_has_constant_lp_profile():
    # |exp(-it mu) d phi| is t-independent, so the space-time norm of a
    # one-mode state is just its spatial norm; checked by quadrature
    n0, p = 6, 8.0
    st = ZonalState(S3, {(n0,): 1.0})
    quad = TorusQuadrature.for_kernel(S3, 8)
    base = lp_norm(FieldSample(S3, quad.grids(), (evaluate_zonal(st, quad.grids()),)), p)
    rng = np.random.default_rng(0)
    for t in rng.uniform(0, S3.period_seconds, 4):
        vals = evaluate_zonal(evolve_zonal(st, t), quad.grids())
        moved = lp_norm(FieldSample(S3, quad.grids(), (vals,)), p)
        assert moved == pytest.approx(base, rel=1e-10)


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


def test_bound_denominator_formula():
    # q = 1 at the widest offset 1/(2N): denominator ~ (1 + sqrt(N/2))^r
    N = 50.0
    val = bound_denominator(1, N, 1.0 / (2 * N), 2)
    assert val == pytest.approx((1 + math.sqrt(N / 2.0)) ** 2, rel=1e-12)
