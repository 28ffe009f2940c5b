"""Tests of the benchmark itself, on small ladders.

    python3 bench/selftest.py

Each check passes on the real program and rejects a planted wrong answer;
the tracer catches calls between layers and leaves the package as it was.
"""

from __future__ import annotations

import json
import math
import random
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

from oddsphere import arcs, cli, kernel, verify  # noqa: E402
from oddsphere.arcs import MajorArc, MinorArcReport  # noqa: E402
from oddsphere.kernel import Bump, kernel_1d  # noqa: E402
from oddsphere.space import build_space  # noqa: E402

import checks  # noqa: E402
from spans import LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import ArcsExact, parse_tau, uniform_grid  # noqa: E402

SMALL = (16, 32, 64)


def field(space, j: int, N: int, tau: Fraction, seed: int = 0):
    """(kernel, oracle, nodes) for factor j on its oracle nodes."""
    f = space.factors[j]
    t = float(tau) * space.period_seconds
    nodes = checks.oracle_nodes(uniform_grid(f.lam, N), N, np.random.default_rng(seed))
    return (
        kernel_1d(f.lam, f.beta, N, t, nodes, Bump()),
        checks.oracle_kernel(f.dim, f.beta, N, t, nodes),
        nodes,
    )


class KernelOracleTest(unittest.TestCase):
    def test_real_kernel_passes(self):
        space = build_space([3, 5], ["1", "2/3"])
        for j in range(2):
            for N in SMALL:
                k, o, _ = field(space, j, N, Fraction(1, 3) + Fraction(1, 6 * N))
                self.assertEqual(checks.kernel_oracle("r", checks.kernel_deviation(k, o)), [])

    def test_planted_offset_rejected(self):
        space = build_space([3])
        k, o, _ = field(space, 0, 32, Fraction(2, 5))
        planted = k + 1e-8 * np.max(np.abs(o))
        failures = checks.kernel_oracle("r", checks.kernel_deviation(planted, o))
        self.assertEqual(failures[0][0], "kernel_oracle")
        planted[3] = np.nan
        self.assertEqual(checks.kernel_deviation(planted, o), math.inf)

    def test_known_s9_fault_detected(self):
        space = build_space([9])
        k, o, _ = field(space, 0, 16, Fraction(1, 64))
        self.assertEqual(len(checks.kernel_oracle("r", checks.kernel_deviation(k, o))), 1)

    def test_spectral_l2_matches_program(self):
        for dim, beta in ((3, 1), (5, Fraction(2, 3)), (9, 1)):
            got = checks.spectral_l2(dim, beta, 32)
            want = kernel.spectral_l2_norm((dim - 1) // 2, beta, 32, 0.0, Bump())
            self.assertAlmostEqual(got / want, 1.0, places=12)


class DecayCheckTest(unittest.TestCase):
    def test_l4_above_l2(self):
        space = build_space([3, 5], ["1", "2/3"])
        report = verify.decay_scan(verify.ScanPlan(space, 4.0, SMALL))
        for rec in report.records:
            l2 = math.prod(checks.spectral_l2(f.dim, f.beta, rec.N) for f in space.factors)
            self.assertEqual(checks.at_least("l4", "r", rec.norm, l2), [])
            self.assertEqual(len(checks.at_least("l4", "r", 0.99 * l2, l2)), 1)

    def test_verdict(self):
        self.assertEqual(checks.verdict("r", "pass"), [])
        self.assertEqual(len(checks.verdict("r", "fail")), 1)


class SupCheckTest(unittest.TestCase):
    def test_sup_bracket(self):
        space = build_space([3])
        f = space.factors[0]
        report = verify.corner_scan(space, math.inf, SMALL)
        for rec in report.records:
            tau = parse_tau(rec.tau)
            _, oracle, nodes = field(space, 0, rec.N, tau)
            box = checks.pole_boxes(nodes, 1.0 / rec.N)[int(rec.region[len("corner")])]
            grid_max = float(np.max(np.abs(oracle[box])))
            upper = checks.sup_bound(f.dim, f.beta, rec.N)
            self.assertEqual(checks.sup_bracket("r", rec.norm, grid_max, upper), [])
            self.assertEqual(len(checks.sup_bracket("r", 0.99 * grid_max, grid_max, upper)), 1)
            self.assertEqual(len(checks.sup_bracket("r", 1.01 * upper, grid_max, upper)), 1)


class SpacetimeCheckTest(unittest.TestCase):
    def scan(self, p):
        return verify.strichartz_zonal_scan(
            build_space([3]), p, SMALL, trials=3, seed=7, time_samples=16
        )

    def test_unit_data_floor(self):
        for rec in self.scan(8.0).records:
            self.assertEqual(checks.at_least("floor", "r", rec.norm, 1.0), [])
        self.assertEqual(len(checks.at_least("floor", "r", 0.999, 1.0)), 1)

    def test_l2_conservation(self):
        for rec in self.scan(2.0).records:
            self.assertEqual(checks.unit_norm("r", rec.norm), [])
        self.assertEqual(len(checks.unit_norm("r", 1.0 + 1e-6)), 1)


def exhaustive_classify(tau: Fraction, N: int):
    """Smallest q, then nearest, over every reduced a/q with q < N."""
    hits = []
    for q in range(1, N):
        for a in range(q):
            if math.gcd(a, q) == 1:
                d = checks.circle_dist(tau - Fraction(a, q))
                if d * q * N < 1:
                    hits.append((q, d, a))
    if not hits:
        return None
    q, d, a = min(hits)
    return a, q, d


class ArcCheckTest(unittest.TestCase):
    N = 64

    def times(self, count=40):
        rng = random.Random(11)
        return ArcsExact.draw_times(rng, self.N, count) + [
            Fraction(rng.randrange(10**6), 10**6) for _ in range(count)
        ]

    def test_brute_force_matches_exhaustive_search(self):
        for tau in self.times():
            self.assertEqual(checks.brute_classify(tau, self.N), exhaustive_classify(tau, self.N))

    def test_drawn_times_are_half_minor(self):
        drawn = ArcsExact.draw_times(random.Random(3), self.N, 8)
        minors = [checks.brute_classify(t, self.N) is None for t in drawn]
        self.assertEqual(minors, [False, True] * 4)

    def test_program_answers_pass(self):
        for tau in self.times():
            answer = arcs.classify_fraction(tau, self.N)
            self.assertEqual(checks.classification("r", answer, tau, self.N), [])

    def test_planted_answers_rejected(self):
        major, minor = ArcsExact.draw_times(random.Random(5), self.N, 2)
        a, q, d = checks.brute_classify(major, self.N)
        q2 = q + 1
        a2 = round(major * q2) % q2
        larger = MajorArc(a2 // math.gcd(a2, q2), q2 // math.gcd(a2, q2), self.N, distance=d)
        self.assertEqual(len(checks.classification("r", larger, major, self.N)), 1)
        wrong_distance = MajorArc(a, q, self.N, distance=d + Fraction(1, 10**9))
        self.assertEqual(len(checks.classification("r", wrong_distance, major, self.N)), 1)
        as_major = MajorArc(0, 1, self.N, distance=checks.circle_dist(minor))
        self.assertEqual(len(checks.classification("r", as_major, minor, self.N)), 1)
        far = MinorArcReport(self.N, 1, 2, float(checks.circle_dist(minor - Fraction(1, 2))))
        self.assertEqual(len(checks.classification("r", far, minor, self.N)), 1)

    def test_arc_listing(self):
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp) / "arcs"
            self.assertEqual(cli.main(["arcs", "--n", "32", "--out", str(base)]), 0)
            payload = json.loads(base.with_suffix(".json").read_text())
        self.assertEqual(checks.arc_listing("r", payload, 32), [])
        dropped = dict(payload, arcs=payload["arcs"][:-1])
        self.assertEqual(checks.arc_listing("r", dropped, 32)[0][0], "arc_count")
        bad = [dict(arc) for arc in payload["arcs"]]
        bad[5]["halfwidth"] = "1/3"
        self.assertEqual(
            checks.arc_listing("r", dict(payload, arcs=bad), 32)[0][0], "arc_halfwidth"
        )

    def test_totients(self):
        self.assertEqual(checks.totients(12)[1:], [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4])


class TracerTest(unittest.TestCase):
    def test_bindings_wrapped_and_restored(self):
        originals = (verify.kernel_product, kernel.phi_series, kernel.KernelField.evaluate_factor)
        with Tracer():
            self.assertIsNot(verify.kernel_product, originals[0])
            self.assertIs(verify.kernel_product, kernel.kernel_product)
            self.assertIsNot(kernel.phi_series, originals[1])
        self.assertEqual(
            (verify.kernel_product, kernel.phi_series, kernel.KernelField.evaluate_factor),
            originals,
        )

    def test_corner_scan_metrics(self):
        with Tracer() as tracer:
            start = perf_counter()
            report = verify.corner_scan(build_space([5]), math.inf, SMALL)
            wall = perf_counter() - start
        m = layer_metrics(tracer.spans, wall)
        self.assertLessEqual(sum(m[f"{layer}.self_s"] for layer in LAYERS), wall)
        self.assertEqual(m["verify.records"], len(report.records))
        self.assertEqual(m["kernel.grid_calls"], len(SMALL) * 12)
        self.assertGreater(m["kernel.offgrid_calls"], 0)
        self.assertGreaterEqual(m["measure.refine_evals"], m["kernel.offgrid_calls"])
        self.assertGreater(m["specialfn.phi_series.cells"], 0)
        self.assertEqual(m["arcs.self_s"], 0.0)
        # the self times telescope: every span's duration is its subtree's self time
        top = [s for s in tracer.spans if s.parent is None]
        self.assertAlmostEqual(
            sum(s.duration for s in top),
            sum(m[f"{layer}.self_s"] for layer in LAYERS),
            places=9,
        )


if __name__ == "__main__":
    unittest.main()
