"""The four benchmark workloads; run as a script, one round in a fresh interpreter.

    python3 bench/workloads.py WORKLOAD --seed N --work DIR [--trace] [--setup-only]

A round builds the workload's inputs from the seed (set-up), runs its
operations back to back (timed, the result is wall_s), reads the peak RSS,
then checks every output outside the timed section.  It prints one JSON
line.  ``--setup-only`` stops after the inputs are built, so the caller can
time set-up on its own.  ``--trace`` wraps the layers in spans
(``spans.Tracer``) for the timed section and reports per-layer metrics.

Run it from the root of an oddsphere checkout with ``src`` on PYTHONPATH;
``bench/run.py`` does both.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import random
import resource
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import mpmath  # noqa: F401  (imported lazily by the program; part of set-up)
import numpy as np

import oddsphere
from oddsphere import arcs, cli, verify
from oddsphere.kernel import Bump, kernel_1d
from oddsphere.space import build_space

import checks
from spans import Tracer, layer_metrics

DOUBLING = tuple(16 * 2**k for k in range(7))  # 16, 32, ..., 1024


def parse_tau(label: str) -> Fraction:
    """Exact t/T from a record label 'a/q' or 'a/q+f'."""
    return sum((Fraction(part) for part in label.split("+")), Fraction(0))


def uniform_grid(lam: int, N: float) -> np.ndarray:
    """The scans' quadrature grid: 16 x the bandwidth 2N + lam, from 0."""
    M = math.ceil(16 * (2.0 * N + lam))
    return 2.0 * math.pi * np.arange(M) / M


def tag(op: str, failures: list) -> list:
    return [(op, *failure) for failure in failures]


class KernelCheck:
    """Kernel-vs-oracle deviation over many fields; judges the worst field."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.worst = (0.0, "")

    def field(self, record: str, factor, N: float, t: float):
        """Compare one factor kernel on its oracle nodes; return (nodes, oracle)."""
        nodes = checks.oracle_nodes(uniform_grid(factor.lam, N), N, self.rng)
        kernel = kernel_1d(factor.lam, factor.beta, N, t, nodes, Bump())
        oracle = checks.oracle_kernel(factor.dim, factor.beta, N, t, nodes)
        self.worst = max(self.worst, (checks.kernel_deviation(kernel, oracle), record))
        return nodes, oracle

    def failures(self) -> list:
        dev, record = self.worst
        return checks.kernel_oracle(record, dev)


class DecayProduct:
    """`oddsphere scan --mode decay` on S^3 x S^5 with betas 1, 2/3, p = 4."""

    ops = ("scan",)

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.base = work / "decay"
        self.space = build_space([3, 5], ["1", "2/3"])
        self.argv = [
            "scan", "--mode", "decay", "--dims", "3,5", "--betas", "1,2/3",
            "--p", "4", "--nlist", ",".join(map(str, DOUBLING)),
            "--out", str(self.base),
        ]

    def run(self):
        return cli.main(self.argv)

    def check(self, status: int, info: dict) -> list:
        failures = []
        if status != 0:
            failures.append(("exit_status", "scan", f"exit {status}, want 0 (p=4 >= s=3)"))
        data = self.base.with_suffix(".csv").read_bytes()
        info["csv_sha256"] = hashlib.sha256(data).hexdigest()
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        factors = self.space.factors
        kernel = KernelCheck(self.seed)
        for N, tau in sorted({(int(r["N"]), r["tau"]) for r in rows}):
            t = float(parse_tau(tau)) * self.space.period_seconds
            for j, f in enumerate(factors):
                kernel.field(f"N={N} tau={tau} factor={j}", f, N, t)
        failures += kernel.failures()
        for row in rows:
            N = int(row["N"])
            l2 = math.prod(checks.spectral_l2(f.dim, f.beta, N) for f in factors)
            record = f"N={N} tau={row['tau']}"
            failures += checks.at_least("l4_above_l2", record, float(row["norm"]), l2)
        info["records"] = len(rows)
        return tag("scan", failures)


class SupCornerS9:
    """verify.corner_scan on S^9, p = inf, N = 16..512, default arcs."""

    ops = ("scan",)

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.space = build_space([9])
        self.N_list = DOUBLING[:6]

    def run(self):
        return verify.corner_scan(self.space, math.inf, self.N_list)

    def check(self, report, info: dict) -> list:
        failures = checks.verdict("corner scan", report.verdict)
        info["slope"] = report.fitted_slope
        f = self.space.factors[0]
        fields = defaultdict(list)
        for rec in report.records:
            fields[(rec.N, rec.tau)].append(rec)
        kernel = KernelCheck(self.seed)
        for (N, tau), recs in sorted(fields.items()):
            t = float(parse_tau(tau)) * self.space.period_seconds
            nodes, oracle = kernel.field(f"N={N} tau={tau}", f, N, t)
            boxes = checks.pole_boxes(nodes, 1.0 / N)
            upper = checks.sup_bound(f.dim, f.beta, N)
            for rec in recs:
                pole = int(rec.region[len("corner")])
                grid_max = float(np.max(np.abs(oracle[boxes[pole]])))
                record = f"N={N} tau={tau} {rec.region}"
                failures += checks.sup_bracket(record, rec.norm, grid_max, upper)
        return tag("scan", failures + kernel.failures())


class Spacetime:
    """verify.strichartz_zonal_scan on S^3, p = 8, N = 16..512, seeded trials."""

    ops = ("scan",)
    TRIALS = 20
    TIME_SAMPLES = 192

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.space = build_space([3])
        self.N_list = DOUBLING[:6]

    def scan(self, p: float, N_list):
        return verify.strichartz_zonal_scan(
            self.space, p, N_list, trials=self.TRIALS, seed=self.seed,
            time_samples=self.TIME_SAMPLES,
        )

    def run(self):
        return self.scan(8.0, self.N_list)

    def check(self, report, info: dict) -> list:
        failures = checks.verdict("strichartz scan", report.verdict)
        info["slope"] = report.fitted_slope
        for rec in report.records:
            failures += checks.at_least("unit_data_floor", f"N={rec.N}", rec.norm, 1.0)
        for rec in self.scan(2.0, self.N_list[:3]).records:
            failures += checks.unit_norm(f"p=2 N={rec.N}", rec.norm)
        return tag("scan", failures)


class ArcsExact:
    """Exact-rational arc queries at N = 512, then `oddsphere arcs --n 512`."""

    N = 512
    QUERIES = 4  # half major, half minor
    ops = tuple(f"query{k}" for k in range(QUERIES)) + ("listing",)

    def __init__(self, seed: int, work: Path) -> None:
        self.base = work / "arcs"
        self.argv = ["arcs", "--n", str(self.N), "--out", str(self.base)]
        self.times = self.draw_times(random.Random(seed), self.N, self.QUERIES)

    @staticmethod
    def draw_times(rng: random.Random, N: int, count: int) -> list[Fraction]:
        """Alternating major and minor times.

        A major time sits strictly inside the window of a random a/q.  By
        Dirichlet's theorem every other time is within 1/(qN) of some a/q
        with q < N, so minor times lie on window edges; a reduced c/N is
        one, since |c/N - a/q| >= 1/(qN) for every q < N.
        """
        times = []
        while len(times) < count:
            if len(times) % 2 == 0:
                q = rng.randrange(2, N)
                a = rng.randrange(1, q)
                tau = Fraction(a, q) + Fraction(rng.randrange(-999, 1000), 1000 * q * N)
            else:
                a, q = rng.randrange(1, N), N
                tau = Fraction(a, q)
            if math.gcd(a, q) == 1:
                times.append(tau)
        return times

    def run(self):
        answers = [arcs.classify_fraction(tau, self.N) for tau in self.times]
        return answers, cli.main(self.argv)

    def check(self, out, info: dict) -> list:
        answers, status = out
        failures = []
        for op, tau, answer in zip(self.ops, self.times, answers):
            failures += tag(op, checks.classification(f"tau={tau}", answer, tau, self.N))
        if status != 0:
            failures.append(("listing", "exit_status", "oddsphere arcs", f"exit {status}"))
        payload = json.loads(self.base.with_suffix(".json").read_text())
        failures += tag("listing", checks.arc_listing(f"N={self.N}", payload, self.N))
        info["arcs"] = len(payload["arcs"])
        return failures


WORKLOADS = {
    "decay_product": DecayProduct,
    "sup_corner_s9": SupCornerS9,
    "spacetime": Spacetime,
    "arcs_exact": ArcsExact,
}


def machine() -> dict:
    """CPU count, Python, numpy and the BLAS numpy links, with its thread count."""
    import ctypes
    import os
    import platform

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "cpus": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    src = (Path.cwd() / "src" / "oddsphere").resolve()
    if Path(oddsphere.__file__).resolve().parent != src:
        print(f"error: imported {oddsphere.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.work)
    if args.setup_only:
        print(json.dumps({"setup": True}))
        return 0

    tracer = Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        start = perf_counter()
        out = workload.run()
        wall = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    info: dict = {}
    failures = workload.check(out, info)
    result = {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(workload.ops),
        "failures": [
            {"op": op, "check": chk, "record": rec, "detail": det}
            for op, chk, rec, det in failures
        ],
        "info": info,
        "machine": machine(),
    }
    if tracer is not None:
        layers = layer_metrics(tracer.spans, wall)
        self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        result["layers"] = layers
        result["self_within_wall"] = self_sum <= wall
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
