"""Run oddsphere benchmark workloads and print their metrics.

    python3 bench/run.py --workload decay_product --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of an oddsphere checkout.  Each round of the workload
runs in a fresh interpreter (``bench/workloads.py``), so every round pays
the lazy coefficient-table build a CLI run pays.  Rounds repeat until
``--seconds`` have passed; at least one always runs.

--trace 0  end-to-end metrics with tracing off: wall_s and peak_rss_mb are
           medians over the rounds; setup_s is the median of several fresh
           interpreters that import oddsphere, numpy and mpmath and build
           the workload's inputs.
--trace 1  per-layer metrics: each round is run once untraced and once
           traced; the traced round gives the layer spans, and
           trace.overhead_s is traced minus untraced wall time.

For each workload two JSON lines go to standard output; the second, the
last line for a single workload, has the keys correct, attempted, failed
and metrics.  The first records the machine, the seed and every failed
check; failures also go to stderr, naming the workload, the operation,
the check and the record.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

WORKLOADS = ("decay_product", "sup_corner_s9", "spacetime", "arcs_exact")
SETUP_REPEATS = 7
# every run must end within 180 s; the margin covers interpreter exit
DEADLINE_S = 170.0
BENCH_DIR = Path(__file__).resolve().parent


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    """Import the checkout's own src; fix BLAS threads at the CPUs we may use."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(BENCH_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


class Runner:
    def __init__(self, workload: str, args, root: Path, work: Path) -> None:
        self.workload = workload
        self.args = args
        self.root = root
        self.work = work
        self.env = child_env(root)
        self.started = perf_counter()

    def child(self, *flags: str) -> tuple[dict, float]:
        """One fresh interpreter; returns its JSON line and its wall time."""
        remaining = DEADLINE_S - (perf_counter() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the next round")
        cmd = [
            sys.executable, str(BENCH_DIR / "workloads.py"), self.workload,
            "--seed", str(self.args.seed), "--work", str(self.work), *flags,
        ]
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"round did not finish within {remaining:.0f} s") from exc
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"{' '.join(flags) or 'round'} exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed

    def rounds(self, *flag_sets: tuple[str, ...]) -> list[list[dict]]:
        """Rounds, one child per flag set each, until --seconds have passed."""
        t0 = perf_counter()
        out = []
        while not out or perf_counter() - t0 < self.args.seconds:
            out.append([self.child(*flags)[0] for flags in flag_sets])
        return out


def declared_units(root: Path, trace: int) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(runner: Runner, trace: int) -> tuple[dict, list[dict], list[str]]:
    """Metrics, every round's result, and run-level inconsistencies."""
    problems = []
    if trace:
        pairs = runner.rounds((), ("--trace",))
        layers = [traced["layers"] for _, traced in pairs]
        metrics = {key: statistics.median(x[key] for x in layers) for key in layers[0]}
        plain_wall = statistics.median(plain["wall_s"] for plain, _ in pairs)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain_wall
        if not all(traced["self_within_wall"] for _, traced in pairs):
            problems.append("summed layer self times exceed the traced wall time")
        return metrics, [r for pair in pairs for r in pair], problems
    setup = [runner.child("--setup-only")[1] for _ in range(SETUP_REPEATS)]
    results = [r for (r,) in runner.rounds(())]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    return metrics, results, problems


def run_workload(workload: str, args, root: Path, units: dict[str, str]) -> int:
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        metrics, results, problems = measure(Runner(workload, args, root, work), args.trace)
    except BenchError as exc:
        print(f"error: {workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)}, declared {sorted(units)}", file=sys.stderr)
        return 1

    hashes = {r["info"]["csv_sha256"] for r in results if "csv_sha256" in r["info"]}
    if len(hashes) > 1:
        problems.append(f"scan CSV differs between rounds: {sorted(hashes)}")
    failures = [f for r in results for f in r["failures"]]
    for f in failures:
        print(
            f"FAILED workload={workload} op={f['op']} check={f['check']} "
            f"record={f['record']}: {f['detail']}",
            file=sys.stderr,
        )
    for problem in problems:
        print(f"INCONSISTENT workload={workload}: {problem}", file=sys.stderr)
    print(json.dumps({
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(results),
        "machine": results[0]["machine"],
        "info": [r["info"] for r in results],
        "failures": failures,
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(len({f["op"] for f in r["failures"]}) for r in results),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="oddsphere benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "oddsphere" / "__init__.py").is_file():
        print(f"error: {root} holds no oddsphere source (src/oddsphere)", file=sys.stderr)
        return 2
    units = declared_units(root, args.trace)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(w, args, root, units) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
