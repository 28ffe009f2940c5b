"""Golden records: the CI scans' norms and CSV digests, pinned.

tests/golden_records.json holds, for each scan config of the CI console
steps, the exit status, the SHA-256 of the CSV it writes and every norm as
float.hex, together with the fingerprint of the machine that recorded them
(numpy version, BLAS build, the SIMD extensions numpy dispatches to).  On a
machine with the same fingerprint a refactor must leave every record
unchanged bit for bit; elsewhere BLAS and SIMD kernels may round
differently, so the norms are compared at rel 1e-12 and the digest is not.

To record the table from the code on the path:

    PYTHONPATH=src python tests/test_golden_records.py
"""

import csv
import hashlib
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from oddsphere.cli import main

GOLDEN = Path(__file__).with_name("golden_records.json")
CONFIGS = {
    "corner_s9": "--dims 9 --mode corner --p inf --nlist 16,32,64",
    "decay_s3_inf": "--dims 3 --mode decay --p inf --nlist 16,32,64",
    "kappa_s5_nu1": "--dims 5 --mode kappa --nu 1 --nlist 16,32,64",
    "kappa_s5_nu0": "--dims 5 --mode kappa --nu 0 --nlist 16,32,64",
    "strichartz": "--dims 3 --mode strichartz --p 8 --nlist 16,32,64 --trials 2 "
    "--time-samples 16 --seed 1",
    "strichartz100": "--dims 3 --mode strichartz --p 8 --nlist 16,32,64 --trials 2 "
    "--time-samples 100 --seed 1",
    "strichartz256": "--dims 3 --mode strichartz --p 8 --nlist 64,128,256 --trials 2 "
    "--time-samples 16 --seed 1",
    "strichartz_trials20": "--dims 3 --mode strichartz --p 8 --trials 20 --seed 0",
    "threshold_s3_p4": "--dims 3 --mode threshold --p 4 --nlist 16,32,64",
    # at p = 8 the 1/p-th root hides a last-bit change of the power sums,
    # as a change of the angle blocks makes; at p = 3 it shows
    "strichartz_p3": "--dims 3 --mode strichartz --p 3 --nlist 16,32,64,128,256 --trials 2 "
    "--time-samples 16 --seed 1",
}


def fingerprint() -> dict:
    """What decides the rounding of a record: numpy, its BLAS, its SIMD targets."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        simd = config["SIMD Extensions"]
    except (TypeError, KeyError):  # numpy older than 1.25 prints its config only
        return {"numpy": np.__version__}
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "simd": sorted(simd.get("baseline", [])) + sorted(simd.get("found", [])),
    }


def run_config(name: str, out: Path) -> dict:
    base = out / name
    status = main(["scan", *CONFIGS[name].split(), "--out", str(base)])
    data = base.with_suffix(".csv").read_bytes()
    rows = csv.DictReader(data.decode().splitlines())
    return {
        "exit": status,
        "csv_sha256": hashlib.sha256(data).hexdigest(),
        "norms": [float(row["norm"]).hex() for row in rows],
    }


def record(out: Path) -> None:
    table = {
        "fingerprint": fingerprint(),
        "records": {name: run_config(name, out) for name in CONFIGS},
    }
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(CONFIGS))
def test_records_match_the_golden_table(golden, name, tmp_path):
    want = golden["records"][name]
    got = run_config(name, tmp_path)
    assert got["exit"] == want["exit"]
    assert len(got["norms"]) == len(want["norms"])
    if fingerprint() == golden["fingerprint"]:
        print(f"{name}: exact comparison (fingerprint matches)")
        assert got["norms"] == want["norms"]
        assert got["csv_sha256"] == want["csv_sha256"]
    else:
        warnings.warn(f"{name}: fingerprint differs, norms compared at rel 1e-12, digest skipped")
        assert [float.fromhex(v) for v in got["norms"]] == pytest.approx(
            [float.fromhex(v) for v in want["norms"]], rel=1e-12, abs=0
        )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
    sys.exit(0)
