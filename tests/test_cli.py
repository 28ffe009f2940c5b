"""Command-line surface: configs, outputs, exit codes, determinism."""

import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oddsphere
from oddsphere import verify
from oddsphere.arcs import MajorArc, farey, write_listing
from oddsphere.cli import SCANS, main
from oddsphere.space import build_space, format_rational


def run(args):
    return main([str(a) for a in args])


def run_child(args):
    """The CLI in a child process with a timeout, so a hang or a crash
    fails the test instead of the suite."""
    src = str(Path(oddsphere.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "oddsphere.cli", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_space_info(capsys):
    assert run(["space-info", "--dims", "3"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["p0"] == "22/3" and payload["s"] == "3"
    assert payload["schema"] == 1


def test_space_info_rejects_even_dimension(capsys):
    assert run(["space-info", "--dims", "4"]) == 2
    assert "odd" in capsys.readouterr().err


def test_kernel_command_t0_is_real(tmp_path, capsys):
    base = tmp_path / "field"
    assert run(["kernel", "--dims", "3", "--n", 16, "--t", "0", "--out", base]) == 0
    lines = (tmp_path / "field.csv").read_text().splitlines()
    assert lines[0] == "factor,theta,re,im"
    assert all(float(line.split(",")[3]) == 0.0 for line in lines[1:])
    header = json.loads((tmp_path / "field.json").read_text())
    assert header["schema"] == 1 and header["N"] == 16


def test_kernel_command_product_and_period_time(tmp_path):
    base = tmp_path / "field2"
    assert run(
        ["kernel", "--dims", "3,5", "--n", 8, "--t", "T/3", "--out", base]
    ) == 0
    lines = (tmp_path / "field2.csv").read_text().splitlines()
    factors = {line.split(",")[0] for line in lines[1:]}
    assert factors == {"0", "1"}


def test_kernel_malformed_betas(tmp_path, capsys):
    assert run(["kernel", "--dims", "3", "--betas", "1,", "--out", tmp_path / "x"]) == 2
    assert "malformed" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dims = 3\nbetas = 1\n")
    assert run(["space-info", "--config", cfg, "--dims", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dims"] == [5]  # flag wins over file


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dims = 3\nbogus = 1\n")
    assert run(["space-info", "--config", cfg]) == 2
    assert "bogus" in capsys.readouterr().err


def test_config_parse_error_reports_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dims = 3\nnot a line\n")
    assert run(["space-info", "--config", cfg]) == 2
    assert "line 2" in capsys.readouterr().err


def test_arcs_command_geometry(tmp_path):
    base = tmp_path / "arcs"
    assert run(["arcs", "--q", 3, "--n", 10, "--out", base]) == 0
    payload = json.loads((tmp_path / "arcs.json").read_text())
    assert payload["schema"] == 1
    halfwidths = [entry["halfwidth"] for entry in payload["arcs"]]
    assert halfwidths == ["1/10", "1/30", "1/20", "1/30"]
    assert payload["arcs"][0]["center"] == "0"


@pytest.mark.parametrize(
    # at N = 7.25 = 29/4, gcd(4, q) takes the values 1, 2 and 4; N = 2.5 is
    # the smallest table with an entry past 0/1 (one chunk of one entry);
    # N = 1500.3 has n near 6.6e15, so every half-width is a large int
    "flags",
    [["--n", 512], ["--n", 100.5, "--q", 40], ["--n", 2], ["--n", 7.25], ["--n", 2.5],
     ["--n", 1500.3, "--q", 60]],
)
def test_arcs_command_writes_the_json_dump_of_each_major_arc(flags, tmp_path):
    assert run(["arcs", *flags, "--out", tmp_path / "arcs"]) == 0
    N = float(flags[1])
    Q = int(flags[3]) if len(flags) > 2 else math.ceil(N) - 1
    payload = {
        "schema": 1, "N": N, "Q": Q, "arcs": [MajorArc(a, q, N).to_json() for a, q in farey(Q)]
    }
    want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "arcs.json").read_bytes() == want.encode()


def test_arc_halfwidths_are_exact_past_int64(tmp_path, monkeypatch):
    # N = 1500.3 = n/m with n near 6.6e15, so (q/g) n passes 2^63 for q >= 1024;
    # the listing is written from these entries in place of the Farey table
    N = 1500.3
    n, m = Fraction(N).as_integer_ratio()
    q = np.repeat(np.arange(1024, 1501), 2)
    a = np.where(np.arange(q.size) % 2 == 0, 1, q - 1)
    monkeypatch.setattr("oddsphere.arcs._farey_table", lambda Q: (np.r_[0, a], np.r_[1, q]))
    assert write_listing(N, 1500, tmp_path / "arcs.json") == q.size + 1
    arcs = json.loads((tmp_path / "arcs.json").read_text())["arcs"][1:]
    assert len(arcs) == q.size
    assert max(k // math.gcd(m, k) * n for k in q.tolist()) > 2**63
    for arc, aa, qq in zip(arcs, a.tolist(), q.tolist()):
        assert (arc["a"], arc["q"], arc["center"]) == (aa, qq, f"{aa}/{qq}")
        assert arc["halfwidth"] == format_rational(Fraction(m, qq * n))
        assert Fraction(arc["halfwidth"]) == 1 / (qq * Fraction(N))


def test_arcs_listing_memory_stays_bounded(tmp_path):
    # the N = 512 listing (79,596 arcs) streams from two integer arrays
    run(["arcs", "--n", 512, "--out", tmp_path / "warm"])
    tracemalloc.start()
    try:
        assert run(["arcs", "--n", 512, "--out", tmp_path / "arcs"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000
    assert len(json.loads((tmp_path / "arcs.json").read_text())["arcs"]) == 79_596


def test_arcs_command_rejects_q_at_or_above_N(capsys):
    assert run(["arcs", "--q", 10, "--n", 10]) == 2
    assert "below N" in capsys.readouterr().err


@pytest.mark.parametrize("N", ["1", "0", "-3"])
def test_arcs_command_rejects_N_at_most_1(N, tmp_path, capsys):
    assert run(["arcs", "--n", N, "--out", tmp_path / "x"]) == 2
    assert f"need N > 1, got {float(N)}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["arcs"], ["kernel", "--dims", "3"]])
@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_non_finite_N_is_a_usage_error(command, bad, tmp_path, capsys):
    assert run(command + ["--n", bad, "--out", tmp_path / "x"]) == 2
    assert "N must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("N", ["-5", "-0.5"])
def test_kernel_rejects_negative_N_without_hanging(N, tmp_path):
    done = run_child(["kernel", "--dims", "3", f"--n={N}", "--out", tmp_path / "x"])
    assert done.returncode == 2, done.stderr
    assert f"need N >= 1, got {float(N)}" in done.stderr


def test_kernel_command_refuses_a_grid_past_the_byte_guard(tmp_path):
    # N = 6e7 asks for 1,920,360,960 nodes on S^3, about 1e11 bytes to
    # sample: a usage error that names N and the bytes, before any allocation
    done = run_child(["kernel", "--dims", "3", "--n", 60_000_000, "--out", tmp_path / "x"])
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert "N = 60000000.0 needs a grid of 1.04e+11 bytes > 2147483648" in done.stderr
    assert not (tmp_path / "x.csv").exists()


def test_arcs_command_refuses_a_farey_table_past_the_guard(tmp_path):
    # N = 1e6 needs a 1e6 x 1e6 table (931 GiB): a usage error, before any allocation
    done = run_child(["arcs", "--n", "1e6", "--out", tmp_path / "x"])
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert "N = 1000000.0" in done.stderr and "Q = 999999" in done.stderr
    assert not (tmp_path / "x.json").exists()


def test_arcs_command_refuses_a_farey_table_past_the_byte_guard(tmp_path):
    # Q = 19999 has 4.0e8 cells, under 2^31, but the table would peak near
    # 3.9e9 bytes: a usage error that names the bytes, before any allocation
    done = run_child(["arcs", "--n", 20000, "--out", tmp_path / "x"])
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert "Q = 19999 needs 3.9e+09 bytes" in done.stderr
    assert not (tmp_path / "x.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "args,where",
    [
        (["--mode", "corner", "--p", "1e6"], "p = 1e+06, N = 16"),
        (["--mode", "decay", "--p", 400], "p = 400, N = 16"),
        (["--mode", "strichartz", "--p", "1e12", "--trials", 2, "--time-samples", 8],
         "p = 1e+12, N = 16"),
    ],
    ids=["corner", "decay", "strichartz"],
)
def test_a_norm_that_overflows_is_a_usage_error(args, where, tmp_path, capsys):
    base = ["scan", "--dims", "3", "--nlist", "16,32,64", "--out", tmp_path / "x"]
    assert run(base + args) == 2
    assert f"{where} is not finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "bad,message",
    [
        ("inf", "t: time must be finite"),
        ("-inf", "t: time must be finite"),
        ("nan", "t: time must be finite"),
        ("T*1e400", "t: time 'T*1e400' overflows a float"),
        ("T*1e308", "t: 1e+308 periods of 6.28319 s overflow a float"),
    ],
    ids=["inf", "-inf", "nan", "T-over", "T-seconds-over"],
)
def test_non_finite_time_is_a_usage_error(bad, message, tmp_path, capsys):
    assert run(["kernel", "--dims", "3", f"--t={bad}", "--out", tmp_path / "x"]) == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# betas near 1 whose numerators' lcm, the period T / (2 pi), is near 10^400
HUGE_PERIOD = ["--dims", "3,3", "--betas", f"{10**200 + 1}/{10**200},{10**200 + 3}/{10**200}"]


@pytest.mark.parametrize(
    "args,message",
    [
        (["kernel", "--dims", 3, "--betas", "1e400"], "beta overflows a float"),
        (["kernel", "--dims", 3, "--betas", "1e-400"], "beta underflows to 0.0 as a float"),
        (["scan", "--dims", 3, "--mode", "decay", "--p", 4, "--nlist", "16,32,64",
          "--betas", "1e400"], "beta overflows a float"),
        (["scan", "--dims", 3, "--mode", "kappa", "--nu", 0, "--nlist", "16,32,64",
          "--betas", "1e-400"], "beta underflows to 0.0 as a float"),
        (["kernel", *HUGE_PERIOD, "--n", 16, "--t", "T/3"], "flow period"),
        (["scan", *HUGE_PERIOD, "--mode", "corner", "--p", 4, "--nlist", "16,32,64"],
         "flow period"),
    ],
    ids=["kernel-beta-over", "kernel-beta-under", "decay-beta-over", "kappa-beta-under",
         "kernel-period-over", "corner-period-over"],
)
def test_a_rational_without_a_float_image_is_a_usage_error(args, message, tmp_path, capsys):
    assert run([*args, "--out", tmp_path / "x"]) == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    # the exact period still prints, and plain seconds need no float period
    if "flow period" in message:
        assert run(["space-info", *HUGE_PERIOD]) == 0
        assert f"{(10**200 + 1) * (10**200 + 3)}" in capsys.readouterr().out
        assert run(["kernel", *HUGE_PERIOD, "--n", 16, "--t", "0.5",
                    "--out", tmp_path / "x"]) == 0


def test_scan_decay_exit_codes_and_determinism(tmp_path):
    base = tmp_path / "scan"
    args = [
        "scan", "--dims", "3", "--mode", "decay", "--p", 4,
        "--nlist", "8,16,32", "--arcs", "0/1,1/2", "--out", base,
    ]
    assert run(args) == 0
    first = (tmp_path / "scan.csv").read_bytes()
    payload = json.loads((tmp_path / "scan.json").read_text())
    assert payload["verdict"] == "pass" and payload["mode"] == "decay"
    assert run(args) == 0
    assert (tmp_path / "scan.csv").read_bytes() == first


def test_scan_modes_validate(tmp_path, capsys):
    assert run(["scan", "--dims", "3", "--mode", "bogus"]) == 2
    assert "mode" in capsys.readouterr().err
    # nu beyond lam-1 on the 5-sphere
    assert run(
        ["scan", "--dims", "5", "--mode", "kappa", "--nu", 2,
         "--nlist", "8,16,32", "--arcs", "0/1", "--out", tmp_path / "k"]
    ) == 2
    assert "nu" in capsys.readouterr().err
    assert run(["scan", "--dims", "3", "--mode", "decay"]) == 2  # missing p
    assert "decay scan needs p" in capsys.readouterr().err
    kappa = ["scan", "--dims", "5", "--mode", "kappa", "--nu", 0,
             "--nlist", "16,32,64", "--out", tmp_path / "k0"]
    for bad in (["--arcs", "2/4"], ["--arcs", "1/20"], ["--offsets", "3/2"]):
        assert run(kappa + bad) == 2, bad
        assert "error:" in capsys.readouterr().err
    for mode in ("decay", "corner", "threshold", "strichartz"):
        assert run(
            ["scan", "--dims", "3", "--mode", mode, "--p", 0,
             "--nlist", "16,32,64", "--out", tmp_path / mode]
        ) == 2, mode
        assert "got 0.0" in capsys.readouterr().err
    strichartz = ["scan", "--dims", "3", "--mode", "strichartz",
                  "--nlist", "8,16,32", "--trials", 2, "--out", tmp_path / "s"]
    assert run(strichartz + ["--p", -2]) == 2
    assert "got -2.0" in capsys.readouterr().err
    assert run(strichartz + ["--p", 8, "--time-samples", 0]) == 2
    assert "time_samples" in capsys.readouterr().err
    assert run(strichartz + ["--p", 8, "--seed", -1]) == 2
    assert "need seed >= 0, got -1" in capsys.readouterr().err
    for mode in ("decay", "strichartz"):
        scan = ["scan", "--dims", "3", "--mode", mode, "--p", 4, "--trials", 2,
                "--out", tmp_path / mode]
        for bad in ("nan", "inf"):
            assert run(scan + ["--nlist", "16,32,64", "--tolerance", bad]) == 2
            assert "finite tolerance" in capsys.readouterr().err
        assert run(scan + ["--nlist", "0,16,32"]) == 2
        assert "N >= 1" in capsys.readouterr().err
        assert run(scan + ["--nlist", "16,32"]) == 2
        assert "at least 3 scales" in capsys.readouterr().err
        # no degree of S^3 lies in the shell of N = 16 at beta = 1/1000
        assert run(scan + ["--nlist", "16,32,64", "--betas", "1/1000"]) == 2
        err = capsys.readouterr().err
        assert "N = 16: the shell of S^3 with beta = 1/1000 holds no degree" in err
    # an oversample below the aliasing floor is a usage error, not a verdict
    assert run(
        ["scan", "--dims", "3", "--mode", "corner", "--p", 4, "--oversample", 1,
         "--nlist", "16,32,64", "--out", tmp_path / "coarse"]
    ) == 2
    assert "under-resolves" in capsys.readouterr().err
    # and so is one under a sup that reads grid values
    for mode in (["--mode", "threshold", "--p", "inf", "--nlist", "16,32,64"],
                 ["--mode", "kappa", "--nu", 0]):
        assert run(["scan", "--dims", "3", *mode, "--oversample", 1,
                    "--out", tmp_path / "coarse"]) == 2
        assert "under-resolves" in capsys.readouterr().err
    decay = ["scan", "--dims", "3", "--mode", "decay", "--p", 4, "--nlist", "16,32,64",
             "--out", tmp_path / "repeat"]
    for bad, message in ((["--arcs", "0/1,0/1"], "got 0/1 twice"),
                         (["--offsets", "0,0"], "got 0 twice")):
        assert run(decay + bad) == 2
        assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


def test_scan_threshold_passes_at_the_floor(tmp_path):
    base = tmp_path / "floor"
    code = run(
        ["scan", "--dims", "3", "--mode", "threshold", "--p", 3,
         "--nlist", "16,32,64,128", "--arcs", "0/1,1/2,1/3", "--out", base]
    )
    payload = json.loads((tmp_path / "floor.json").read_text())
    assert code == 0 and payload["verdict"] == "pass"


def test_scan_threshold_failing_exit_code(tmp_path):
    # p far below the away-region floor: verdict fail -> exit 1
    base = tmp_path / "thresh"
    code = run(
        ["scan", "--dims", "3", "--mode", "threshold", "--p", 1.2,
         "--nlist", "16,32,64,128", "--arcs", "0/1,1/2", "--out", base]
    )
    payload = json.loads((tmp_path / "thresh.json").read_text())
    assert code == (0 if payload["verdict"] == "pass" else 1)
    assert payload["verdict"] == "fail"
    assert code == 1


def test_scan_strichartz_small(tmp_path):
    base = tmp_path / "str"
    code = run(
        ["scan", "--dims", "3", "--mode", "strichartz", "--p", 8,
         "--nlist", "8,16,32", "--trials", 2, "--seed", 7,
         "--time-samples", 16, "--out", base]
    )
    payload = json.loads((tmp_path / "str.json").read_text())
    assert payload["mode"] == "strichartz"
    assert code == (0 if payload["verdict"] == "pass" else 1)


def test_kernel_defaults_to_cwd_named_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["kernel", "--dims", "3", "--n", 8]) == 0
    assert (tmp_path / "kernel_field.csv").exists()


def test_config_file_builds_space(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dims = 3,5\nbetas = 1,2/3\n# comment\n")
    assert run(["space-info", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dims"] == [3, 5] and payload["betas"] == ["1", "2/3"]


def test_config_file_errors(tmp_path, capsys):
    cases = [
        ("not a config", "line 1: expected key=value"),
        ("dims = 3\n= 5", "line 2: empty key"),
        ("dims = 3\ndims = 5", "line 2: duplicate key 'dims'"),
        ("betas = 1", "missing required key 'dims'"),
        ("dims = 3\nbetas = 1,", "malformed comma list"),
    ]
    cfg = tmp_path / "run.cfg"
    for text, message in cases:
        cfg.write_text(text)
        assert run(["space-info", "--config", cfg]) == 2, text
        assert message in capsys.readouterr().err, text


@pytest.mark.parametrize(
    "args,message",
    [
        (["kernel", "--dims", "3", "--betas", "1/0"], "zero denominator"),
        (["kernel", "--dims", "3", "--t", "T/0"], "zero denominator"),
        (["scan", "--dims", "3", "--mode", "decay", "--p", 4, "--offsets", "1/0"],
         "zero denominator"),
        (["space-info", "--config", "{tmp}/missing.cfg"], "missing.cfg"),
        (["kernel", "--dims", "3", "--n", 8, "--out", "{tmp}/missing/field"], "missing/field"),
        # no degree of S^3 lies in the shell of N = 16 at beta = 1/1000
        (["kernel", "--dims", "3", "--n", 16, "--betas", "1/1000", "--out", "{tmp}/x"],
         "N = 16: the shell of S^3 with beta = 1/1000 holds no degree"),
    ],
    ids=["betas", "time", "offsets", "config", "out", "empty-shell"],
)
def test_usage_errors_exit_2(args, message, tmp_path, capsys):
    args = [str(a).format(tmp=tmp_path) for a in args]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert not any(tmp_path.iterdir())


def test_scan_grid_follows_beta(tmp_path):
    # the grid grows with sqrt(beta), so a large beta is resolved at the
    # default oversample instead of failing the resolution floor
    assert run(
        ["scan", "--mode", "decay", "--dims", 3, "--betas", 100, "--p", 4,
         "--nlist", "16,32,64", "--out", tmp_path / "beta"]
    ) == 0


@pytest.mark.parametrize(
    "mode, library_scan",
    [
        ("decay", lambda sp: verify.decay_scan(sp, 4.0)),
        ("strichartz", lambda sp: verify.strichartz_zonal_scan(sp, 4.0)),
    ],
    ids=["decay", "strichartz"],
)
def test_scan_defaults_live_in_the_library(mode, library_scan, tmp_path):
    # a CLI scan given only the required keys reports exactly what the
    # library call with its own defaults reports, params included
    cli_base, lib_base = tmp_path / "cli", tmp_path / "lib"
    code = run(["scan", "--dims", 3, "--mode", mode, "--p", 4, "--out", cli_base])
    report = library_scan(build_space([3]))
    assert code == (0 if report.passed else 1)
    verify.write_report(report, lib_base.with_suffix(".json"), lib_base.with_suffix(".csv"))
    for suffix in (".json", ".csv"):
        assert cli_base.with_suffix(suffix).read_bytes() == lib_base.with_suffix(suffix).read_bytes()


def test_p_accepts_an_exact_rational(tmp_path):
    # 1/2 is the exact rational of 0.5, rounded once: the reports agree byte for byte
    for name, p in (("rational", "1/2"), ("float", "0.5")):
        args = ["scan", "--dims", 3, "--mode", "corner", "--p", p, "--nlist", "8,16,32",
                "--arcs", "0/1,1/2", "--out", tmp_path / name]
        assert run(args) == 0
    for suffix in (".csv", ".json"):
        rational = (tmp_path / "rational").with_suffix(suffix).read_bytes()
        assert rational == (tmp_path / "float").with_suffix(suffix).read_bytes()


def test_scan_warns_about_ignored_keys(tmp_path, capsys):
    base = ["scan", "--dims", 3, "--nlist", "8,16,32", "--arcs", "0/1", "--out", tmp_path / "w"]
    assert run(base + ["--mode", "kappa", "--nu", 0, "--p", 4]) == 0
    assert "warning: p is ignored by a kappa scan" in capsys.readouterr().err
    assert run(base + ["--mode", "decay", "--p", 4, "--trials", 3]) == 0
    assert capsys.readouterr().err == "warning: trials is ignored by a decay scan\n"
    assert run(base + ["--mode", "corner", "--p", 4, "--offsets", "0"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("mode", sorted(SCANS))
def test_scan_keywords_are_scan_parameters(mode):
    # every keyword a mode passes on is a parameter of its scan; scans
    # that forward **settings take ScanPlan's fields
    scan, first, kwargs = SCANS[mode]
    params = inspect.signature(scan).parameters
    accepted = set(params)
    if any(p.kind is p.VAR_KEYWORD for p in params.values()):
        accepted |= {f.name for f in dataclasses.fields(verify.ScanPlan)}
    assert first in params
    assert set(kwargs) <= accepted - {"space", first}
