"""Command-line surface: bind key=value configs to kernels, scans, and arcs.

Commands:

    oddsphere kernel     write a sampled kernel (CSV + JSON header)
    oddsphere scan       run a scaling scan; exit 0 iff its verdict is pass
    oddsphere arcs       enumerate major-arc geometry as JSON
    oddsphere space-info print exact space invariants (d, r, s, p0, T)

Every command reads an optional config file of key=value lines (same keys
as the flags; flags win).  Rationals are exact 'p/q' strings; times accept
either plain seconds or 'T/3', 'T*2/5' style fractions of the flow period.
Outputs are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import verify
from .arcs import MajorArc, farey
from .kernel import Bump, kernel_product, write_field
from .measure import QuadratureError, TorusQuadrature
from .space import (
    ProductSpace,
    format_rational,
    parse_space_config,
    space_from_config,
    split_csv,
)

KNOWN_KEYS = {
    "dims", "betas", "n", "t", "p", "nu", "mode", "bump", "seed", "trials",
    "nlist", "arcs", "offsets", "oversample", "tolerance", "out", "q",
    "time_samples",
}

SCAN_MODES = ("decay", "corner", "kappa", "strichartz", "threshold")


class ConfigError(ValueError):
    pass


def load_config(path: str | None, overrides: dict) -> dict:
    """Merge config-file keys with CLI overrides; reject unknown keys."""
    cfg: dict[str, str] = {}
    if path:
        text = Path(path).read_text()
        cfg.update(parse_space_config(text))
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = str(value)
    unknown = set(cfg) - KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _parse_time(value: str, space: ProductSpace) -> tuple[float, str]:
    """Seconds, or a fraction of the flow period written 'T/3' or 'T*2/5'."""
    value = value.strip()
    if value.upper().startswith("T"):
        rest = value[1:].strip()
        if rest.startswith("/"):
            frac = Fraction(1, int(rest[1:]))
        elif rest.startswith("*"):
            frac = Fraction(rest[1:])
        elif not rest:
            frac = Fraction(1)
        else:
            raise ConfigError(f"cannot parse time {value!r}")
        return float(frac) * space.period_seconds, f"T*{format_rational(frac)}"
    return float(value), value


def _parse_arcs(value: str) -> tuple[tuple[int, int], ...]:
    out = []
    for item in split_csv(value):
        num, _, den = item.partition("/")
        if not den:
            raise ConfigError(f"arc must be written a/q, got {item!r}")
        out.append((int(num), int(den)))
    return tuple(out)


def _parse_N(cfg: dict) -> float:
    N = float(cfg.get("n", 64))
    if not math.isfinite(N):
        raise ConfigError(f"N must be finite, got {N}")
    return N


def _out_base(cfg: dict, default: str) -> Path:
    return Path(cfg.get("out", default))


def cmd_kernel(cfg: dict) -> int:
    space = space_from_config(cfg)
    N = _parse_N(cfg)
    t, t_label = _parse_time(cfg.get("t", "0"), space)
    bump = Bump(cfg.get("bump", "smooth"))
    oversample = int(cfg.get("oversample", 16))
    quad = TorusQuadrature.for_kernel(space, N, oversample)
    field = kernel_product(space, N, t, quad.grids(), bump)
    base = _out_base(cfg, "kernel_field")
    write_field(field, base.with_suffix(".csv"), base.with_suffix(".json"))
    print(f"kernel {space} N={N} t={t_label}: wrote {base}.csv and {base}.json")
    return 0


def cmd_scan(cfg: dict) -> int:
    space = space_from_config(cfg)
    mode = cfg.get("mode")
    if mode not in SCAN_MODES:
        raise ConfigError(f"mode must be one of {SCAN_MODES}, got {mode!r}")
    N_list = tuple(int(v) for v in split_csv(cfg["nlist"])) if "nlist" in cfg else verify.DEFAULT_N_LIST
    arcs = _parse_arcs(cfg["arcs"]) if "arcs" in cfg else verify.DEFAULT_ARCS
    offsets = (
        tuple(Fraction(v) for v in split_csv(cfg["offsets"]))
        if "offsets" in cfg
        else verify.DEFAULT_OFFSETS
    )
    common = dict(
        bump=Bump(cfg.get("bump", "smooth")),
        oversample=int(cfg.get("oversample", 16)),
        tolerance=float(cfg.get("tolerance", verify.DEFAULT_TOLERANCE)),
    )
    p = float(cfg["p"]) if "p" in cfg else None
    if p is None and mode != "kappa":
        raise ConfigError(f"{mode} scan needs p")
    if mode == "decay":
        report = verify.decay_scan(verify.ScanPlan(space, p, N_list, arcs, offsets, **common))
    elif mode == "corner":
        report = verify.corner_scan(space, p, N_list, arcs, offsets=offsets, **common)
    elif mode == "kappa":
        if "nu" not in cfg:
            raise ConfigError("kappa scan needs nu")
        report = verify.kappa_scan(
            space, int(cfg["nu"]), N_list, arcs, offsets=offsets, **common
        )
    elif mode == "threshold":
        report = verify.threshold_check(space, p, N_list, arcs, offsets=offsets, **common)
    else:  # strichartz
        report = verify.strichartz_zonal_scan(
            space, p, N_list,
            trials=int(cfg.get("trials", 20)),
            seed=int(cfg.get("seed", 0)),
            time_samples=int(cfg.get("time_samples", 192)),
            **common,
        )
    base = _out_base(cfg, f"scan_{mode}")
    verify.write_report(report, base.with_suffix(".json"), base.with_suffix(".csv"))
    for warning in report.warnings:
        print(f"warning: {warning}")
    print(
        f"{mode} scan on {space}: slope={report.fitted_slope:.4f} "
        f"(target {report.target_exponent:+.4f}, budget {report.tolerance}) "
        f"-> {report.verdict}; wrote {base}.json / {base}.csv"
    )
    return 0 if report.passed else 1


def cmd_arcs(cfg: dict) -> int:
    N = _parse_N(cfg)
    Q = int(cfg.get("q", math.ceil(N) - 1))
    if not Q < N:
        raise ConfigError(f"arc denominators must stay below N: Q={Q}, N={N}")
    entries = [MajorArc(a, q, N).to_json() for a, q in farey(Q)]
    payload = {"schema": 1, "N": N, "Q": Q, "arcs": entries}
    base = _out_base(cfg, "arcs")
    path = base.with_suffix(".json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{len(entries)} arcs with q <= {Q} at N={N}: wrote {path}")
    return 0


def cmd_space_info(cfg: dict) -> int:
    space = space_from_config(cfg)
    info = space.describe()
    info["schema"] = 1
    info["period"] = f"2*pi * {info['period_over_2pi']}"
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddsphere",
        description="Schrodinger kernels on products of odd spheres: "
        "evaluation, major arcs, and scaling-exponent scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp_parser, keys):
        sp_parser.add_argument("--config", help="key=value config file")
        for key in keys:
            sp_parser.add_argument(f"--{key.replace('_', '-')}", dest=key)

    p_kernel = sub.add_parser("kernel", help="sample a kernel to CSV (+JSON header)")
    add_common(p_kernel, ["dims", "betas", "n", "t", "bump", "oversample", "out"])

    p_scan = sub.add_parser("scan", help="run a scaling scan (exit 0 iff pass)")
    add_common(
        p_scan,
        ["dims", "betas", "mode", "p", "nu", "nlist", "arcs", "offsets", "bump",
         "seed", "trials", "time_samples", "oversample", "tolerance", "out"],
    )

    p_arcs = sub.add_parser("arcs", help="enumerate major arcs as JSON")
    add_common(p_arcs, ["q", "n", "out"])

    p_info = sub.add_parser("space-info", help="print exact space invariants")
    add_common(p_info, ["dims", "betas"])

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    config_path = args.pop("config", None)
    try:
        cfg = load_config(config_path, args)
        handler = {
            "kernel": cmd_kernel,
            "scan": cmd_scan,
            "arcs": cmd_arcs,
            "space-info": cmd_space_info,
        }[command]
        return handler(cfg)
    except (ConfigError, ValueError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
