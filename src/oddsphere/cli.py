"""Command-line surface: bind key=value configs to kernels, scans, and arcs.

Commands:

    oddsphere kernel     write a sampled kernel (CSV + JSON header)
    oddsphere scan       run a scaling scan; exit 0 iff its verdict is pass
    oddsphere arcs       enumerate major-arc geometry as JSON (arcs.write_listing)
    oddsphere space-info print exact space invariants (d, r, s, p0, T)

Every setting is one entry of KEYS: the parser of its text and the library
keyword it feeds.  Flags (--key) and the key=value lines of an optional
config file are the same keys through the same parser; flags win.  A command
passes on only the keys that were set, so the library signatures hold every
default, and a scan warns about each set key its mode ignores.  Rationals
are exact 'p/q' strings (the exponent p also takes a float or inf); times
accept either plain seconds or 'T/3', 'T*2/5' style fractions of the flow
period.  Outputs are deterministic for a fixed config and seed.

Exit status: 0 on success (a scan: verdict pass), 1 for a scan whose verdict
is not pass, 2 for a usage error, such as a bad key or value, an unreadable
config file, a grid too coarse or an unwritable output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import verify
from .arcs import write_listing
from .kernel import Bump, kernel_product, write_field
from .measure import QuadratureError, TorusQuadrature
from .space import ProductSpace, build_space, format_rational

DEFAULT_N = 64.0  # frequency scale of the kernel and arcs commands


class ConfigError(ValueError):
    pass


def _items(value: str) -> list[str]:
    """Split a comma list into stripped items; an empty item is an error."""
    items = [item.strip() for item in value.split(",")]
    if not all(items):
        raise ConfigError(f"malformed comma list: {value!r}")
    return items


def _list_of(parse: Callable[[str], object]) -> Callable[[str], tuple]:
    return lambda value: tuple(parse(item) for item in _items(value))


def _rational(text: str) -> Fraction:
    """An exact rational 'p/q' or 'p'."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ConfigError(f"zero denominator in {text!r}") from None


def _exponent(text: str) -> float:
    """A float such as 0.5 or inf, or an exact rational 'p/q' rounded once."""
    try:
        return float(text)
    except ValueError:
        return float(_rational(text))


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"N must be finite, got {value}")
    return value


def _arc(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    if not den:
        raise ConfigError(f"arc must be written a/q, got {text!r}")
    return int(num), int(den)


@dataclass(frozen=True)
class Time:
    """A time as written: plain seconds, or a fraction of the flow period."""

    amount: float
    per_period: bool
    label: str

    def seconds(self, space: ProductSpace) -> float:
        seconds = self.amount * space.period_seconds if self.per_period else self.amount
        if not math.isfinite(seconds):  # plain seconds are finite when parsed
            raise ConfigError(
                f"t: {self.amount:g} periods of {space.period_seconds:g} s overflow a float"
            )
        return seconds


def _time(text: str) -> Time:
    """Seconds, or a fraction of the flow period written 'T', 'T/3' or 'T*2/5'."""
    text = text.strip()
    if not text.upper().startswith("T"):
        seconds = float(text)
        if not math.isfinite(seconds):
            raise ConfigError(f"time must be finite, got {seconds}")
        return Time(seconds, False, text)
    rest = text[1:].strip()
    if rest.startswith("/"):
        frac = _rational(f"1/{rest[1:]}")
    elif rest.startswith("*"):
        frac = _rational(rest[1:])
    elif not rest:
        frac = Fraction(1)
    else:
        raise ConfigError(f"cannot parse time {text!r}")
    try:
        amount = float(frac)
    except OverflowError:
        raise ConfigError(f"time {text!r} overflows a float") from None
    return Time(amount, True, f"T*{format_rational(frac)}")


@dataclass(frozen=True)
class Key:
    """One setting: how its text is parsed and the library keyword it feeds."""

    parse: Callable[[str], object]
    kwarg: str
    help: str


KEYS = {
    "dims": Key(_list_of(int), "dims", "odd sphere dimensions, e.g. 3,5"),
    "betas": Key(_list_of(_rational), "betas", "metric coefficients p/q, one per sphere"),
    "n": Key(_finite, "N", f"frequency scale N (default {DEFAULT_N:g})"),
    "t": Key(_time, "t", "time: seconds, or T, T/3, T*2/5 of the flow period (default 0)"),
    "p": Key(_exponent, "p", "Lebesgue exponent, e.g. 4, 1/2 or inf (the sup norm)"),
    "nu": Key(int, "nu", "decomposition index of a kappa scan"),
    "mode": Key(str, "mode", "scan mode: decay, corner, kappa, threshold or strichartz"),
    "bump": Key(Bump, "bump", "frequency cutoff: smooth or sharp"),
    "seed": Key(int, "seed", "random seed of the strichartz scan"),
    "trials": Key(int, "trials", "random data per N of the strichartz scan"),
    "nlist": Key(_list_of(int), "N_list", "ladder of scales N, e.g. 16,32,64"),
    "arcs": Key(_list_of(_arc), "arcs", "arc centres a/q, e.g. 0/1,1/2"),
    "offsets": Key(_list_of(_rational), "offsets", "offsets in arc half-widths, e.g. 0,1/4"),
    "oversample": Key(
        int, "oversample",
        "grid nodes per unit of kernel bandwidth, rounded up to the next even "
        "size with no prime factor above 11; at an even p over whole circles, "
        "an upper bound on the smaller grid that integrates exactly",
    ),
    "tolerance": Key(float, "tolerance", "slope budget of the verdict"),
    "out": Key(Path, "out", "output path without suffix"),
    "q": Key(int, "Q", "largest arc denominator (default ceil(N) - 1)"),
    "time_samples": Key(int, "time_samples", "stratified times per trial"),
}


def _read_config(text: str) -> dict[str, str]:
    """key = value lines ('#' starts a comment) -> text by lower-cased key."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path: str | None, overrides: dict) -> dict:
    """Parse config-file lines and flag values (flags win) through KEYS.

    Returns library keyword -> value for the keys that were set.
    """
    raw = _read_config(Path(path).read_text()) if path else {}
    raw.update((key, value) for key, value in overrides.items() if value is not None)
    unknown = set(raw) - set(KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = {}
    for key, text in raw.items():
        try:
            cfg[KEYS[key].kwarg] = KEYS[key].parse(text)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    return cfg


def _pick(cfg: dict, kwargs: tuple[str, ...]) -> dict:
    return {kw: cfg[kw] for kw in kwargs if kw in cfg}


def _space(cfg: dict) -> ProductSpace:
    if "dims" not in cfg:
        raise ConfigError("config is missing required key 'dims'")
    return build_space(cfg["dims"], cfg.get("betas"))


def cmd_kernel(cfg: dict) -> int:
    space = _space(cfg)
    N = cfg.get("N", DEFAULT_N)
    t = cfg.get("t") or _time("0")
    quad = TorusQuadrature.for_kernel(space, N, **_pick(cfg, ("oversample",)))
    field = kernel_product(space, N, t.seconds(space), quad, **_pick(cfg, ("bump",)))
    base = cfg.get("out", Path("kernel_field"))
    write_field(field, base.with_suffix(".csv"), base.with_suffix(".json"))
    print(f"kernel {space} N={N} t={t.label}: wrote {base}.csv and {base}.json")
    return 0


ARC_SCAN = ("N_list", "arcs", "offsets", "bump", "oversample", "tolerance")
# mode -> (scan, keyword of its second argument, keywords it takes)
SCANS = {
    "decay": (verify.decay_scan, "p", ARC_SCAN),
    "corner": (verify.corner_scan, "p", ARC_SCAN),
    "kappa": (verify.kappa_scan, "nu", ARC_SCAN),
    "threshold": (verify.threshold_check, "p", ARC_SCAN),
    "strichartz": (
        verify.strichartz_zonal_scan, "p",
        ("N_list", "bump", "oversample", "tolerance", "trials", "seed", "time_samples"),
    ),
}


def cmd_scan(cfg: dict) -> int:
    space = _space(cfg)
    mode = cfg.get("mode")
    if mode not in SCANS:
        raise ConfigError(f"mode must be one of {tuple(SCANS)}, got {mode!r}")
    scan, first, kwargs = SCANS[mode]
    if first not in cfg:
        raise ConfigError(f"{mode} scan needs {first}")
    used = {"dims", "betas", "mode", "out", first, *kwargs}
    for key, spec in KEYS.items():
        if spec.kwarg in cfg and spec.kwarg not in used:
            print(f"warning: {key} is ignored by a {mode} scan", file=sys.stderr)
    report = scan(space, cfg[first], **_pick(cfg, kwargs))
    base = cfg.get("out", Path(f"scan_{mode}"))
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
    N = cfg.get("N", DEFAULT_N)
    Q = cfg.get("Q", math.ceil(N) - 1)
    path = cfg.get("out", Path("arcs")).with_suffix(".json")
    try:
        count = write_listing(N, Q, path)
    except ValueError as exc:
        raise ConfigError(f"arcs at N = {N}: {exc}") from None
    print(f"{count} arcs with q <= {Q} at N={N}: wrote {path}")
    return 0


def cmd_space_info(cfg: dict) -> int:
    info = _space(cfg).describe()
    info["schema"] = 1
    info["period"] = f"2*pi * {info['period_over_2pi']}"
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


# command -> (handler, help, keys it takes as flags)
COMMANDS = {
    "kernel": (
        cmd_kernel, "sample a kernel to CSV (+JSON header)",
        ("dims", "betas", "n", "t", "bump", "oversample", "out"),
    ),
    "scan": (
        cmd_scan, "run a scaling scan (exit 0 iff pass)",
        ("dims", "betas", "mode", "p", "nu", "nlist", "arcs", "offsets", "bump",
         "seed", "trials", "time_samples", "oversample", "tolerance", "out"),
    ),
    "arcs": (cmd_arcs, "enumerate major arcs as JSON", ("q", "n", "out")),
    "space-info": (cmd_space_info, "print exact space invariants", ("dims", "betas")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddsphere",
        description="Schrodinger kernels on products of odd spheres: "
        "evaluation, major arcs, and scaling-exponent scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, keys) in COMMANDS.items():
        sp_parser = sub.add_parser(command, help=help_text)
        sp_parser.add_argument("--config", help="key=value config file")
        for key in keys:
            sp_parser.add_argument(f"--{key.replace('_', '-')}", dest=key, help=KEYS[key].help)
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    config_path = args.pop("config", None)
    try:
        return COMMANDS[command][0](load_config(config_path, args))
    except (ValueError, QuadratureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
