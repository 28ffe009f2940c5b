"""Span tracer for the oddsphere layers, installed from outside the package.

Each public function of a layer module is wrapped in a span that records
its name, start, end and calling span.  A wrapper is bound under every name
the package's modules look the function up by (for example both
``kernel.kernel_product`` and ``verify.kernel_product``), so calls between
layers are caught.  A layer's self time is the sum over its spans of the
span's duration minus the durations of its direct child spans.

The package itself is not edited: ``Tracer.install`` rebinds module
attributes and ``Tracer.uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

import numpy as np

# "space" is left out: its exact-rational helpers take under 1% of every
# workload, and their time counts to the calling layer
LAYERS = ("cli", "verify", "measure", "kernel", "specialfn", "arcs")

# Per-span facts the counters need, taken when the span ends so that no
# argument or result array is kept alive by the trace.
_INFO = {
    "kernel.kernel_1d": lambda a, r: (a[0], a[1], a[2], a[5], np.size(a[4])),
    "kernel.evaluate_factor": lambda a, r: np.size(a[2]),
    "specialfn.phi_matrix": lambda a, r: np.size(a[1]) * np.size(a[2]),
    "specialfn.phi_series": lambda a, r: np.size(a[1]) * np.size(a[2]),
    "arcs.farey": lambda a, r: len(r),
}


def _records(args, result):
    records = getattr(result, "records", None)
    return None if records is None else len(records)


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "child_s", "info")

    def __init__(self, name: str, parent: "Span | None") -> None:
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.parent = parent
        self.start = self.end = self.child_s = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Collects spans in memory while installed; use as a context manager."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        stack, spans = self._stack, self.spans
        info = _INFO.get(name, _records if name.startswith("verify.") else None)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, parent)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                spans.append(span)
            if info is not None:
                span.info = info(args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(f"oddsphere.{m}") for m in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules + [importlib.import_module("oddsphere")]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(mod, attr, hit[1])
        # off-grid kernel evaluation is a method, called by sup refinement
        kernel_field = importlib.import_module("oddsphere.kernel").KernelField
        self._rebind(
            kernel_field,
            "evaluate_factor",
            self._wrap("kernel.evaluate_factor", kernel_field.evaluate_factor),
        )

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _nearest(span: Span, layer: str) -> Span | None:
    span = span.parent
    while span is not None and span.layer != layer:
        span = span.parent
    return span


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer self times and counts of one traced operation."""
    from oddsphere.kernel import mode_weights

    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out.update(
        dict.fromkeys(
            [
                "verify.records", "measure.lp_norm.calls", "measure.sup_norm.calls",
                "measure.refine_evals", "kernel.grid_s", "kernel.grid_calls",
                "kernel.offgrid_s", "kernel.offgrid_calls", "kernel.mode_nodes",
                "specialfn.phi_matrix.cells", "specialfn.phi_series.cells",
                "specialfn.get_coeffs.s", "arcs.classify.calls",
                "arcs.farey.entries",
            ],
            0,
        )
    )
    kernel_1d_s = 0.0
    modes: dict[tuple, int] = {}
    for span in spans:
        out[f"{span.layer}.self_s"] += span.self_s
        name = span.name
        if span.layer == "verify":
            top = span.parent is None or span.parent.layer != "verify"
            if top and span.info is not None:
                out["verify.records"] += span.info
        elif name == "measure.lp_norm":
            out["measure.lp_norm.calls"] += 1
        elif name == "measure.sup_norm":
            out["measure.sup_norm.calls"] += 1
        elif name == "kernel.kernel_product":
            out["kernel.grid_calls"] += 1
            out["kernel.grid_s"] += span.duration
        elif name == "kernel.evaluate_factor":
            out["kernel.offgrid_calls"] += 1
            out["kernel.offgrid_s"] += span.duration
            caller = _nearest(span, "measure")
            if caller is not None and caller.name == "measure.sup_norm":
                out["measure.refine_evals"] += span.info
        elif name == "kernel.kernel_1d":
            lam, beta, N, bump, angles = span.info
            key = (lam, beta, N, bump)
            if key not in modes:
                modes[key] = int(mode_weights(lam, beta, N, 0.0, bump)[0].size)
            out["kernel.mode_nodes"] += modes[key] * angles
            kernel_1d_s += span.duration
        elif name == "specialfn.phi_matrix":
            out["specialfn.phi_matrix.cells"] += span.info
        elif name == "specialfn.phi_series":
            out["specialfn.phi_series.cells"] += span.info
        elif name == "specialfn.get_coeffs":
            out["specialfn.get_coeffs.s"] += span.duration
        elif name == "arcs.classify_fraction":
            out["arcs.classify.calls"] += 1
        elif name == "arcs.farey":
            out["arcs.farey.entries"] += span.info
    out["kernel.mode_nodes_per_s"] = (
        out["kernel.mode_nodes"] / kernel_1d_s if kernel_1d_s > 0 else 0.0
    )
    out["trace.wall_s"] = wall_s
    return {key: float(value) for key, value in out.items()}
