"""somborlab's layers as the traced run sees them: what to wrap and what to report.

Each target wraps one public function from outside the program. Each metric is
derived from the spans and counts of one traced pass. A metric whose source is
missing, or whose layer recorded no calls on a workload that declares the
layer, is reported by name as missing instead of as 0.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass
from typing import Callable

from tracing import Tracer, replace_everywhere

PACKAGE = "somborlab"


def _count(key: str, read: Callable):
    def hook(tracer: Tracer, args, kwargs, result) -> None:
        try:
            tracer.counts[key] += read(args, kwargs, result)
        except (AttributeError, TypeError, IndexError, KeyError):
            tracer.uncounted.add(key)
    return hook


def _distinct(key: str, read: Callable):
    def hook(tracer: Tracer, args, kwargs, result) -> None:
        try:
            tracer.distinct[key].add(read(args, kwargs, result))
        except (AttributeError, TypeError, IndexError, KeyError):
            tracer.uncounted.add(key)
    return hook


@dataclass(frozen=True)
class Target:
    span: str
    module: str
    attr: str
    hook: Callable | None = None


TARGETS = (
    Target("kernels.enumerate_classes", "somborlab._kernels", "enumerate_classes",
           _count("kernels.classes", lambda a, k, r: len(r))),
    Target("kernels.canon_bits", "somborlab._kernels", "canon_bits"),
    Target("oracle.generate_sequences", "somborlab.oracle", "generate_c_cyclic_sequences",
           _count("oracle.sequences", lambda a, k, r: len(r))),
    Target("oracle.enumerate_gamma", "somborlab.oracle", "enumerate_gamma",
           _distinct("oracle.enumerate_gamma.distinct",
                     lambda a, k, r: (a[0] if a else k["pi"]).degrees)),
    Target("oracle.values", "somborlab.oracle", "_values_for_alphas"),
    Target("oracle.is_majorized", "somborlab.oracle", "is_majorized"),
    Target("oracle.verify", "somborlab.oracle", "verify_theorem2"),
    Target("oracle.verify", "somborlab.oracle", "verify_theorem3"),
    Target("oracle.verify", "somborlab.oracle", "verify_special_bfs_existence"),
    Target("indices.check_escalating", "somborlab.indices", "check_escalating",
           _count("indices.cells_checked", lambda a, k, r: r.cells_checked)),
    Target("construct.extremal_graph", "somborlab.construct", "extremal_graph"),
    Target("bfs.is_special_extremal_bfs", "somborlab.bfs", "is_special_extremal_bfs",
           _count("bfs.witnesses", lambda a, k, r: r is not None)),
    Target("cli.main", "somborlab.cli", "main"),
)


def install(tracer: Tracer) -> None:
    """Wrap every target in the freshly imported package; note the ones not found."""
    for t in TARGETS:
        try:
            original = getattr(importlib.import_module(t.module), t.attr)
        except (ImportError, AttributeError):
            tracer.unwrapped.add(t.span)
            continue
        replace_everywhere(PACKAGE, original, tracer.wrap(t.span, original, t.hook))


def force_serial(requested: list | None = None) -> None:
    """Make the oracle's process pool run in-process, so every span stays here.

    Appends the worker count each pool call asked for to `requested`. Does
    nothing when the package has no `_pmap` with a `workers` parameter.
    """
    pmap = getattr(importlib.import_module("somborlab.oracle"), "_pmap", None)
    signature = inspect.signature(pmap) if pmap is not None else None
    if signature is None or "workers" not in signature.parameters:
        return

    def serial(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        if requested is not None:
            requested.append(bound.arguments["workers"])
        bound.arguments["workers"] = 1
        return pmap(*bound.args, **bound.kwargs)

    replace_everywhere(PACKAGE, pmap, serial)


class Missing(Exception):
    pass


class PassView:
    """Read access to one traced pass that raises Missing for absent sources."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.stats = tracer.stats()

    def _need(self, span: str) -> None:
        if span in self.tracer.unwrapped:
            raise Missing(f"{span} has no target in the program")

    def calls(self, span: str) -> int:
        self._need(span)
        return self.stats[span].calls if span in self.stats else 0

    def total(self, span: str) -> float:
        self._need(span)
        return self.stats[span].total_s if span in self.stats else 0.0

    def self_s(self, span: str) -> float:
        self._need(span)
        return self.stats[span].self_s if span in self.stats else 0.0

    def count(self, key: str, span: str) -> int:
        self._need(span)
        if key in self.tracer.uncounted:
            raise Missing(f"{key} could not be read from {span}")
        return self.tracer.counts[key]

    def distinct(self, key: str, span: str) -> int:
        self._need(span)
        if key in self.tracer.uncounted:
            raise Missing(f"{key} could not be read from {span}")
        return len(self.tracer.distinct[key])

    def layer_calls(self, layer: str) -> int:
        return sum(s.calls for name, s in self.stats.items() if name.startswith(layer + "."))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


KC, EC = "kernels.canon_bits", "kernels.enumerate_classes"
EG, CE = "oracle.enumerate_gamma", "indices.check_escalating"
BFS = "bfs.is_special_extremal_bfs"

#: name -> (unit, better, value from one traced pass)
METRICS: dict[str, tuple[str, str, Callable[[PassView], float]]] = {
    "kernels.canon_bits.calls": ("count", "lower", lambda v: v.calls(KC)),
    "kernels.classes": ("count", "higher", lambda v: v.count("kernels.classes", EC)),
    "kernels.classes_per_leaf": ("ratio", "higher",
                                 lambda v: _ratio(v.count("kernels.classes", EC), v.calls(KC))),
    "kernels.canon_bits.s": ("s", "lower", lambda v: v.total(KC)),
    "kernels.canon_bits.us_per_call": ("us", "lower",
                                       lambda v: 1e6 * _ratio(v.total(KC), v.calls(KC))),
    "kernels.enumerate_classes.calls": ("count", "lower", lambda v: v.calls(EC)),
    "kernels.enumerate_classes.self_s": ("s", "lower", lambda v: v.self_s(EC)),
    "oracle.enumerate_gamma.calls": ("count", "lower", lambda v: v.calls(EG)),
    "oracle.enumerate_gamma.distinct": ("count", "higher",
                                        lambda v: v.distinct("oracle.enumerate_gamma.distinct", EG)),
    "oracle.enumerate_gamma.self_s": ("s", "lower", lambda v: v.self_s(EG)),
    "oracle.generate_sequences.calls": ("count", "lower",
                                        lambda v: v.calls("oracle.generate_sequences")),
    "oracle.sequences": ("count", "higher",
                         lambda v: v.count("oracle.sequences", "oracle.generate_sequences")),
    "oracle.values.calls": ("count", "lower", lambda v: v.calls("oracle.values")),
    "oracle.values.s": ("s", "lower", lambda v: v.total("oracle.values")),
    "oracle.is_majorized.calls": ("count", "lower", lambda v: v.calls("oracle.is_majorized")),
    "oracle.is_majorized.s": ("s", "lower", lambda v: v.total("oracle.is_majorized")),
    "oracle.verify.self_s": ("s", "lower", lambda v: v.self_s("oracle.verify")),
    "indices.check_escalating.calls": ("count", "lower", lambda v: v.calls(CE)),
    "indices.check_escalating.s": ("s", "lower", lambda v: v.total(CE)),
    "indices.cells_checked": ("count", "higher", lambda v: v.count("indices.cells_checked", CE)),
    "indices.us_per_cell": ("us", "lower",
                            lambda v: 1e6 * _ratio(v.total(CE), v.count("indices.cells_checked", CE))),
    "construct.extremal_graph.calls": ("count", "lower",
                                       lambda v: v.calls("construct.extremal_graph")),
    "construct.extremal_graph.s": ("s", "lower", lambda v: v.total("construct.extremal_graph")),
    "bfs.is_special_extremal_bfs.calls": ("count", "lower", lambda v: v.calls(BFS)),
    "bfs.is_special_extremal_bfs.s": ("s", "lower", lambda v: v.total(BFS)),
    "bfs.witness_ratio": ("ratio", "higher",
                          lambda v: _ratio(v.count("bfs.witnesses", BFS), v.calls(BFS))),
    "cli.self_s": ("s", "lower", lambda v: v.self_s("cli.main")),
    "cli.output_bytes": ("bytes", "lower", lambda v: v.count("cli.output_bytes", "cli.main")),
}


def pass_metrics(tracer: Tracer, declared_layers) -> tuple[dict[str, float], dict[str, str]]:
    """Values of one traced pass, and the reason for each metric that is missing."""
    view = PassView(tracer)
    values: dict[str, float] = {}
    missing: dict[str, str] = {}
    for name, (_, _, read) in METRICS.items():
        layer = name.split(".", 1)[0]
        if layer in declared_layers and view.layer_calls(layer) == 0:
            missing[name] = f"layer {layer} recorded no calls"
            continue
        try:
            values[name] = read(view)
        except Missing as exc:
            missing[name] = str(exc)
    return values, missing
