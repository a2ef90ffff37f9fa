"""Span tracing of the library's layers, for the benchmark's traced run only.

`Tracer.installed` replaces every public function of the layer modules,
wherever a `frugal` module binds it, with a wrapper that records a span:
(auction id, span id, parent span id, name, start ns, end ns).  Spans stay
in memory until the run ends.  A span's self time is its duration minus
the durations of its direct children; calls are nested and single
threaded, so the children never overlap and the self times of a span's
subtree add up to its duration.

Two targets carry extra counters: the wrapper of
`mechanisms.threshold_bid` counts calls of the win predicate it is
given, and the wrapper of `spectral.lift` counts the edges of the
dependency graph it lifts and keeps the largest eigen residual.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager
from types import ModuleType
from typing import Callable, Iterable, Iterator

# The library's layers, in dependency order.  `lp` has no production
# caller and `errors` does no work, so neither is traced.
LAYERS = ("flows", "dependency", "spectral", "core", "mechanisms")

# (name, unit, better, source): `source` is ("calls" | "self_s", target),
# ("layer_self_s", layer) or ("counter", counter name).  Values are per
# traced auction, except the ratio, the maximum and the overhead.
LAYER_METRICS = (
    ("flows.max_flow_value.calls", "calls/auction", "lower", ("calls", "flows.max_flow_value")),
    ("flows.max_flow_value.self_s", "s/auction", "lower", ("self_s", "flows.max_flow_value")),
    ("flows.min_cost_flow.calls", "calls/auction", "lower", ("calls", "flows.min_cost_flow")),
    ("flows.min_cost_flow.self_s", "s/auction", "lower", ("self_s", "flows.min_cost_flow")),
    ("flows.self_s", "s/auction", "lower", ("layer_self_s", "flows")),
    ("dependency.build_dependency_kpath.self_s", "s/auction", "lower",
     ("self_s", "dependency.build_dependency_kpath")),
    ("dependency.build_dependency.self_s", "s/auction", "lower",
     ("self_s", "dependency.build_dependency")),
    ("dependency.components.self_s", "s/auction", "lower", ("self_s", "dependency.components")),
    ("dependency.edges_built", "edges/auction", "lower", ("counter", "dependency.edges_built")),
    ("dependency.self_s", "s/auction", "lower", ("layer_self_s", "dependency")),
    ("spectral.lift.self_s", "s/auction", "lower", ("self_s", "spectral.lift")),
    ("spectral.principal_eigen.calls", "calls/auction", "lower",
     ("calls", "spectral.principal_eigen")),
    ("spectral.principal_eigen.self_s", "s/auction", "lower",
     ("self_s", "spectral.principal_eigen")),
    ("spectral.eigen_residual.self_s", "s/auction", "lower", ("self_s", "spectral.eigen_residual")),
    ("spectral.residual_max", "abs", "lower", ("counter", "spectral.residual_max")),
    ("spectral.self_s", "s/auction", "lower", ("layer_self_s", "spectral")),
    ("core.restrict.self_s", "s/auction", "lower", ("self_s", "core.restrict")),
    ("core.minimal_feasible_sets.self_s", "s/auction", "lower",
     ("self_s", "core.minimal_feasible_sets")),
    ("core.is_feasible.calls", "calls/auction", "lower", ("calls", "core.is_feasible")),
    ("core.self_s", "s/auction", "lower", ("layer_self_s", "core")),
    ("mechanisms.threshold_bid.calls", "calls/auction", "lower",
     ("calls", "mechanisms.threshold_bid")),
    ("mechanisms.threshold_probes", "probes/auction", "lower",
     ("counter", "mechanisms.threshold_probes")),
    ("mechanisms.probes_per_threshold", "probes/call", "lower",
     ("counter", "mechanisms.probes_per_threshold")),
    ("mechanisms.local_optimality_repair.self_s", "s/auction", "lower",
     ("self_s", "mechanisms.local_optimality_repair")),
    ("mechanisms.primal_dual_cover.self_s", "s/auction", "lower",
     ("self_s", "mechanisms.primal_dual_cover")),
    ("mechanisms.argmin_selector.self_s", "s/auction", "lower",
     ("self_s", "mechanisms.argmin_selector")),
    ("mechanisms.self_s", "s/auction", "lower", ("layer_self_s", "mechanisms")),
)


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counters: dict[str, float] = {}
        self.auction = -1
        self.auctions = 0
        self._stack: list[int] = []
        self._next_id = 0

    def begin_auction(self, auction_id: int):
        """Start the spans of a new auction; an aborted auction's open spans are dropped."""
        self.auction = auction_id
        self.auctions += 1
        self._stack.clear()

    def count(self, name: str, n: float = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def maximum(self, name: str, value: float):
        self.counters[name] = max(self.counters.get(name, value), value)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """`fn` recording one span named `name` per call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        before, after = _HOOKS.get(name, (None, None))

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.auction, sid, parent, name, start, end))
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, modules: Iterable[ModuleType]) -> Iterator[list[str]]:
        """Wrap every public function defined in `modules` while the block runs.

        Each function is replaced in every loaded `frugal` module that
        binds it, so calls through `from .x import f` names are traced
        too.  Every replaced attribute is restored on exit, also when the
        block raises.  Yields the traced names, "<layer>.<function>".
        """
        modules = list(modules)
        replaced: list[tuple[ModuleType, str, object]] = []
        wrappers: dict[int, Callable] = {}
        names = []
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
                    names.append(f"{layer}.{attr}")
        root = modules[0].__name__.split(".", 1)[0] if modules else ""
        bound = [m for key, m in list(sys.modules.items())
                 if m is not None and (key == root or key.startswith(root + "."))]
        try:
            for mod in bound:
                for attr, value in list(vars(mod).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None and wrapper.__wrapped__ is value:
                        replaced.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
            yield names
        finally:
            for mod, attr, value in reversed(replaced):
                setattr(mod, attr, value)


def _count_probes(tracer: Tracer, args: tuple, kwargs: dict):
    def probe(beta):
        tracer.count("mechanisms.threshold_probes")
        return predicate(beta)

    if "win_predicate" in kwargs:
        predicate = kwargs["win_predicate"]
        kwargs = {**kwargs, "win_predicate": probe}
    else:
        predicate = args[0]
        args = (probe, *args[1:])
    return args, kwargs


def _lift_counters(tracer: Tracer, args: tuple, kwargs: dict, result):
    h = kwargs["h"] if "h" in kwargs else args[0]
    tracer.count("dependency.edges_built", len(h.edges))
    tracer.maximum("spectral.residual_max", result.residual)


# name -> (before-call hook rewriting the arguments, after-call hook reading the result)
_HOOKS = {
    "mechanisms.threshold_bid": (_count_probes, None),
    "spectral.lift": (None, _lift_counters),
}


def self_times(spans: Iterable[tuple[int, int, int, str, int, int]]) -> dict[int, int]:
    """Span id -> duration minus the durations of its direct children, in ns."""
    spans = list(spans)
    selfs = {sid: end - start for _, sid, _, _, start, end in spans}
    for _, _, parent, _, start, end in spans:
        if parent in selfs:
            selfs[parent] -= end - start
    return selfs


def inclusive_shares(spans: Iterable[tuple[int, int, int, str, int, int]]) -> dict[str, float]:
    """Name -> summed duration of its spans below the auction's entry span,
    as a share of the summed duration of the entry spans."""
    spans = list(spans)
    total = sum(end - start for _, _, parent, _, start, end in spans if parent == -1)
    shares: dict[str, float] = {}
    for _, _, parent, name, start, end in spans:
        if parent != -1:
            shares[name] = shares.get(name, 0.0) + (end - start) / max(total, 1)
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def layer_metrics(tracer: Tracer, traced_names: Iterable[str]) -> tuple[dict[str, dict], list[str]]:
    """Per-layer metrics of LAYER_METRICS, and the targets no longer in the library.

    An absent target reads 0 and is listed, rather than failing the run.
    """
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    selfs = self_times(tracer.spans)
    for _, sid, _, name, _, _ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + selfs[sid]
    per = max(tracer.auctions, 1)
    known = set(traced_names)
    thresholds = calls.get("mechanisms.threshold_bid", 0)
    counters = dict(tracer.counters)
    counters["mechanisms.probes_per_threshold"] = (
        counters.get("mechanisms.threshold_probes", 0) / thresholds if thresholds else 0.0)
    per_auction_counters = ("dependency.edges_built", "mechanisms.threshold_probes")

    metrics, absent = {}, []
    for name, unit, _, (source, key) in LAYER_METRICS:
        if source in ("calls", "self_s") and key not in known:
            absent.append(key)
        if source == "calls":
            value = calls.get(key, 0) / per
        elif source == "self_s":
            value = self_ns.get(key, 0) / per / 1e9
        elif source == "layer_self_s":
            value = sum(ns for n, ns in self_ns.items() if n.startswith(key + ".")) / per / 1e9
        else:
            value = counters.get(key, 0.0)
            if key in per_auction_counters:
                value /= per
        metrics[name] = {"value": value, "unit": unit}
    return metrics, sorted(set(absent))
