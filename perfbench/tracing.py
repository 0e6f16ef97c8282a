"""Spans around the package's public functions, for traced runs only.

``Tracer.install`` wraps each layer module's public functions and the public
methods of its public classes, then rebinds every module attribute of the
package that refers to a wrapped function (``evar_value`` is bound in
``classical``, ``lifting``, ``robust`` and the package root). The registered
campaign property callables are wrapped in place as well. ``restore`` undoes
every change. A name a later refactor removes is simply not wrapped, so the
metrics derived from it go missing instead of crashing the run.

Spans live in memory as tuples (name, layer, start, end, parent, request,
iterations); self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("distributions", "levels", "classical", "lifting", "robust", "verify", "cli")

# base-measure evaluations: what a lift pays for on each level it visits
BASE_MEASURE = (
    "classical.evar_value",
    "classical.evar",
    "distributions.DiscreteDistribution.quantile",
    "distributions.DiscreteDistribution.upper_quantile",
    "distributions.DiscreteDistribution.expected_shortfall",
)
BUILD = (
    "distributions.make_distribution",
    "distributions.combine",
    "distributions.mix",
    "distributions.point_mass",
    "distributions.DiscreteDistribution.shift",
    "distributions.DiscreteDistribution.scale",
    "distributions.ScenarioTable.column",
)
TAIL = (
    "distributions.DiscreteDistribution.quantile",
    "distributions.DiscreteDistribution.upper_quantile",
    "distributions.DiscreteDistribution.expected_shortfall",
    "distributions.DiscreteDistribution.partial_moment",
    "distributions.DiscreteDistribution.survival",
)
LIFT = "lifting.lambda_lift"
PROPERTY_PREFIX = "verify.property."


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.request = None
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, layer: str, fn):
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                iters = getattr(result, "iterations", None)
                if not isinstance(iters, int) or isinstance(iters, bool):
                    iters = None
                spans[idx] = (name, layer, start, end, parent, tracer.request, iters)

        self.installed.add(name)
        return traced

    def _setattr(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def install(self) -> None:
        modules = {
            layer: sys.modules[f"lambdarisk.{layer}"]
            for layer in LAYERS
            if f"lambdarisk.{layer}" in sys.modules
        }
        wrappers = {}
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", layer, obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            name = f"{layer}.{obj.__name__}.{meth}"
                            self._setattr(obj, meth, self._wrap(name, layer, fn))
        bound = [sys.modules["lambdarisk"], *modules.values()]
        for mod in bound:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._setattr(mod, attr, wrappers[val])
        props = getattr(modules.get("verify"), "_PROPERTIES", None)
        if isinstance(props, list):
            original = list(props)
            try:
                props[:] = [
                    (n, tol, self._wrap(PROPERTY_PREFIX + n, "verify", fn))
                    for n, tol, fn in original
                ]
            except (TypeError, ValueError):  # registry changed shape: leave it alone
                props[:] = original
            else:
                self._undo.append(lambda: props.__setitem__(slice(None), original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                name, layer, start, end, parent, request, iters = s
                fh.write(json.dumps({
                    "name": name, "layer": layer, "start": start, "end": end,
                    "parent": parent, "request": request, "iterations": iters,
                }) + "\n")


def _topmost(spans, names) -> list[int]:
    """Indices of spans named in ``names`` with no ancestor named in ``names``."""
    names = set(names)
    out = []
    for i, s in enumerate(spans):
        if s[0] not in names:
            continue
        parent = s[4]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][4]
        if parent < 0:
            out.append(i)
    return out


def layer_metrics(tracer: Tracer, requests: int) -> dict[str, tuple[float, str]]:
    """Per-layer counts (totals over the traced requests) and times (per request)."""
    spans = tracer.spans
    have = tracer.installed
    child = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    self_s = defaultdict(float)
    calls = Counter()
    by_name = Counter()
    dur_by_name = defaultdict(float)
    for i, s in enumerate(spans):
        self_s[s[1]] += (s[3] - s[2]) - child[i]
        calls[s[1]] += 1
        by_name[s[0]] += 1
        dur_by_name[s[0]] += s[3] - s[2]
    layers_present = {n.split(".", 1)[0] for n in have}

    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit, needs=()):
        if all(n in have for n in needs):
            out[name] = (value, unit)

    def total_time(names):
        idx = _topmost(spans, [n for n in names if n in have])
        return sum(spans[i][3] - spans[i][2] for i in idx) / requests

    for layer in LAYERS[:-1]:  # the cli layer is timed from outside, see probes.py
        if layer in layers_present:
            put(f"{layer}.self_s", self_s[layer] / requests, "s")
    for layer in ("distributions", "levels", "robust"):
        if layer in layers_present:
            put(f"{layer}.calls", calls[layer], "count")

    put("classical.evar_value_calls", by_name["classical.evar_value"], "count",
        ["classical.evar_value"])
    put("classical.evar_calls", by_name["classical.evar"], "count", ["classical.evar"])
    put("classical.iterations",
        sum(s[6] or 0 for s in spans if s[1] == "classical"), "count", ["classical.evar"])

    put("lifting.lift_calls", by_name[LIFT], "count", [LIFT])
    put("lifting.crossing_iterations",
        sum(s[6] or 0 for s in spans if s[0] == LIFT), "count", [LIFT])
    if LIFT in have:
        evals = 0
        for i in _topmost(spans, [n for n in BASE_MEASURE if n in have]):
            parent = spans[i][4]
            while parent >= 0 and spans[parent][0] != LIFT:
                parent = spans[parent][4]
            evals += parent >= 0
        lifts = by_name[LIFT]
        put("lifting.base_evals_per_lift", evals / lifts if lifts else 0.0, "count")

    if "distributions" in layers_present:
        put("distributions.build_s", total_time(BUILD), "s")
        put("distributions.tail_s", total_time(TAIL), "s")
    put("distributions.wasserstein_s", total_time(["distributions.wasserstein_distance"]),
        "s", ["distributions.wasserstein_distance"])

    props = sorted(n for n in have if n.startswith(PROPERTY_PREFIX))
    for name in props:
        out[f"verify.property_s.{name[len(PROPERTY_PREFIX):]}"] = (
            dur_by_name[name] / requests, "s")
    return out
