"""Span tracing for the benchmark's traced runs.

Tracing wraps liechain's functions from the outside; nothing under ``src/``
changes.  A public function of one layer is wrapped where another layer (or
the benchmark) sees it, i.e. the name bound in the calling module's
namespace, so each span marks one crossing of a layer boundary.  A few
methods are wrapped on their class as well: the ``QuadExpr`` operations
(``radicals``) and ``Oracle.compute`` (``oracle``).  Work done inside the
``GroupType``/``SimpleType`` value classes is not wrapped; it is charged to
whichever layer calls it.

Spans are kept in memory in flat arrays (name, parent, start, end).  A span's
self time is its duration minus the durations of its child spans; in one
thread children never overlap, so the self times of all spans add up to the
durations of the root spans, which the benchmark opens around each of its
calls into the program.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = ("groups", "subgroups", "radicals", "formulas", "oracle", "chains", "suites", "cli")

# QuadExpr operations charged to the radicals layer; ``bounds`` is only
# counted (its rounds belong to the sign decision that asks for them)
_QUADEXPR_METHODS = (
    "rational", "sqrt", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "sign", "__lt__", "__le__", "__gt__", "__ge__",
    "__float__", "decimal",
)
_FORMULAS_CHECKS = ("formulas.check_dimlen", "formulas.check_sqrt_lower_bound", "formulas.check_lcd")


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        """Start a span under the innermost open span; returns its index."""
        i = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.start.append(self.clock())
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self.stack.pop()

    def wrap(self, fn, name: str, on_call=None, on_result=None):
        """``fn`` with a span named ``name`` around every call."""
        nid = self.name_id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0.0)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_generator(self, fn, name: str):
        """``fn`` (a generator function) with a span around every resumption;
        counts the items yielded as ``<name>.yielded``."""
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(i)
                counts[name + ".yielded"] += 1
                yield item

        return traced

    def dump(self, path: str) -> None:
        """Write the spans: one JSON header line naming the span names and
        the array layout, then the four arrays in native byte order."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["name:int32", "parent:int32", "start_s:float64", "end_s:float64"]}
        with open(path, "wb") as out:
            out.write((json.dumps(header) + "\n").encode())
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(out)


def self_times(parent, start, end) -> list[float]:
    """Self time of every span: its duration minus its children's durations."""
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls and self time; per root span name: total
    duration; and the root total next to the sum of all self times."""
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    spans: dict[str, dict] = {}
    roots: Counter = Counter()
    for i, n in enumerate(tracer.name):
        name = tracer.names[n]
        row = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        if tracer.parent[i] < 0:
            roots[name] += tracer.end[i] - tracer.start[i]
    return {"spans": spans, "roots": dict(roots), "root_s": sum(roots.values()),
            "self_sum_s": sum(selfs)}


def install(tracer: Tracer) -> dict:
    """Wrap liechain's layer boundaries with spans.  Returns the original
    objects that the per-layer metrics read state from."""
    modules = {layer: importlib.import_module(f"liechain.{layer}") for layer in LAYERS}
    owner: dict[int, str] = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__):
                owner[id(obj)] = f"{layer}.{attr}"

    def on_refine(args, kwargs):
        if kwargs.get("refine"):
            tracer.counts["formulas.depth_refined.calls"] += 1

    def on_chain(chain):
        if chain is not None:
            tracer.counts["chains.nodes"] += len(chain.nodes)

    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            name = owner.get(id(obj))
            if name is None or name.startswith(layer + "."):
                continue
            if inspect.isgeneratorfunction(obj):
                wrapped = tracer.wrap_generator(obj, name)
            elif name.startswith("formulas."):
                wrapped = tracer.wrap(obj, name, on_call=on_refine)
            elif name in ("chains.max_chain", "chains.min_chain"):
                wrapped = tracer.wrap(obj, name, on_result=on_chain)
            else:
                wrapped = tracer.wrap(obj, name)
            setattr(module, attr, wrapped)

    quad = modules["radicals"].QuadExpr
    for method in _QUADEXPR_METHODS:
        raw = inspect.getattr_static(quad, method)
        if isinstance(raw, classmethod):
            setattr(quad, method, classmethod(tracer.wrap(raw.__func__, f"radicals.{method}")))
        else:
            setattr(quad, method, tracer.wrap(raw, f"radicals.{method}"))
    sign_id = tracer.name_id("radicals.sign")
    bounds = quad.bounds

    def counted_bounds(self, prec_bits):
        top = tracer.stack[-1]
        if top >= 0 and tracer.name[top] == sign_id:
            tracer.counts["radicals.bounds_in_sign"] += 1
        return bounds(self, prec_bits)

    quad.bounds = counted_bounds

    oracle_cls = modules["oracle"].Oracle
    compute = oracle_cls.compute

    def on_compute(args, kwargs):
        self, g = args
        if not g.is_trivial and not (self.cached and g in self.table):
            tracer.counts["oracle.compute.expanded"] += 1

    oracle_cls.compute = tracer.wrap(compute, "oracle.compute", on_call=on_compute)
    return {"maximal_connected": modules["subgroups"].maximal_connected}


def layer_metrics(summary: dict, counts: Counter, originals: dict) -> dict:
    """The per-layer metrics of one pass, by metric name."""
    spans = summary["spans"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(row["self_s"] for n, row in spans.items()
                                     if n.split(".", 1)[0] == layer)
    out["radicals.sign.calls"] = calls("radicals.sign")
    out["radicals.sign.self_s"] = self_s("radicals.sign")
    out["radicals.bounds_per_sign"] = (counts["radicals.bounds_in_sign"] / calls("radicals.sign")
                                       if calls("radicals.sign") else 0.0)
    out["formulas.checks.calls"] = sum(calls(n) for n in _FORMULAS_CHECKS)
    out["formulas.depth_refined.calls"] = counts["formulas.depth_refined.calls"]
    out["oracle.compute.calls"] = calls("oracle.compute")
    out["oracle.compute.expanded"] = counts["oracle.compute.expanded"]
    out["oracle.memo_hit_ratio"] = (1 - counts["oracle.compute.expanded"] / calls("oracle.compute")
                                    if calls("oracle.compute") else 0.0)
    out["groups.iter_groups.yielded"] = counts["groups.iter_groups.yielded"]
    out["groups.iter_groups.self_s"] = self_s("groups.iter_groups")
    out["groups.parse_group.calls"] = calls("groups.parse_group")
    out["groups.parse_group.self_s"] = self_s("groups.parse_group")
    info = originals["maximal_connected"].cache_info()
    out["subgroups.maximal_connected.calls"] = calls("subgroups.maximal_connected")
    out["subgroups.maximal_connected.self_s"] = self_s("subgroups.maximal_connected")
    out["subgroups.maximal_connected.hit_ratio"] = (info.hits / (info.hits + info.misses)
                                                    if info.hits + info.misses else 0.0)
    out["subgroups.maximal_connected.cache_entries"] = info.currsize
    out["subgroups.is_maximal_step.calls"] = calls("subgroups.is_maximal_step")
    out["subgroups.is_maximal_step.self_s"] = self_s("subgroups.is_maximal_step")
    for fn in ("max_chain", "min_chain", "verify_chain"):
        out[f"chains.{fn}.calls"] = calls(f"chains.{fn}")
        out[f"chains.{fn}.self_s"] = self_s(f"chains.{fn}")
    out["chains.nodes"] = counts["chains.nodes"]
    out["cli.main.self_s"] = self_s("cli.main")
    out["trace.spans"] = sum(row["calls"] for row in spans.values())
    return out
