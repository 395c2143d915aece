"""Per-layer tracing from outside the engine.

A Tracer rebinds the traced functions' names in every ``equidist`` module
that imports them (``equidist.cli.build_graph`` and
``equidist.connectivity.build_graph`` alike), so each call records a span
(name, start, end, parent, op id) in memory.  ``orient`` and ``incircle``
are only counted, at ``polygon``'s call sites: a span per predicate call
would cost more than the predicate.  ``uninstall`` restores every binding;
an untraced run never installs the wrappers.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "body", "connectivity", "polygon", "primitives", "type32")

# (defining module, function) pairs that get a span.
SPANNED = (
    ("cli", "run"),
    ("cli", "format_json"),
    ("body", "build_body"),
    ("connectivity", "build_graph"),
    ("connectivity", "intersection_dim"),
    ("connectivity", "check_polytope"),
    ("polygon", "extract_boundary"),
    ("polygon", "check_regularity"),
    ("polygon", "empty_circle_triples"),
    ("type32", "recognize_pentagon"),
    ("type32", "label_pentagon"),
)

# (calling module, predicate) pairs that are counted at their call sites.
COUNTED = (("polygon", "orient"), ("polygon", "incircle"))


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent span index or -1, op id)
        self.counts = defaultdict(int)  # (op id, name) -> count
        self.graph_edges = {}  # op id -> edges of each build_graph result
        self.hyperedges = {}  # op id -> size of the empty_circle_triples result
        self.op = -1
        self._stack = []
        self._saved = []

    def _span(self, name, fn):
        depth = 0

        def wrapper(*args, **kwargs):
            nonlocal depth
            if depth:  # a recursive call stays inside the outer span
                return fn(*args, **kwargs)
            depth += 1
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                depth -= 1
                self.spans[sid] = (name, start, end, parent, self.op)
            if name == "connectivity.build_graph":
                self.graph_edges.setdefault(self.op, []).append([list(e) for e in result.edges])
            elif name == "polygon.empty_circle_triples":
                self.hyperedges[self.op] = len(result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args):
            counts[self.op, name] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        modules = {name: sys.modules[f"equidist.{name}"] for name in LAYERS}
        for home, fname in SPANNED:
            original = getattr(modules[home], fname)
            wrapped = self._span(f"{home}.{fname}", original)
            for mod in modules.values():
                if getattr(mod, fname, None) is original:
                    self._saved.append((mod, fname, original))
                    setattr(mod, fname, wrapped)
        for caller, fname in COUNTED:
            mod = modules[caller]
            original = getattr(mod, fname)
            self._saved.append((mod, fname, original))
            setattr(mod, fname, self._counter(f"{caller}.{fname}", original))

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._saved):
            setattr(mod, fname, original)
        self._saved.clear()

    def per_op(self) -> dict:
        """op id -> {"<span>.calls" / ".ms" / ".self_ms" / "<counter>.calls": value}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        ops = defaultdict(lambda: defaultdict(float))
        for sid, (name, start, end, parent, op) in enumerate(self.spans):
            ops[op][f"{name}.calls"] += 1
            ops[op][f"{name}.ms"] += (end - start) * 1e3
            ops[op][f"{name}.self_ms"] += (end - start - child[sid]) * 1e3
        for (op, name), n in self.counts.items():
            ops[op][f"{name}.calls"] += n
        return ops

    def write(self, path: str) -> None:
        """One JSON object per span, in start order of their calls."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def layer_metrics(per_op: dict, scale: dict, hyperedges: dict, graph_edges: dict) -> dict:
    """name -> (per-op median, unit); times are scaled per op by scale[op]."""

    def med(fn) -> float:
        return statistics.median(fn(op) for op in scale)

    def val(op, key, timed=False):
        v = per_op.get(op, {}).get(key, 0.0)
        return v * scale[op] if timed else v

    def us_per_call(op):
        calls = val(op, "connectivity.intersection_dim.calls")
        return 1e3 * val(op, "connectivity.intersection_dim.ms", True) / calls if calls else 0.0

    def edge_ratio(op):
        calls = val(op, "connectivity.intersection_dim.calls")
        edges = sum(len(g) for g in graph_edges.get(op, ()))
        return edges / calls if calls else 0.0

    def incircle_per_edge(op):
        n = hyperedges.get(op, 0)
        return val(op, "polygon.incircle.calls") / n if n else 0.0

    out = {}
    for key in ("connectivity.intersection_dim.calls", "body.build_body.calls",
                "polygon.extract_boundary.calls", "polygon.check_regularity.calls",
                "polygon.incircle.calls", "polygon.orient.calls"):
        out[key] = (med(lambda op: val(op, key)), "count")
    for key in ("connectivity.build_graph.self_ms", "connectivity.check_polytope.self_ms",
                "body.build_body.ms", "polygon.extract_boundary.self_ms",
                "polygon.check_regularity.ms", "polygon.empty_circle_triples.self_ms",
                "type32.recognize_pentagon.self_ms", "type32.label_pentagon.ms",
                "cli.run.self_ms", "cli.format_json.ms"):
        out[key] = (med(lambda op: val(op, key, True)), "ms")
    out["connectivity.intersection_dim.us_per_call"] = (med(us_per_call), "us")
    out["connectivity.edge_ratio"] = (med(edge_ratio), "1")
    out["polygon.incircle.calls_per_hyperedge"] = (med(incircle_per_edge), "1")
    out["polygon.hyperedges"] = (med(lambda op: hyperedges.get(op, 0)), "count")
    return out
