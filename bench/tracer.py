"""Outside-in tracer for the girthspan layers.

The tracer wraps, for the length of one traced op, every public module-level
function of each girthspan module, the ``Graph.edge_id`` and
``Graph.edge_ids_of`` methods, and ``pathlib.Path.read_text`` /
``Path.write_text``.  Nothing in the package changes: a function is patched in
its defining module and in every other module that bound it with
``from ... import``, and the originals are put back when the op ends.

Functions called once per edge (``AGGREGATED``) keep a call count and a
self time per op, because one build-gadget op makes about a million such
calls.  Every other call records a span: id, name, start, end, parent span id
and op id.  A file read or write records a ``<layer>.file_io`` span, where the
layer is that of the innermost traced caller, with the file name and its size.
Spans stay in memory until ``dump`` writes them out.

Self time is a span's duration minus the time of its traced children.  The
root span (``root``) covers the whole op, and its self time is what no layer
accounts for.  ``summarize`` also names every span or aggregated function
with a negative self time, which would mean a child was charged to the wrong
parent.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import json
import pathlib
from collections import defaultdict, namedtuple
from time import perf_counter

LAYERS = ("rng", "graphs", "labelcover", "constructions", "sampling", "spanner",
          "oracles", "pipeline", "cli")
METHODS = (("graphs", "Graph", "edge_id"), ("graphs", "Graph", "edge_ids_of"))
AGGREGATED = frozenset({"graphs.Graph.edge_id", "graphs.edge_cycle_length",
                        "spanner.canonical_span_check"})
ROOT = "root"
# Self times below this are negative, not clock rounding.
NEGATIVE_S = -1e-9

# Outcome counters taken where the work happens: name -> (result, args) -> {counter: n}.
OUTCOMES = {
    "spanner.canonical_span_check": lambda res, args: {"hits": res is not None},
    "sampling.bad_edges": lambda res, args: {"found": len(res),
                                             "tested": args[0].edge_count},
}

# agg_child_s is the time of aggregated direct children, which have no span;
# file_io spans also fill artifact, kind and nbytes.
Span = namedtuple("Span", ("id", "name", "start", "end", "parent", "op", "agg_child_s",
                           "artifact", "kind", "nbytes"), defaults=(None, None, None))


def _text_bytes(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


class Tracer:
    """Collects spans and per-op aggregates over any number of traced ops."""

    def __init__(self, modules: dict):
        self.modules = modules          # layer name -> imported module
        self.spans: list[Span] = []
        self.aggregates: dict = {}      # op id -> name -> [calls, self_s, negatives]
        self.counters: dict = {}        # op id -> name -> {counter: n}
        self._ids = itertools.count(1)
        self._stack: list[list] = []    # frames: [span id, child_s, agg_child_s, layer]
        self._op = None
        self.traced_names: set[str] = set()

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name, layer):
        stack, spans, ids = self._stack, self.spans, self._ids
        count = OUTCOMES.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [next(ids), 0.0, 0.0, layer]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                parent[1] += t1 - t0
                spans.append(Span(frame[0], name, t0, t1, parent[0], self._op, frame[2]))
            if count is not None:
                self._count(name, count(result, args))
            return result

        return traced

    def _aggregate_wrapper(self, fn, name, layer, record):
        stack = self._stack
        count = OUTCOMES.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [None, 0.0, 0.0, layer]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent[1] += dt
                parent[2] += dt
                self_dt = dt - frame[1]
                record[0] += 1
                record[1] += self_dt
                if self_dt < NEGATIVE_S:
                    record[2] += 1
            if count is not None:
                self._count(name, count(result, args))
            return result

        return traced

    def _io_wrapper(self, fn, kind):
        stack, spans, ids = self._stack, self.spans, self._ids

        def traced(path, *args, **kwargs):
            parent = stack[-1]
            t0 = perf_counter()
            try:
                result = fn(path, *args, **kwargs)
            finally:
                t1 = perf_counter()
                parent[1] += t1 - t0
            text = result if kind == "read" else args[0]
            spans.append(Span(next(ids), f"{parent[3]}.file_io", t0, t1, parent[0], self._op,
                              0.0, path.name, kind, _text_bytes(text)))
            return result

        return traced

    def _count(self, name, increments):
        bucket = self.counters[self._op].setdefault(name, defaultdict(int))
        for key, n in increments.items():
            bucket[key] += int(n)

    # -- patching -----------------------------------------------------------

    def _patches(self, records):
        """(owner, attribute, original, wrapper) for every traced callable."""
        originals = {}
        for layer in LAYERS:
            mod = self.modules[layer]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                originals[obj] = (f"{layer}.{attr}", layer)
        wrappers = {}
        for fn, (name, layer) in originals.items():
            if name in AGGREGATED:
                wrappers[fn] = self._aggregate_wrapper(fn, name, layer,
                                                       records.setdefault(name, [0, 0.0, 0]))
            else:
                wrappers[fn] = self._span_wrapper(fn, name, layer)
        self.traced_names.update(name for name, _ in originals.values())
        patches = []
        # Every binding of a traced function, in its own module or imported.
        for layer in LAYERS:
            mod = self.modules[layer]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((mod, attr, obj, wrappers[obj]))
        for layer, cls_name, attr in METHODS:
            cls = getattr(self.modules[layer], cls_name)
            fn = vars(cls)[attr]
            name = f"{layer}.{cls_name}.{attr}"
            self.traced_names.add(name)
            wrapper = (self._aggregate_wrapper(fn, name, layer,
                                               records.setdefault(name, [0, 0.0, 0]))
                       if name in AGGREGATED else self._span_wrapper(fn, name, layer))
            patches.append((cls, attr, fn, wrapper))
        for attr, kind in (("read_text", "read"), ("write_text", "write")):
            fn = vars(pathlib.Path)[attr]
            patches.append((pathlib.Path, attr, fn, self._io_wrapper(fn, kind)))
        return patches

    @contextlib.contextmanager
    def op(self, op_id):
        """Trace one op: patch, open the root span, and restore on exit."""
        records = self.aggregates.setdefault(op_id, {})
        self.counters.setdefault(op_id, {})
        patches = self._patches(records)
        for owner, attr, _, wrapper in patches:
            setattr(owner, attr, wrapper)
        self._op = op_id
        root = [next(self._ids), 0.0, 0.0, ROOT]
        self._stack.append(root)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            for owner, attr, original, _ in reversed(patches):
                setattr(owner, attr, original)
            self.spans.append(Span(root[0], ROOT, t0, t1, None, op_id, root[2]))
            self._op = None

    # -- results ------------------------------------------------------------

    def summarize(self):
        """Totals over all traced ops.

        Returns ``(by_name, negative)``: ``by_name`` maps a span or
        aggregate name to ``{"calls", "self_s"}`` (file_io names also get
        ``bytes`` and per-artifact entries ``<layer>.file_io.<file>``), and
        ``negative`` lists the names that had a negative self time.
        """
        child_s = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start
        by_name = defaultdict(lambda: defaultdict(float))
        negative = set()
        for s in self.spans:
            self_s = (s.end - s.start) - child_s[s.id] - s.agg_child_s
            if self_s < NEGATIVE_S:
                negative.add(s.name)
            names = [s.name]
            if s.artifact is not None:
                names.append(f"{s.name}.{s.artifact}")
            for name in names:
                entry = by_name[name]
                entry["calls"] += 1
                entry["self_s"] += self_s
                if s.kind == "write":
                    entry["bytes"] += s.nbytes
        for records in self.aggregates.values():
            for name, (calls, self_s, negatives) in records.items():
                by_name[name]["calls"] += calls
                by_name[name]["self_s"] += self_s
                if negatives:
                    negative.add(name)
        for records in self.counters.values():
            for name, bucket in records.items():
                for key, n in bucket.items():
                    by_name[name][key] += n
        return by_name, sorted(negative)

    def dump(self, path):
        """Write every span, aggregate and counter as one JSON document."""
        doc = {"span_fields": Span._fields,
               "spans": self.spans,
               "aggregates": {str(op): {name: {"calls": c, "self_s": s}
                                        for name, (c, s, _) in recs.items()}
                              for op, recs in self.aggregates.items()},
               "counters": {str(op): {name: dict(b) for name, b in recs.items()}
                            for op, recs in self.counters.items()}}
        pathlib.Path(path).write_text(json.dumps(doc))
