"""Per-layer spans for the traced run, recorded from the benchmark's side.

``Tracer.install`` wraps the public functions of every dglevels module (and
a few public methods) so that each call records a span: name, parent span,
start and end from ``time.perf_counter_ns``.  Names other modules imported
from a wrapped module (``graded.rank_and_kernel``, ``emss.rank``,
``spheres.find_idempotents`` ...) are rebound to the same wrapper.  Per-scalar
``FieldTag`` methods are never wrapped.  Spans stay in memory until the run
ends; a span's self time is its duration minus its children's.

Nothing under ``src/`` changes: ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

from dglevels import algebra, cli, emss, field, graded, module, rational, resolve, spheres

LAYERS = {
    "field": field,
    "graded": graded,
    "algebra": algebra,
    "module": module,
    "resolve": resolve,
    "spheres": spheres,
    "emss": emss,
    "rational": rational,
    "cli": cli,
}

# public methods wrapped besides module-level functions; "*" = every public
# method of the class.  __init__ spans are named after the class.
METHODS = {
    "graded": {"CochainComplex": ("__init__", "apply")},
    "algebra": {"DGAlgebraPresentation": ("__init__", "*")},
    "module": {"DGModulePresentation": ("__init__",),
               "ModuleExpansion": ("__init__", "act_element", "act_vector")},
    "emss": {"BigradedPage": ("__init__",)},
    "rational": {"TowerSpec": ("*",)},
}

# private helpers that are only counted, never timed as spans
COUNTED = {
    ("module", "_is_idempotent"): lambda r: ("module.idempotent.candidates", 1),
    ("module", "_rational_idempotents"): lambda r: ("module.idempotent.candidates", len(r)),
    ("resolve", "_resolve"): lambda r: ("resolve.generators", len(r.module.generators)),
}


def _field_arg(args, kwargs):
    f = kwargs.get("field")
    if f is None and args:
        f = args[-1]
    return f if isinstance(f, field.FieldTag) else None


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index, start ns, end ns]
        self.stack = []          # indices of open spans
        self.q_spans = set()     # field spans over Q
        self.counters = Counter()
        self._restore = []
        self._hooks = {
            "field.row_reduce": self._on_row_reduce,
            "graded.cohomology": self._on_cohomology,
            "module.ModuleExpansion": self._on_expand,
            "spheres.all_matchings": self._on_matchings,
            "spheres.decompose": self._on_decompose,
            "emss.e2_page": self._on_page,
        }

    # -- recording -------------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, perf_counter_ns(), 0])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][3] = perf_counter_ns()
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()

    def close_all(self):
        """Close spans an interrupt (the per-query alarm) left open."""
        now = perf_counter_ns()
        for idx in self.stack:
            if not self.spans[idx][3]:
                self.spans[idx][3] = now
        self.stack.clear()

    def _span_wrapper(self, name, fn):
        hook = self._hooks.get(name)
        is_field = name.startswith("field.")
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, stack[-1] if stack else -1, perf_counter_ns(), 0]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter_ns()
                if stack and stack[-1] == idx:
                    stack.pop()
            if is_field:
                f = _field_arg(args, kwargs)
                if f is not None and f.p == 0:
                    self.q_spans.add(idx)
            if hook is not None:
                try:
                    hook(args, kwargs, result)
                except Exception:   # a changed return shape must not fail the query
                    pass
            return result

        return wrapper

    def _count_wrapper(self, counted, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            try:
                key, n = counted(result)
                counters[key] += n
            except Exception:
                pass
            return result

        return wrapper

    # -- counters at layer boundaries -----------------------------------------------

    def _on_row_reduce(self, args, kwargs, result):
        rows = args[0] if args else kwargs["rows"]
        if rows:
            self.counters["field.cells"] += len(rows) * len(rows[0])

    def _on_cohomology(self, args, kwargs, result):
        dims, reps = result
        self.counters["graded.cohomology.dim"] += sum(dims.values())
        self.counters["graded.reps"] += sum(len(r) for r in reps.values())

    def _on_expand(self, args, kwargs, result):
        self.counters["module.expand.elements"] += sum(len(e) for e in args[0].elements.values())

    def _on_matchings(self, args, kwargs, result):
        self.counters["spheres.matchings"] += len(result)

    def _on_decompose(self, args, kwargs, result):
        self.counters["spheres.multisets"] += 1 + len(result.alternatives)

    def _on_page(self, args, kwargs, result):
        self.counters["emss.cells"] += sum(len(v) for v in result.cells.values())

    # -- installing ---------------------------------------------------------------

    def install(self):
        originals = {}
        for layer, mod in LAYERS.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                originals[id(obj)] = self._span_wrapper(f"{layer}.{name}", obj)
            for (lay, name), counted in COUNTED.items():
                obj = vars(LAYERS[lay]).get(name)
                if lay == layer and inspect.isfunction(obj):
                    originals[id(obj)] = self._count_wrapper(counted, obj)
            for cls_name, wanted in METHODS.get(layer, {}).items():
                cls = vars(mod).get(cls_name)
                if cls is not None:
                    self._wrap_methods(layer, cls, wanted)
        # rebind the function and every alias of it across the package
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dglevels" or mod_name.startswith("dglevels.")):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def _wrap_methods(self, layer, cls, wanted):
        for name, raw in list(vars(cls).items()):
            public = not name.startswith("_") and "*" in wanted
            if not (public or name in wanted):
                continue
            span = f"{layer}.{cls.__name__}" if name == "__init__" else f"{layer}.{name}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._span_wrapper(span, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._span_wrapper(span, raw)
            else:
                continue            # properties and other descriptors stay as they are
            self._restore.append((cls, name, raw))
            setattr(cls, name, new)

    def uninstall(self):
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    # -- results ------------------------------------------------------------------

    def self_times(self):
        """({span name: [calls, self ns]}, self ns of field spans over Q)."""
        spans = self.spans
        child = [0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        by_name = defaultdict(lambda: [0, 0])
        q_self = 0
        for i, (name, _, start, end) in enumerate(spans):
            own = end - start - child[i]
            by_name[name][0] += 1
            by_name[name][1] += own
            if i in self.q_spans:
                q_self += own
        return by_name, q_self

    def inclusive_ns(self, names):
        """Wall time inside any span of the given names, nested calls counted once."""
        spans = self.spans
        out = 0
        for name, parent, start, end in spans:
            if name not in names:
                continue
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][1]
            if parent < 0:
                out += end - start
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start_ns", "end_ns"],
                       "spans": self.spans}, fh, separators=(",", ":"), ensure_ascii=False)


def layer_metrics(tracer: Tracer):
    """The per-layer metrics of the traced pass."""
    by_name, q_self = tracer.self_times()
    c = tracer.counters

    def ms(ns):
        return ns / 1e6

    def self_of(*names):
        return ms(sum(by_name[n][1] for n in names if n in by_name))

    def calls(name):
        return by_name[name][0] if name in by_name else 0

    layer_ns = Counter()
    for name, (_, own) in by_name.items():
        layer_ns[name.split(".", 1)[0]] += own
    total = sum(layer_ns.values()) or 1
    field_ns = layer_ns["field"]
    in_span = calls("field.in_span")
    multisets = c["spheres.multisets"]
    metrics = {
        "field.row_reduce.calls": (calls("field.row_reduce"), "count"),
        "field.self_ms": (ms(field_ns), "ms"),
        "field.cells": (c["field.cells"], "count"),
        "field.q_share": (q_self / field_ns if field_ns else 0.0, "ratio"),
        "graded.cohomology.self_ms": (self_of("graded.cohomology"), "ms"),
        "graded.complex.self_ms": (self_of("graded.CochainComplex"), "ms"),
        "graded.cohomology.dim": (c["graded.cohomology.dim"], "count"),
        "graded.rep_yield": (c["graded.reps"] / in_span if in_span else 0.0, "ratio"),
        "algebra.self_ms": (ms(layer_ns["algebra"]), "ms"),
        "algebra.poly_mul.calls": (calls("algebra.poly_mul"), "count"),
        "module.expand.self_ms": (self_of("module.ModuleExpansion"), "ms"),
        "module.expand.elements": (c["module.expand.elements"], "count"),
        "module.hom_complex.self_ms": (self_of("module.hom_complex"), "ms"),
        "module.find_idempotents.self_ms": (self_of("module.find_idempotents"), "ms"),
        "module.idempotent.candidates": (c["module.idempotent.candidates"], "count"),
        "resolve.bar_resolution.self_ms": (self_of("resolve.bar_resolution"), "ms"),
        "resolve.derived_tensor.self_ms": (self_of("resolve.derived_tensor"), "ms"),
        "resolve.generators": (c["resolve.generators"], "count"),
        "spheres.decompose.self_ms": (self_of("spheres.decompose", "spheres.all_matchings"), "ms"),
        "spheres.matchings": (c["spheres.matchings"], "count"),
        "spheres.matching_yield": (multisets / c["spheres.matchings"]
                                   if c["spheres.matchings"] else 0.0, "ratio"),
        "emss.self_ms": (ms(layer_ns["emss"]), "ms"),
        "emss.cells": (c["emss.cells"], "count"),
        "rational.self_ms": (ms(layer_ns["rational"]), "ms"),
        "cli.self_ms": (ms(layer_ns["cli"]), "ms"),
    }
    for layer in list(LAYERS) + ["bench"]:
        metrics[f"{layer}.share"] = (layer_ns[layer] / total, "ratio")
    metrics["module.hom_idempotent.share"] = (
        tracer.inclusive_ns({"module.hom_complex", "module.find_idempotents"}) / total, "ratio")
    return metrics
