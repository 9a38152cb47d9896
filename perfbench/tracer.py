"""Span tracing and backward attribution, installed from outside the package.

Nothing in ``src/`` knows about this module. ``Tracer.install`` replaces the
public functions of the traced secap modules, in every secap namespace that
bound them with ``from .x import y``, and the public methods of their classes,
with wrappers that record spans. Spans stay in memory until ``dump`` writes
them out at the end of a run.

Two kinds of attribution need more than spans:

* per-op backward time: when ``tensor.backward`` is called, every tape entry's
  ``backward_rule`` is wrapped with a timer keyed by the rule's ``__qualname__``
  prefix (``matmul.<locals>.rule`` is op ``matmul``);
* per-module backward time: calls into layers record the tape-index range they
  appended; each entry belongs to the innermost range around it, named by the
  common dotted prefix of the layer's parameter names.

The tensor forward ops are not spanned: a desk step makes about 426 of them,
and the tape already counts them exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

TRACED_MODULES = ("data", "storage", "nn", "encoder", "prm", "lfrm", "losses",
                  "model", "tensor", "optim", "evaluate", "train", "cli")

# layer methods that open a tape range, besides every parameterised __call__
_RANGE_METHODS = {
    ("model", "SeCapModel", "compute_losses"): "losses",
    ("model", "SeCapModel", "forward"): "model",
    ("encoder", "Encoder", "encode"): "encoder",
}


def _scope_of(layer) -> str:
    """Common dotted prefix of a layer's parameter names."""
    names = [p.name.split(".") for p in layer.parameters()]
    if len(names) == 1:
        return ".".join(names[0][:-1])
    prefix = []
    for parts in zip(*names):
        if len(set(parts)) != 1:
            break
        prefix.append(parts[0])
    return ".".join(prefix)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # each span: [name id, start s, end s, parent span index or -1, step]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.step = -1
        self.counts: dict[tuple[str, int], float] = defaultdict(float)
        self.backward_ms: dict[tuple[str, int], float] = defaultdict(float)
        self._ranges: list[tuple[int, int, str]] = []
        self._scopes: dict[int, str] = {}
        self._extracted_paths: dict[int, set] = {}
        self._tape = None

    # -- spans -------------------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _wrap(self, fn, name: str, on_exit=None, range_name=None):
        name_id = self._intern(name)
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name_id, 0.0, 0.0, stack[-1] if stack else -1, tracer.step]
            spans.append(rec)
            stack.append(len(spans) - 1)
            first = len(tracer._tape.entries) if range_name is not None else 0
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if range_name is not None:
                    last = len(tracer._tape.entries)
                    if last > first:
                        scope = range_name if isinstance(range_name, str) else tracer._scope(args[0])
                        tracer._ranges.append((first, last, scope))
                if on_exit is not None:
                    on_exit(args, kwargs)

        return traced

    def _scope(self, layer) -> str:
        key = id(layer)
        scope = self._scopes.get(key)
        if scope is None:
            scope = self._scopes[key] = _scope_of(layer)
        return scope

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[(name, self.step)] += amount

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced modules' public functions and class methods."""
        modules = {short: importlib.import_module(f"secap.{short}") for short in TRACED_MODULES}
        self._tape = modules["tensor"].tape()
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "secap" or n.startswith("secap."))]
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if short == "tensor" and attr != "backward":
                    continue  # hot per-op code: counted from the tape, never spanned
                if inspect.isclass(obj):
                    self._wrap_class(short, obj)
                elif inspect.isfunction(obj):
                    wrapped = self._wrap_function(short, attr, obj)
                    for ns in namespaces:
                        for bound, value in list(vars(ns).items()):
                            if value is obj:
                                setattr(ns, bound, wrapped)

    def _wrap_function(self, short: str, attr: str, fn):
        name = f"{short}.{attr}"
        if name == "tensor.backward":
            return self._wrap_backward(fn)
        if name == "evaluate.extract_features":
            return self._wrap(fn, name, on_exit=self._count_extracted)
        return self._wrap(fn, name)

    def _wrap_class(self, short: str, cls) -> None:
        has_params = callable(getattr(cls, "parameters", None))
        for attr, value in list(vars(cls).items()):
            if not inspect.isfunction(value):
                continue
            if attr.startswith("_") and attr not in ("__call__", "__init__"):
                continue
            if attr == "__init__" and (short, cls.__name__) != ("model", "SeCapModel"):
                continue
            range_name = _RANGE_METHODS.get((short, cls.__name__, attr))
            if attr == "__call__" and has_params:
                range_name = True  # derive the scope from the instance
            setattr(cls, attr, self._wrap(value, f"{short}.{cls.__qualname__}.{attr}",
                                          range_name=range_name))

    def _count_extracted(self, args, kwargs) -> None:
        manifest = args[1]
        records = args[2] if len(args) > 2 else kwargs.get("records")
        paths = [r.path for r in (manifest.records if records is None else records)]
        self.count("evaluate.extract_features.images", len(paths))
        self._extracted_paths.setdefault(self.step, set()).update(paths)

    def _wrap_backward(self, fn):
        """Attribute the tape, then run backward in its span; the attribution
        itself stays outside the span."""
        tracer = self
        spanned = self._wrap(fn, "tensor.backward")

        def backward(loss):
            entries = tracer._tape.entries
            scopes = ["other"] * len(entries)
            for first, last, scope in sorted(tracer._ranges, key=lambda r: (r[0], -r[1])):
                scopes[first:last] = [scope] * (last - first)
            tracer._ranges.clear()
            step = tracer.step
            tracer.count("tensor.tape.entries", len(entries))
            tracer.count("tensor.tape.bytes", sum(e.output.data.nbytes for e in entries))
            for entry, scope in zip(entries, scopes):
                op = entry.backward_rule.__qualname__.split(".")[0]
                tracer.count(f"tensor.tape.entries.{op}")
                entry.backward_rule = tracer._timed_rule(entry.backward_rule, op, scope, step)
            return spanned(loss)

        return functools.update_wrapper(backward, fn)

    def _timed_rule(self, rule, op: str, scope: str, step: int):
        acc = self.backward_ms

        def timed(g):
            start = perf_counter()
            try:
                return rule(g)
            finally:
                elapsed = (perf_counter() - start) * 1e3
                acc[("op." + op, step)] += elapsed
                acc[("scope." + scope, step)] += elapsed

        return timed

    # -- reduction ---------------------------------------------------------

    def unique_ratio(self, steps) -> float:
        """Distinct images over images encoded, across the given steps."""
        encoded = sum(self.counts.get(("evaluate.extract_features.images", s), 0.0) for s in steps)
        unique = sum(len(self._extracted_paths.get(s, ())) for s in steps)
        return unique / encoded if encoded else 0.0

    def totals(self, steps) -> tuple[dict[str, float], dict[str, int]]:
        """Inclusive ms and call count per span name, over spans whose step is in `steps`."""
        wanted = set(steps)
        ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name_id, start, end, _parent, step in self.spans:
            if step in wanted:
                name = self.names[name_id]
                ms[name] += (end - start) * 1e3
                calls[name] += 1
        return ms, calls

    def counted(self, name: str, steps) -> float:
        return sum(self.counts.get((name, s), 0.0) for s in steps)

    def backward_by(self, key: str, steps) -> float:
        return sum(self.backward_ms.get((key, s), 0.0) for s in steps)

    def backward_by_scope(self, steps) -> dict[str, float]:
        """Backward ms per layer scope, as recorded, over the given steps."""
        wanted = set(steps)
        out: dict[str, float] = defaultdict(float)
        for (key, step), value in self.backward_ms.items():
            if step in wanted and key.startswith("scope."):
                out[key[len("scope."):]] += value
        return dict(out)

    def self_times(self, steps=None) -> dict[str, float]:
        """Self ms per span name, over spans whose step is in `steps` (default all):
        each span's duration minus the time its children cover."""
        wanted = None if steps is None else set(steps)
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, _step in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name_id, start, end, _parent, step) in enumerate(self.spans):
            if wanted is None or step in wanted:
                out[self.names[name_id]] += (end - start - child[i]) * 1e3
        return dict(out)

    def children_ms(self, parent_name: str, steps) -> dict[str, float]:
        """Inclusive ms of the direct children of spans named `parent_name`."""
        parent_id = self._name_ids.get(parent_name)
        wanted = set(steps)
        out: dict[str, float] = defaultdict(float)
        for name_id, start, end, parent, step in self.spans:
            if parent >= 0 and step in wanted and self.spans[parent][0] == parent_id:
                out[self.names[name_id]] += (end - start) * 1e3
        return out

    def dump(self, path, extra: dict) -> None:
        """Write every span, with names resolved, plus `extra`, as one JSON file."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_ms", "end_ms", "parent", "step"]
        doc["names"] = self.names
        doc["spans"] = [[n, round((s - t0) * 1e3, 4), round((e - t0) * 1e3, 4), p, st]
                        for n, s, e, p, st in self.spans]
        doc["self_ms"] = {k: round(v, 4) for k, v in sorted(self.self_times().items())}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
