"""In-process tracer for one glblocks operation, installed by child.py in trace mode.

Every public function of every glblocks module is replaced, under every name
it is bound to, by one wrapper that records a span: name, start, end and
parent span.  `chi_value`, for instance, is bound as both
`charvalue.chi_value` and `blockcalc.chi_value` (through `from .charvalue
import chi_value`); both bindings get the same wrapper and the span is named
after the defining module.  The wrapper sits outside `functools.cache`, so
cache hits count as calls.  Methods and private functions are not wrapped:
their time is self time of the public function that calls them.

A span's self time is its duration minus the time covered by its children.
Per function the tracer keeps calls, inclusive time (outermost activation
only, so recursion is not counted twice) and self time.  Only the first
SPAN_CAP calls of a function are kept as individual spans; hot leaves are
covered by those counters alone.
"""

import functools
import gzip
import importlib
import itertools
import json
import pkgutil
import time
import types

import glblocks
from glblocks.errors import HypothesisError, ScaleGuardError

SPAN_CAP = 10_000
COUNTED_ERRORS = (ScaleGuardError, HypothesisError)
# per-call counters of the size of a result: span name -> counter name
RESULT_LENGTHS = {"glclass.all_classes": "glclass.labels"}


def _layer_of(module_name):
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.stats = {}    # span name -> [calls, inclusive_s, self_s, depth]
        self.spans = []    # [id, parent id, name, start, end]
        self.stack = []    # [span id, seconds covered by children]
        self.errors = {}   # layer -> ScaleGuardError/HypothesisError raised there
        self.counts = {name: 0 for name in RESULT_LENGTHS.values()}
        self.memo = {}     # "module.fn" -> functools.cache wrapper
        self._seen_errors = set()
        self._ids = itertools.count(1)

    def install(self):
        """Wrap every public glblocks function in place; find every memo table."""
        modules = [importlib.import_module(f"glblocks.{info.name}")
                   for info in pkgutil.iter_modules(glblocks.__path__)]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                home = getattr(obj, "__module__", None) or ""
                if not home.startswith("glblocks."):
                    continue
                is_cached = hasattr(obj, "cache_info")
                if is_cached:
                    self.memo.setdefault(f"{_layer_of(home)}.{obj.__name__}", obj)
                if attr.startswith("_") or obj.__name__.startswith("_"):
                    continue
                if not (is_cached or isinstance(obj, types.FunctionType)):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, f"{_layer_of(home)}.{obj.__name__}")
                setattr(module, attr, wrappers[id(obj)])

    def _wrap(self, fn, name):
        layer = name.split(".", 1)[0]
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, spans, ids, clock = self.stack, self.spans, self._ids, time.perf_counter
        length_counter = RESULT_LENGTHS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            stat[3] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except COUNTED_ERRORS as exc:
                if id(exc) not in self._seen_errors:
                    self._seen_errors.add(id(exc))
                    self.errors[layer] = self.errors.get(layer, 0) + 1
                raise
            finally:
                end = clock()
                took = end - start
                stack.pop()
                if stack:
                    stack[-1][1] += took
                stat[3] -= 1
                stat[0] += 1
                stat[2] += took - frame[1]
                if not stat[3]:
                    stat[1] += took
                if stat[0] <= SPAN_CAP:
                    spans.append([span_id, parent, name, start, end])
            if length_counter is not None:
                counts[length_counter] += len(result)
            return result

        return functools.wraps(fn)(traced)

    def report(self):
        """Aggregates of this process, ready for json.dumps."""
        layer_self = {}
        for name, (_, _, self_s, _) in self.stats.items():
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + self_s
        return {
            "functions": {name: {"calls": s[0], "s": s[1], "self_s": s[2]}
                          for name, s in self.stats.items() if s[0]},
            "layer_self_s": layer_self,
            "errors": self.errors,
            "counts": self.counts,
            "memo": {name: dict(fn.cache_info()._asdict())
                     for name, fn in sorted(self.memo.items())},
            "span_count": len(self.spans),
        }

    def write_spans(self, path):
        """Spans as [id, parent id, name index, start us, end us] from the first start."""
        names = sorted(self.stats)
        index = {name: i for i, name in enumerate(names)}
        origin = min((s[3] for s in self.spans), default=0.0)
        rows = [[i, parent, index[name], round((start - origin) * 1e6), round((end - origin) * 1e6)]
                for i, parent, name, start, end in self.spans]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": names, "origin_s": origin, "spans": rows}, fh,
                      separators=(",", ":"))
