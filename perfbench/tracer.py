"""Per-layer tracing of scomult, installed from outside the package.

Every public function defined in a layer module, plus the hot methods named
in METHODS, is replaced by a wrapper.  Each wrapped call is a span at a layer
boundary: the wrapper counts it, times it, and charges the span's duration
minus its wrapped children to the layer's self time.  Spans are folded into
these sums as they close, so memory stays flat over millions of ring
operations; time spent in unwrapped helpers is charged to the nearest
wrapped caller.  Coarse spans opened by the worker with `span()` (setup,
each mutant pass, each statement) are kept whole with their parent.

Names are bound at import in two places that replacing a module attribute
does not reach: `from .x import y` copies in other modules, and dataclass
field defaults such as `Toolbox.is_s_second`.  `install()` rebinds both,
and `rebind()` does the same for a toolbox built later (the mutants).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from contextlib import contextmanager

LAYERS = ("rings", "modules", "localization", "s_theory", "morphisms",
          "witnesses", "catalog", "statements", "mutations")

# Functions reported together, under one name, with time counted once at
# the outermost call when one of them calls another.
GROUPS = {
    "rings.ideal_queries": ("enumerate_ideals", "maximal_ideals",
                            "prime_ideals", "jacobson_radical", "saturation"),
    "morphisms.s_hom_predicates": ("is_s_zero", "is_s_monic", "is_s_epic",
                                   "kernel_killer"),
}
GROUP_OF = {f"{key.split('.')[0]}.{name}": key
            for key, names in GROUPS.items() for name in names}

# Methods wrapped on their class, as (layer, class name, method name).
METHODS = (("rings", "Ring", "mul"), ("rings", "Ring", "add"),
           ("witnesses", "Witness", "validate"))


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self._stack = [[0.0]]               # child seconds of each open call
        self._layer_self = [0.0] * len(LAYERS)
        self._boundaries = {}               # key -> [calls, depth, seconds]
        self._cached = {}                   # key -> the original lru_cache
        self._wrappers = {}                 # id(original) -> wrapper
        self.spans = []                     # [name, start, end, parent]
        self._open = []

    def install(self):
        for index, layer in enumerate(LAYERS):
            module = importlib.import_module(f"scomult.{layer}")
            for name, obj in list(vars(module).items()):
                if (name.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                self._wrap(obj, index, f"{layer}.{name}")
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"scomult.{layer}"], cls_name)
            self._wrap(vars(cls)[method], LAYERS.index(layer), f"{layer}.{method}")
        for name, module in list(sys.modules.items()):
            if name == "scomult" or name.startswith("scomult."):
                self._rebind_namespace(module)
                for obj in list(vars(module).values()):
                    if isinstance(obj, type) and obj.__module__ == name:
                        self._rebind_namespace(obj)
                        init = vars(obj).get("__init__")
                        if getattr(init, "__defaults__", None):
                            init.__defaults__ = tuple(
                                self._wrappers.get(id(v), v) for v in init.__defaults__)

    def rebind(self, toolbox):
        """The toolbox with each original function swapped for its wrapper."""
        swaps = {f.name: self._wrappers[id(getattr(toolbox, f.name))]
                 for f in dataclasses.fields(toolbox)
                 if id(getattr(toolbox, f.name)) in self._wrappers}
        return dataclasses.replace(toolbox, **swaps)

    def _rebind_namespace(self, namespace):
        for attr, value in list(vars(namespace).items()):
            wrapper = self._wrappers.get(id(value))
            if wrapper is not None:
                setattr(namespace, attr, wrapper)

    def _wrap(self, fn, layer_index, key):
        if hasattr(fn, "cache_info"):
            self._cached[key] = fn
        state = self._boundaries.setdefault(GROUP_OF.get(key, key), [0, 0, 0.0])
        stack, layer_self, clock = self._stack, self._layer_self, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state[0] += 1
            state[1] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                layer_self[layer_index] += elapsed - frame[0]
                state[1] -= 1
                if not state[1]:
                    state[2] += elapsed

        self._wrappers[id(fn)] = traced

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        record = [name, self.clock(), None, parent]
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = self.clock()
            self._open.pop()

    def metrics(self):
        """Counts, inclusive ms, lru hit ratios and per-layer self ms by name."""
        out = {}
        for key, (calls, _, seconds) in self._boundaries.items():
            out[f"{key}_calls"] = calls
            out[f"{key}_ms"] = seconds * 1000.0
        for key, fn in self._cached.items():
            info = fn.cache_info()
            lookups = info.hits + info.misses
            out[f"{key}_hit_ratio"] = info.hits / lookups if lookups else 0.0
        for layer, seconds in zip(LAYERS, self._layer_self):
            out[f"{layer}.self_ms"] = seconds * 1000.0
        return out
