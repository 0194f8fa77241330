"""Per-layer spans recorded from outside the program.

``Tracer.install()`` replaces every public function of each layer (a module
of ``wbcorr``) with a wrapper that records one span per call: name, start,
end, parent span and request id.  Modules import names with
``from .x import y``, so every binding of a function across the ``wbcorr.*``
namespaces is replaced; public methods are replaced on their class.
``rationals.Rational`` is counted but not spanned: it runs millions of
times and does no work of its own beyond the constructor it wraps.

Spans stay in memory, in flat arrays, until ``write`` is called at the end
of the run.  ``layer_metrics`` derives self time (span time minus the time
covered by child spans), call counts and the named work counters.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

#: The modules of src/wbcorr that do work.  ``errors`` only defines
#: exception classes and is not a layer.
LAYERS = ("cli", "local_model", "ranking", "invariants", "rationals", "pair_model", "correspondence")

PACKAGE = "wbcorr"

_COUNTED_ONLY = {("rationals", "Rational")}


class Tracer:
    def __init__(self):
        self.request_id = -1
        self.names: list[str] = []  # span name per name id
        self.layer_of: list[str] = []  # layer per name id
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = Counter()
        self.rational_calls = 0
        self.gen_factorial_factors = 0
        self.witness_hits = 0
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._hooks = {
            "rationals.gen_factorial": self._count_factors,
            "correspondence.find_precedence_witness": self._count_hit,
        }

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every public function and method of every layer."""
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if (layer, name) in _COUNTED_ONLY:
                        wrapper = self._counter(obj)
                    else:
                        wrapper = self._span(obj, layer, f"{layer}.{name}")
                    for target in modules:
                        for attr, value in list(vars(target).items()):
                            if value is obj:
                                self._set(target, attr, wrapper)
                elif inspect.isclass(obj):
                    self._install_methods(obj, layer, f"{layer}.{name}")

    def _install_methods(self, cls, layer, prefix):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value):
                self._set(cls, attr, self._span(value, layer, f"{prefix}.{attr}"))
            elif isinstance(value, (classmethod, staticmethod)):
                wrapped = self._span(value.__func__, layer, f"{prefix}.{attr}")
                self._set(cls, attr, type(value)(wrapped))

    def _set(self, target, attr, value):
        self._restore.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def uninstall(self):
        """Put every original binding back."""
        while self._restore:
            target, attr, value = self._restore.pop()
            setattr(target, attr, value)

    # -- wrappers ---------------------------------------------------------------

    def _span(self, fn, layer: str, name: str):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        hook = self._hooks.get(name)
        stack, errors = self._stack, self.errors
        name_ids, parents, requests = self.name_id, self.parent, self.request
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(ends)
            name_ids.append(nid)
            parents.append(stack[-1])
            requests.append(self.request_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.rational_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_factors(self, args, kwargs, result):
        m = args[1] if len(args) > 1 else kwargs["m"]
        self.gen_factorial_factors += int(m) + 1

    def _count_hit(self, args, kwargs, result):
        if result is not None:
            self.witness_hits += 1

    # -- results ----------------------------------------------------------------

    def layer_metrics(self, requests: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``."""
        n = len(self.end)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                covered[self.parent[i]] += duration[i]
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = Counter()
        by_name = Counter()
        for i in range(n):
            nid = self.name_id[i]
            layer = self.layer_of[nid]
            self_s[layer] += duration[i] - covered[i]
            calls[layer] += 1
            by_name[self.names[nid]] += 1
        searches = by_name["correspondence.find_precedence_witness"]
        out = {
            "ranking.self_s": (self_s["ranking"], "s"),
            "ranking.calls": (calls["ranking"], "count"),
            "ranking.window_builds": (by_name["ranking.window"], "count"),
            "ranking.c_to_Rd_calls": (by_name["ranking.c_to_Rd"], "count"),
            "invariants.self_s": (self_s["invariants"], "s"),
            "invariants.calls": (calls["invariants"], "count"),
            "rationals.self_s": (self_s["rationals"], "s"),
            "rationals.gen_factorial_factors": (self.gen_factorial_factors, "count"),
            "rationals.rational_calls": (self.rational_calls, "count"),
            "correspondence.self_s": (self_s["correspondence"], "s"),
            "correspondence.witness_searches": (searches, "count"),
            "correspondence.witness_hit_ratio": (
                self.witness_hits / searches if searches else 0.0,
                "ratio",
            ),
            "correspondence.searches_per_request": (searches / max(requests, 1), "count/request"),
            "pair_model.self_s": (self_s["pair_model"], "s"),
            "pair_model.data_validations": (
                by_name["pair_model.FormalPairModel.validate_relative_data"]
                + by_name["pair_model.FormalPairModel.validate_absolute_data"],
                "count",
            ),
            "pair_model.model_loads": (by_name["pair_model.FormalPairModel.from_json"], "count"),
            "pair_model.class_solves": (by_name["pair_model.FormalPairModel.solve_class"], "count"),
            "local_model.self_s": (self_s["local_model"], "s"),
            "local_model.isotropy_group_calls": (
                by_name["local_model.LocalModel.isotropy_group"],
                "count",
            ),
            "local_model.calls": (calls["local_model"], "count"),
            "cli.self_s": (self_s["cli"], "s"),
            "cli.requests": (by_name["cli.main"], "count"),
        }
        for layer in LAYERS:
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        return out

    def write(self, path):
        """Write the spans: one JSON header line, then the raw arrays in the
        order the header lists them."""
        header = {
            "names": self.names,
            "layers": self.layer_of,
            "spans": len(self.end),
            "arrays": [["name_id", "i"], ["parent", "i"], ["request", "i"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.request, self.start, self.end):
                arr.tofile(fh)
