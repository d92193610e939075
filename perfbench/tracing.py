"""Per-layer tracing of mcdeform from outside the library.

`Tracer.install()` wraps every public function of each mcdeform module and
every public method of the classes those modules define (properties and
dunder methods are left alone).  Each wrapped call is a span with a name,
a start, an end and a parent (the span open when it began).  When a span
closes its duration and self time (duration minus the time its child spans
cover) are folded into per-name totals, so memory stays flat however many
calls a run makes.

A wrapped function is rebound in every `mcdeform.*` namespace and
module-level dict that holds it, because modules call each other both as
`la.rref(...)` and after `from .graded import compute_cohomology`.
`TensorDgla.bracket` and `TensorDgla.differential_of` only forward to the
`Dgla` methods, so they stay unwrapped and each bracket counts once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from fractions import Fraction

LAYERS = ("linalg", "graded", "dgla", "artin", "maurer_cartan", "path_object",
          "documents", "cli", "library")
DELEGATES = {"artin.TensorDgla.bracket", "artin.TensorDgla.differential_of"}
# calls counted inside the spans of every open ancestor, for per-call ratios
NESTED = {"dgla.Dgla.bracket": "brackets", "maurer_cartan.gauge_apply": "gauges"}

# metric groups: <layer>.<what> -> the span names it covers (a name ending
# in "_" stands for every span name that starts with it)
GROUPS = {
    "linalg.rref": ("linalg.rref",),
    "linalg.in_span": ("linalg.in_span",),
    "graded.cohomology": ("graded.compute_cohomology",),
    "graded.map_apply": ("graded.GradedMap.apply",),
    "dgla.validate": ("dgla.validate_dgla", "dgla.validate_morphism"),
    "dgla.bracket": ("dgla.Dgla.bracket",),
    "dgla.cone": ("dgla.cone_pair", "dgla.cone_single"),
    "artin.tensor_dgla": ("artin.tensor_dgla",),
    "artin.map_coefficients": ("artin.TensorDgla.map_coefficients",),
    "maurer_cartan.bch": ("maurer_cartan.bch_product",),
    "maurer_cartan.gauge": ("maurer_cartan.gauge_apply",),
    "maurer_cartan.equiv": ("maurer_cartan.gauge_equiv_decide",),
    "maurer_cartan.obstruction": ("maurer_cartan.obstruction_single",
                                  "maurer_cartan.obstruction_pair"),
    "path_object.truncated_H": ("path_object.truncated_H_complex",
                                "path_object.truncated_H_cohomology"),
    "documents.parse": ("documents.parse_", "documents.load_"),
    "documents.serialize": ("documents.serialize_", "documents.canonical_json",
                            "documents.element_coords_map", "documents.format_scalar"),
    "documents.digest": ("documents.digest",),
}


def _group_members(group: str, names) -> list[str]:
    members = GROUPS[group]
    return [n for n in names
            if any(n == m or (m.endswith("_") and n.startswith(m)) for m in members)]


def _bits(value) -> int:
    """Largest numerator/denominator bit length in a Fraction, vector or matrix."""
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    if isinstance(value, (list, tuple)):
        best = 0
        for v in value:
            b = _bits(v)
            if b > best:
                best = b
        return best
    return 0


class _Frame:
    """An open span; its parent is the frame below it on the stack."""

    __slots__ = ("start", "child", "nested")

    def __init__(self, start: float):
        self.start = start
        self.child = 0.0
        self.nested = None


class Tracer:
    """`install()` wraps the library, `uninstall()` restores it unchanged.

    Totals accumulate across installs until `reset()`.
    """

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []
        self.stack: list[_Frame] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_time: dict[str, float] = {}
        self.nested: dict[str, dict[str, int]] = {}
        # updated in place: the post-call hooks hold a reference to it
        self.extra = getattr(self, "extra", {})
        self.extra.update({"rref.cells": 0, "rref.nnz": 0, "in_span.hits": 0,
                           "bracket.zero": 0, "max_bits": 0, "bytes_in": 0})

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        stack = self.stack
        clock = time.perf_counter
        nested_key = NESTED.get(name)
        layer = name.split(".", 1)[0]
        post = self._post_hook(name, layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if nested_key is not None:
                for fr in stack:
                    if fr.nested is None:
                        fr.nested = {}
                    fr.nested[nested_key] = fr.nested.get(nested_key, 0) + 1
            frame = _Frame(clock())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame.start
                if stack:
                    stack[-1].child += dur
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_time[name] = tracer.self_time.get(name, 0.0) + dur - frame.child
                if frame.nested:
                    agg = tracer.nested.setdefault(name, {})
                    for k, v in frame.nested.items():
                        agg[k] = agg.get(k, 0) + v
            if post is not None:
                post(args, result)
            return result

        return traced

    def _post_hook(self, name: str, layer: str):
        extra = self.extra
        if name == "linalg.rref":
            def post(args, result):
                a = args[0]
                rows = len(a)
                cols = len(a[0]) if a else 0
                extra["rref.cells"] += rows * cols
                extra["rref.nnz"] += sum(1 for row in a for x in row if x != 0)
                extra["max_bits"] = max(extra["max_bits"], _bits(result[0]))
            return post
        if name == "linalg.in_span":
            def post(args, result):
                if result is not None:
                    extra["in_span.hits"] += 1
                    extra["max_bits"] = max(extra["max_bits"], _bits(result))
            return post
        if layer == "linalg":
            def post(args, result):
                b = _bits(result)
                if b > extra["max_bits"]:
                    extra["max_bits"] = b
            return post
        if name == "dgla.Dgla.bracket":
            def post(args, result):
                if not result.coords:
                    extra["bracket.zero"] += 1
            return post
        if name in ("documents.load_raw", "documents.load_document"):
            def post(args, result):
                extra["bytes_in"] += os.path.getsize(args[0])
            return post
        return None

    def _patch(self, owner, attr, value) -> None:
        if isinstance(owner, dict):
            self.patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self.patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public API of every layer module."""
        if self.patches:
            return
        modules = {layer: importlib.import_module(f"mcdeform.{layer}") for layer in LAYERS}
        wrapped: dict[int, tuple[object, object]] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{obj.__name__}")
        # rebind in every namespace and module-level dict that holds an original
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "mcdeform" or mod_name.startswith("mcdeform.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        hit = wrapped.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._patch(obj, k, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self.patches.clear()

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if name in DELEGATES:
                continue
            if isinstance(obj, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(obj.__func__, name)))
            elif isinstance(obj, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(obj.__func__, name)))
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(obj, name))

    # --- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Raw per-span-name totals, JSON-serialisable (for child processes)."""
        return {"calls": dict(self.calls), "self": dict(self.self_time), "nested": dict(self.nested),
                "extra": dict(self.extra)}


def merge(snapshots: list[dict], passes: int = 1) -> dict:
    """Sum of span totals, divided by `passes` (the largest bit length is kept)."""
    out = {"calls": {}, "self": {}, "nested": {}, "extra": {}}
    for snap in snapshots:
        for key in ("calls", "self"):
            for k, v in snap[key].items():
                out[key][k] = out[key].get(k, 0) + v
        for k, agg in snap["nested"].items():
            dst = out["nested"].setdefault(k, {})
            for kk, v in agg.items():
                dst[kk] = dst.get(kk, 0) + v
        for k, v in snap["extra"].items():
            if k == "max_bits":
                out["extra"][k] = max(out["extra"].get(k, 0), v)
            else:
                out["extra"][k] = out["extra"].get(k, 0) + v
    if passes > 1:
        for key in ("calls", "self"):
            out[key] = {k: v / passes for k, v in out[key].items()}
        out["nested"] = {k: {kk: v / passes for kk, v in agg.items()}
                         for k, agg in out["nested"].items()}
        out["extra"] = {k: v if k == "max_bits" else v / passes
                        for k, v in out["extra"].items()}
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: dict, traced_wall_s: float) -> dict[str, float]:
    """`<layer>.calls/.self_s` for every layer and group, and the derived
    per-layer counts, from one traced window."""
    calls, self_s, nested, extra = snap["calls"], snap["self"], snap["nested"], snap["extra"]
    out: dict[str, float] = {}
    members = {layer: [n for n in calls if n.split(".", 1)[0] == layer] for layer in LAYERS}
    members.update({g: _group_members(g, calls) for g in GROUPS})
    for key, names in members.items():
        out[f"{key}.calls"] = sum(calls[n] for n in names)
        out[f"{key}.self_s"] = sum(self_s[n] for n in names)
    for group, inner, name in (("maurer_cartan.bch", "brackets", "brackets_per_call"),
                               ("maurer_cartan.gauge", "brackets", "brackets_per_call"),
                               ("maurer_cartan.equiv", "gauges", "gauge_per_call")):
        count = sum(nested.get(n, {}).get(inner, 0) for n in members[group])
        out[f"{group}.{name}"] = _ratio(count, out[f"{group}.calls"])
    out["linalg.rref.cells"] = extra["rref.cells"]
    out["linalg.rref.nnz"] = extra["rref.nnz"]
    out["linalg.in_span.hit_frac"] = _ratio(extra["in_span.hits"], out["linalg.in_span.calls"])
    out["linalg.max_bits"] = extra["max_bits"]
    out["dgla.bracket.zero_frac"] = _ratio(extra["bracket.zero"], out["dgla.bracket.calls"])
    out["documents.bytes_in"] = extra["bytes_in"]
    out["trace.coverage_frac"] = _ratio(sum(self_s.values()), traced_wall_s)
    return out
