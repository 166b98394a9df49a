"""Spans around parryscope's public functions, recorded from outside.

Each traced function is replaced, in every parryscope module namespace that
binds it, by a wrapper that records a span (label, start, end, parent span).
``analysis`` imports ``next_admissible``, ``fixed_point_prefix_bytes`` and
others by name, so patching only their home module would miss those calls.
Spans stay in memory in flat arrays; self time is span time minus the time of
its direct children.
"""

from __future__ import annotations

import sys
import time
import weakref
from array import array
from collections import defaultdict

# label -> (module, attribute).  numeration.is_zero is the exact zero test
# behind both ZBetaElement.is_zero() and zb_sign.
TARGETS = {
    "cli.main": ("parryscope.cli", "main"),
    "analysis.full_report": ("parryscope.analysis", "full_report"),
    "analysis.classify_affine": ("parryscope.analysis", "classify_affine"),
    "analysis.factor_library": ("parryscope.analysis", "factor_library"),
    "analysis.special_factors": ("parryscope.analysis", "special_factors"),
    "analysis.maximal_left_special": ("parryscope.analysis", "maximal_left_special"),
    "analysis.find_tridents": ("parryscope.analysis", "find_tridents"),
    "analysis.construct_witness": ("parryscope.analysis", "construct_witness"),
    "analysis.verify_witness": ("parryscope.analysis", "verify_witness"),
    "substitution.fixed_point_prefix_bytes":
        ("parryscope.substitution", "fixed_point_prefix_bytes"),
    "numeration.validate_renyi": ("parryscope.numeration", "validate_renyi"),
    "numeration.next_admissible": ("parryscope.numeration", "next_admissible"),
    "numeration.is_admissible": ("parryscope.numeration", "is_admissible"),
    "numeration.radix_rank": ("parryscope.numeration", "radix_rank"),
    "numeration.coding_of_segment": ("parryscope.numeration", "coding_of_segment"),
    "numeration.value_of": ("parryscope.numeration", "value_of"),
    "numeration.zb_sign": ("parryscope.numeration", "zb_sign"),
    "numeration.is_zero": ("parryscope.numeration", "_value_is_zero"),
    "numeration.greedy_expand_integer": ("parryscope.numeration", "greedy_expand_integer"),
    "words.borders": ("parryscope.words", "borders"),
    "words.primitive_root": ("parryscope.words", "primitive_root"),
    "words.satisfies_power_condition": ("parryscope.words", "satisfies_power_condition"),
}
WORDS = ("words.borders", "words.primitive_root", "words.satisfies_power_condition")

# (name, unit, better); every value is per traced pass of the workload
PER_LAYER = (
    [("analysis.factor_library.calls", "count", "lower"),
     ("analysis.factor_library.self_s", "s", "lower"),
     ("analysis.factor_library.prefix_letters", "letters", "lower"),
     ("analysis.factor_library.scan_efficiency", "ratio", "higher"),
     ("analysis.factor_library.hit_ratio", "ratio", "higher"),
     ("substitution.fixed_point_prefix_bytes.calls", "count", "lower"),
     ("substitution.fixed_point_prefix_bytes.self_s", "s", "lower"),
     ("substitution.fixed_point_prefix_bytes.letters", "letters", "lower")]
    + [(f"analysis.{f}.self_s", "s", "lower") for f in
       ("full_report", "classify_affine", "special_factors", "maximal_left_special",
        "find_tridents")]
    + [(f"{label}.{stat}", unit, "lower")
       for label in ("numeration.next_admissible", "numeration.is_admissible",
                     "numeration.radix_rank", "numeration.coding_of_segment",
                     "numeration.value_of", "analysis.construct_witness",
                     "analysis.verify_witness", "numeration.zb_sign", "numeration.is_zero",
                     "numeration.validate_renyi", "numeration.greedy_expand_integer")
       for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [("numeration.next_admissible.checks_per_call", "ratio", "lower"),
       ("cli.main.calls", "count", "lower"),
       ("cli.main.self_s", "s", "lower"),
       ("words.calls", "count", "lower"),
       ("words.self_s", "s", "lower"),
       ("trace.ops_per_s_untraced", "1/s", "higher"),
       ("trace.ops_per_s_traced", "1/s", "higher"),
       ("trace.overhead_frac", "ratio", "lower")]
)


class Tracer:
    """Context manager: patches the targets on entry, restores them on exit."""

    def __init__(self):
        self.labels = list(TARGETS)
        self.label_of = array("B")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.extra = {}  # span -> length asked of fixed_point_prefix_bytes, or (prefix, hit)
        self._stack = []
        self._seen_libs = weakref.WeakValueDictionary()  # (base, id) -> library returned
        self._patched = []

    def _wrap(self, label_id, fn, on_return):
        label_of, parent, start, end = self.label_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            label_of.append(label_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if on_return is not None:
                on_return(sid, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_prefix(self, sid, args, kwargs, result):
        self.extra[sid] = len(result)

    def _on_library(self, sid, args, kwargs, lib):
        key = (args[0].digits, id(lib))
        self.extra[sid] = (lib.prefix_length, self._seen_libs.get(key) is lib)
        self._seen_libs[key] = lib

    def __enter__(self):
        hooks = {"substitution.fixed_point_prefix_bytes": self._on_prefix,
                 "analysis.factor_library": self._on_library}
        modules = [m for name, m in sys.modules.items()
                   if name == "parryscope" or name.startswith("parryscope.")]
        for label_id, label in enumerate(self.labels):
            mod_name, attr = TARGETS[label]
            fn = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(label_id, fn, hooks.get(label))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, fn))
        return self

    def __exit__(self, *exc):
        for mod, name, fn in reversed(self._patched):
            setattr(mod, name, fn)
        self._patched.clear()

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics per traced pass (without the trace.* figures)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        label_of = self.label_of
        for i in range(n):
            label = self.labels[label_of[i]]
            calls[label] += 1
            self_s[label] += dur[i] - child[i]

        lib_id = self.labels.index("analysis.factor_library")
        prefix_id = self.labels.index("substitution.fixed_point_prefix_bytes")
        next_id = self.labels.index("numeration.next_admissible")
        check_id = self.labels.index("numeration.is_admissible")
        asked = defaultdict(int)  # factor_library span -> letters asked inside it
        for i in range(n):
            if label_of[i] == prefix_id:
                p = self.parent[i]
                while p >= 0 and label_of[p] != lib_id:
                    p = self.parent[p]
                if p >= 0:
                    asked[p] += self.extra[i]
        lib_spans = [i for i in range(n) if label_of[i] == lib_id]
        final = sum(self.extra[i][0] for i in lib_spans if i in asked)
        checks = sum(1 for i in range(n)
                     if label_of[i] == check_id and self.parent[i] >= 0
                     and label_of[self.parent[i]] == next_id)

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for label in self.labels:
            out[f"{label}.calls"] = calls[label] / passes
            out[f"{label}.self_s"] = self_s[label] / passes
        out["words.calls"] = sum(calls[w] for w in WORDS) / passes
        out["words.self_s"] = sum(self_s[w] for w in WORDS) / passes
        out["analysis.factor_library.prefix_letters"] = ratio(
            sum(self.extra[i][0] for i in lib_spans), len(lib_spans))
        out["analysis.factor_library.scan_efficiency"] = ratio(final, sum(asked.values()))
        out["analysis.factor_library.hit_ratio"] = ratio(
            sum(1 for i in lib_spans if self.extra[i][1]), len(lib_spans))
        out["substitution.fixed_point_prefix_bytes.letters"] = sum(
            self.extra[i] for i in range(n) if label_of[i] == prefix_id) / passes
        out["numeration.next_admissible.checks_per_call"] = ratio(
            checks, calls["numeration.next_admissible"])
        return out
