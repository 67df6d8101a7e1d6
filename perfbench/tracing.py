"""In-memory spans around calls into the nodalmoduli layers.

The tracer wraps public functions where their callers look them up (the
module attribute, in every package module that imported the name) and
wraps ``__init__`` of the traced classes, because classmethods such as
``RationalInterval.closed`` construct through ``cls`` and would bypass a
replaced module attribute.  No source file changes.

Each span records its name, parent, start and end in flat arrays; nothing
is aggregated until the run ends.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

PACKAGE_MODULES = (
    "nodalmoduli",
    "nodalmoduli.rationals",
    "nodalmoduli.curves",
    "nodalmoduli.gluing",
    "nodalmoduli.feasibility",
    "nodalmoduli.stability",
    "nodalmoduli.moduli",
    "nodalmoduli.cli",
)

# (defining module, public name) of every traced function.
FUNCTIONS = (
    ("cli", "main"),
    ("cli", "build_parser"),
    ("feasibility", "feasible_interval"),
    ("feasibility", "region_scan"),
    ("feasibility", "violated_conditions"),
    ("rationals", "format_rational"),
    ("rationals", "parse_rational"),
    ("curves", "polarized_slope"),
    ("stability", "check_sufficiency"),
    ("stability", "subsheaf_slope"),
    ("stability", "max_degree_bounds"),
    ("moduli", "enumerate_components"),
    ("gluing", "matrix_rank"),
    ("gluing", "parse_matrix"),
)
CLASSES = (
    ("rationals", "RationalInterval"),
    ("curves", "Polarization"),
    ("gluing", "GluingDatum"),
)
LAYERS = tuple(f"{mod}.{name}" for mod, name in FUNCTIONS + CLASSES)

# Counters taken from arguments or results at the same boundaries.
_COUNTS = {
    "feasibility.feasible_interval": lambda args, out: ("feasible", out.feasible),
    "stability.check_sufficiency": lambda args, out: ("witnesses", not out[0]),
    "moduli.enumerate_components": lambda args, out: ("records", len(out)),
    "gluing.matrix_rank": lambda args, out: ("entries", len(args[0]) ** 2),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name: str) -> int:
        idx = len(self.span_start)
        self.span_name.append(self._id(name))
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end
        )
        stack, clock, counters = self.stack, time.perf_counter, self.counters
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                key, value = count(args, result)
                counters[name + "." + key] += value
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        for mod, name in FUNCTIONS:
            original = getattr(importlib.import_module(f"nodalmoduli.{mod}"), name)
            wrapper = self.wrap(f"{mod}.{name}", original)
            for module in modules:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapper)
        for mod, name in CLASSES:
            cls = getattr(importlib.import_module(f"nodalmoduli.{mod}"), name)
            cls.__init__ = self.wrap(f"{mod}.{name}", cls.__init__)

    def aggregate(self) -> dict:
        """Per-name calls, inclusive seconds and self seconds."""
        n = len(self.span_start)
        child = array("d", bytes(8 * n))
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        stats = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = stats[self.names[self.span_name[i]]]
            dur = ends[i] - starts[i]
            entry["calls"] += 1
            entry["incl_s"] += dur
            entry["self_s"] += dur - child[i]
        return stats

    def write(self, path: str) -> dict:
        """Write the spans as four flat columns in machine byte order; return their
        description."""
        with open(path, "wb") as fh:
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(fh)
        return {
            "file": path,
            "count": len(self.span_start),
            "names": self.names,
            "columns": ["name:uint16", "parent:int32", "start_s:float64", "end_s:float64"],
        }
