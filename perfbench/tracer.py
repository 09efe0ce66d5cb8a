"""In-memory spans and call counts around the public functions of skewfiss.

A span wrapper records (name, start, end, parent, pass id) for each call; a
count wrapper only bumps a counter, because the exact-arithmetic operators
run about a million times per scan and a span each would swamp the run.

Installation is binding-aware: a module that did ``from .spectra import
p_from_table`` holds its own reference to the function, so each wrapper is
written into every skewfiss module (and class) that binds the original
object, not only into the module that defines it.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (defining module, function, span name)
SPANS = (
    ("skewfiss.spectra", "p_from_table", "spectra.p_from_table"),
    ("skewfiss.spectra", "q_from_table", "spectra.q_from_table"),
    ("skewfiss.spectra", "character_table", "spectra.character_table"),
    ("skewfiss.spectra", "conference_table", "spectra.conference_table"),
    ("skewfiss.spectra", "intersection_matrices_closed_form", "spectra.closed_form"),
    ("skewfiss.scheme_core", "verify_axioms", "scheme_core.verify_axioms"),
    ("skewfiss.scheme_core", "imprimitive_blocks", "scheme_core.imprimitive_blocks"),
    ("skewfiss.scheme_core", "load_scheme", "scheme_core.load_scheme"),
    ("skewfiss.scheme_core", "save_scheme", "scheme_core.save_scheme"),
    ("skewfiss.constructions", "field_build", "constructions.field_build"),
    ("skewfiss.constructions", "cyclotomic_scheme", "constructions.cyclotomic_scheme"),
    ("skewfiss.constructions", "cyc4_closed_form", "constructions.cyc4_closed_form"),
    ("skewfiss.feasibility", "fission_scan", "feasibility.fission_scan"),
    ("skewfiss.feasibility", "classify_scheme", "feasibility.classify_scheme"),
    ("skewfiss.cli", "format_records", "cli.format_records"),
    ("skewfiss.cli", "main", "cli.main"),
)

# (defining module, class, method aliases sharing one counter, counter name)
COUNTERS = (
    ("skewfiss.exactnum", "SurdSum", ("__mul__", "__rmul__"), "exactnum.surd_mul"),
    ("skewfiss.exactnum", "SurdSum", ("__add__", "__radd__"), "exactnum.surd_add"),
    ("skewfiss.exactnum", "ComplexSurd", ("__mul__", "__rmul__"), "exactnum.complex_mul"),
    ("skewfiss.exactnum", "SurdSum", ("sign",), "exactnum.sign"),
)


def _verify_gflop(tracer, args, kwargs, result):
    s = args[0] if args else kwargs["s"]
    tracer.add("scheme_core.verify_axioms.gflop_computed",
               2 * s.n ** 3 * (s.d + 1) ** 2 / 1e9)


def _ascm_bytes(tracer, args, kwargs, result):
    path = args[-1] if args else kwargs["path"]
    tracer.add("scheme_core.ascm_mb", os.path.getsize(path) / 1e6)


def _records(tracer, args, kwargs, result):
    tracer.add("feasibility.records", len(result))


# span name -> hook run after a successful call
AFTER = {
    "scheme_core.verify_axioms": _verify_gflop,
    "scheme_core.load_scheme": _ascm_bytes,
    "scheme_core.save_scheme": _ascm_bytes,
    "feasibility.fission_scan": _records,
}


class Tracer:
    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1, pass id]
        self.counts: dict[str, list[int]] = {}
        self.sums: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, name: str, amount: float) -> None:
        self.sums[name] = self.sums.get(name, 0) + amount

    def _span_wrapper(self, name, fn, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        pass_id = self.pass_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, pass_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever it is bound.

        Call after ``import skewfiss`` so that every submodule is loaded.
        """
        modules = [m for k, m in sys.modules.items()
                   if k == "skewfiss" or k.startswith("skewfiss.")]
        for mod_name, attr, name in SPANS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._span_wrapper(name, original, AFTER.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, aliases, name in COUNTERS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[aliases[0]]
            wrapper = self._count_wrapper(name, original)
            for key in aliases:
                if cls.__dict__[key] is not original:
                    raise RuntimeError(f"{cls_name}.{key} is no longer an alias of "
                                       f"{cls_name}.{aliases[0]}; update the tracer")
                setattr(cls, key, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans,
                       "counts": {k: v[0] for k, v in self.counts.items()},
                       "sums": self.sums}, fh)


# Scan funnel stages, counted as spans directly under a fission_scan span.
FUNNEL = {"spectra.closed_form": "feasibility.closed_forms_tried",
          "spectra.p_from_table": "feasibility.dual_derivations"}


def aggregate(traces: list[dict]) -> dict[str, float]:
    """Per-name calls and self time over the spans of several dumped traces.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly, so the children never overlap.
    """
    out: dict[str, float] = {}
    for trace in traces:
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, _) in enumerate(spans):
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + (end - start) - child_time[idx]
            if parent >= 0 and spans[parent][0] == "feasibility.fission_scan" and name in FUNNEL:
                out[FUNNEL[name]] = out.get(FUNNEL[name], 0) + 1
        for name, n in trace["counts"].items():
            out[name + ".calls"] = out.get(name + ".calls", 0) + n
        for name, v in trace["sums"].items():
            out[name] = out.get(name, 0) + v
    return out
