"""In-memory span tracer for the traced benchmark run.

Spans are taken around calls into the engine's public functions by
replacing those functions, at run time and only in the benchmark's own
process, in every `noetherform` module that holds a reference to them.
No file of the engine changes.

A span is (name, start, end, parent, run id).  Spans are kept in memory as
flat arrays and written out once, when the sample ends.  Self time is
computed online: a span's duration minus the time its direct child spans
cover (children are properly nested because the engine is single-threaded).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []  # [span index, child time]
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.keys: dict[str, set] = {}

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.total_s[name] = 0.0
            self.self_s[name] = 0.0
        return i

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def note_key(self, name: str, key) -> None:
        self.keys.setdefault(name, set()).add(key)

    def span(self, name: str, fn, /, *args, **kwargs):
        """Call fn inside a span called name."""
        nid = self._id(name)
        stack = self._stack
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(stack[-1][0] if stack else -1)
        frame = [idx, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        self.start.append(t0)
        self.end.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            self.end[idx] = t1
            if stack:
                stack[-1][1] += dur
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - frame[1]

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        traced.__wrapped_original__ = fn
        return traced

    def write(self, path: str) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"run": self.run_id, "names": self.names}) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    f"[{self.name_of[i]},{self.start[i]:.9f},{self.end[i]:.9f},"
                    f"{self.parent[i]}]\n"
                )


# Engine functions that get a span, by "module.function" (the span name).
# They are replaced wherever a noetherform module refers to them.
FUNCTIONS = (
    "axioms.axiom_suite",
    "core.compose",
    "slominski.as_form",
    "slominski.enumerate_homs",
    "slominski.subalgebra_lattice",
    "slominski.is_normal_subalgebra",
    "slominski.generate_congruence",
    "slominski.element_morphism",
    "gen.extend_homs",
    "gen.lift_ladder",
    "zigzag.chase_forward",
    "zigzag.chase_backward",
    "zigzag.induced_relation",
    "pyramid.build_pyramid",
    "pyramid.decide_induction",
    "pyramid.quotient_iso",
    "parser.parse_file",
    "cli.main",
)

# Methods that get a span, by "module.Class.method" -> span name.
METHODS = {
    "slominski.SlominskiForm.quotient_object": "slominski.quotient_object",
    "slominski.SlominskiForm.subobject_object": "slominski.subobject_object",
    "diagram.Diagram.check": "diagram.check",
}

# Span names that share one layer name in the report.
LAYER_OF = {
    "zigzag.chase_forward": "zigzag.chase",
    "zigzag.chase_backward": "zigzag.chase",
}

# Lattice methods whose calls are counted (timing each would cost more than
# the call) under the counter lattice.ops.
LATTICE_OPS = ("leq", "join", "meet")


def install(tracer: Tracer) -> None:
    """Replace the traced engine functions in every loaded noetherform
    module, and the traced methods on their classes."""
    import importlib

    mods = {n: importlib.import_module(f"noetherform.{n}")
            for n in ("axioms", "core", "slominski", "gen", "zigzag", "pyramid",
                      "lemmas", "diagram", "parser", "cli", "lattice")}
    replace = {}
    for qual in FUNCTIONS:
        mod, fn_name = qual.split(".")
        fn = getattr(mods[mod], fn_name)
        replace[id(fn)] = tracer.wrap(LAYER_OF.get(qual, qual), fn)
    loaded = [m for name, m in sys.modules.items()
              if m is not None and (name == "noetherform" or name.startswith("noetherform."))]
    for m in loaded:
        for attr, val in list(vars(m).items()):
            new = replace.get(id(val))
            if new is not None:
                setattr(m, attr, new)

    for qual, span_name in METHODS.items():
        mod, cls_name, meth = qual.split(".")
        cls = getattr(mods[mod], cls_name)
        orig = getattr(cls, meth)
        if span_name in ("slominski.quotient_object", "slominski.subobject_object"):
            setattr(cls, meth, _keyed_method(tracer, span_name, orig))
        else:
            setattr(cls, meth, tracer.wrap(span_name, orig))

    lattice = mods["lattice"]
    # DualLattice delegates to these, so each operation is counted once
    for cls in (lattice.MaskLattice, lattice.TableLattice):
        for meth in LATTICE_OPS:
            setattr(cls, meth, _counted(tracer, "lattice.ops", getattr(cls, meth)))


def _keyed_method(tracer: Tracer, name: str, fn):
    """Span plus a record of the distinct (object, key, relabelled) requests,
    so distinct keys over calls measures how much a cache could save."""

    @functools.wraps(fn)
    def traced(self, S, perm=None):
        tracer.note_key(name, (S.owner.id, S.key, perm is None))
        return tracer.span(name, fn, self, S, perm)

    return traced


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def counted(*args):
        tracer.count(name)
        return fn(*args)

    return counted
