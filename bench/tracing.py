"""Outside-in tracer for the padicframes layers.

The tracer never edits the library.  While active it replaces, in every
loaded ``padicframes`` module, each binding of a public function of a layer
module with a wrapper that records a span (name, start, end, parent) and a
call count, and it wraps a fixed set of methods and constructors on the
library's value types.  Names imported with ``from .padic import rep_mod``
are separate bindings of the same function object, so every module namespace
is scanned for every wrapped object.  Leaving the ``with`` block puts every
original object back.

A span's self time is its duration minus the durations of its child spans,
so the self times of all spans inside one op add up to the op's duration;
the tracer checks that for every op, and that every library span opens
inside a span of the benchmark's own (an op or set-up).  Aggregates (calls
and self time per span name) are exact for the whole traced run; the span
records themselves are kept in memory up to a cap and written out by the
caller.
"""

from __future__ import annotations

import inspect
import sys
import time
import types

LAYERS = ("padic", "cyclotomic", "wavelets", "affine", "frames", "mra", "io",
          "cli", "sampling")

# Public functions whose spans share one name.
_FUNCTION_SPAN_NAMES = {
    "io.serialize_fraction": "io.serialize",
    "io.serialize_coeff": "io.serialize",
    "io.serialize_function": "io.serialize",
    "io.serialize_affine": "io.serialize",
    "io.serialize_amount": "io.serialize",
    "cli.build_parser": "cli.main",
}

# (layer, class, attribute) -> span name.  Constructors are traced through
# ``__init__`` so that ``.calls`` counts constructions.
METHOD_SPAN_NAMES = {
    ("cyclotomic", "CycloNumber", "__init__"): "cyclotomic.CycloNumber",
    ("cyclotomic", "CycloNumber", "__add__"): "cyclotomic.addsub",
    ("cyclotomic", "CycloNumber", "__sub__"): "cyclotomic.addsub",
    ("cyclotomic", "CycloNumber", "__mul__"): "cyclotomic.mul",
    ("cyclotomic", "CycloNumber", "scale"): "cyclotomic.scale",
    ("cyclotomic", "CycloNumber", "automorphism"): "cyclotomic.automorphism",
    ("cyclotomic", "CycloNumber", "norm_sq"): "cyclotomic.norm_sq",
    ("cyclotomic", "CycloNumber", "inverse"): "cyclotomic.inverse",
    ("padic", "PadicScalar", "__init__"): "padic.PadicScalar",
    ("padic", "CosetRepresentative", "__init__"): "padic.CosetRepresentative",
    ("wavelets", "WaveletIndex", "__init__"): "wavelets.WaveletIndex",
    ("wavelets", "TestFunction", "__init__"): "wavelets.TestFunction",
    ("wavelets", "TestFunction", "__add__"): "wavelets.TestFunction.add",
    ("wavelets", "TestFunction", "__eq__"): "wavelets.TestFunction.eq",
    ("wavelets", "TestFunction", "scaled"): "wavelets.TestFunction.scaled",
    ("affine", "AffineElement", "__init__"): "affine.AffineElement",
    ("frames", "OrbitIndex", "__init__"): "frames.OrbitIndex",
}

OP_SPAN = "bench.op"
SETUP_SPAN = "bench.setup"
SPAN_CAP = 50_000  # span records kept in memory; aggregates cover every span


def package_modules() -> list[types.ModuleType]:
    """Every loaded module of the padicframes package, the package included."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "padicframes" or name.startswith("padicframes."))]


class Tracer:
    """Context manager that traces the padicframes layers in this process.

    ``counters`` holds extra exact counts read from return values, such as
    ``affine.genericity_check.cells`` (the summed ``quotient_size``).
    ``bad_ops`` counts ops whose span self times do not add up to the op's
    duration or whose spans did not nest; ``orphan_spans`` counts library
    spans opened outside any root span.  Both must stay zero.
    """

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {"affine.genericity_check.cells": 0}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.span_total = 0
        self.ops = 0
        self.bad_ops = 0
        self.orphan_spans = 0
        self._stack: list[list] = []  # [start, child_time, span_id]
        self._op_self = 0.0  # self time of the spans closed in the current op
        self._op_spans = 0
        self._nesting_broken = False
        self._next_id = 1
        self._restore: list[tuple[object, str, object]] = []
        self.span_names: set[str] = {OP_SPAN, SETUP_SPAN}

    # -- spans ---------------------------------------------------------------

    def _open(self, root: bool = False) -> list:
        span_id = self._next_id
        self._next_id += 1
        if not root and not self._stack:
            self.orphan_spans += 1
        frame = [time.perf_counter(), 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list) -> float:
        end = time.perf_counter()
        stack = self._stack
        if stack[-1] is not frame:
            self._nesting_broken = True
        stack.remove(frame)
        duration = end - frame[0]
        own = duration - frame[1]
        parent_id = 0
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent_id = parent[2]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        self._op_self += own
        self._op_spans += 1
        self.span_total += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[2], parent_id, name, frame[0], end))
        return duration

    def span(self, name: str):
        """Root span opened by the benchmark itself (set-up or one op)."""
        return _RootSpan(self, name)

    def _wrap(self, name: str, fn, on_result=None):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            frame = open_()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, frame)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _count_cells(self, verdict) -> None:
        self.counters["affine.genericity_check.cells"] += verdict.quotient_size

    # -- install / restore ---------------------------------------------------

    def _targets(self) -> dict[int, tuple[str, object]]:
        """id(original function) -> (span name, original)."""
        out = {}
        for layer in LAYERS:
            mod = sys.modules[f"padicframes.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue  # a span would close before the work is done
                name = f"{layer}.{attr}"
                out[id(obj)] = (_FUNCTION_SPAN_NAMES.get(name, name), obj)
        return out

    def _replace(self, container, attr: str, new) -> None:
        self._restore.append((container, attr, vars(container)[attr]))
        setattr(container, attr, new)

    def __enter__(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer is already installed")
        targets = self._targets()
        self.span_names.update(name for name, _ in targets.values())
        self.span_names.update(METHOD_SPAN_NAMES.values())
        wrappers = {}
        for key, (name, fn) in targets.items():
            hook = self._count_cells if name == "affine.genericity_check" else None
            wrappers[key] = self._wrap(name, fn, hook)
        for mod in package_modules():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and targets[id(obj)][1] is obj:
                    self._replace(mod, attr, wrappers[id(obj)])
        for (layer, cls_name, attr), name in METHOD_SPAN_NAMES.items():
            cls = getattr(sys.modules[f"padicframes.{layer}"], cls_name)
            self._replace(cls, attr, self._wrap(name, vars(cls)[attr]))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            container, attr, original = self._restore.pop()
            setattr(container, attr, original)

    # -- results -------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum((v for k, v in self.self_s.items() if k.startswith(prefix)), 0.0)

    def dump(self) -> dict:
        return {
            "calls": dict(sorted(self.calls.items())),
            "self_s": dict(sorted(self.self_s.items())),
            "counters": self.counters,
            "ops": self.ops,
            "bad_ops": self.bad_ops,
            "orphan_spans": self.orphan_spans,
            "span_total": self.span_total,
            "span_fields": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
        }


class _RootSpan:
    """A span of the benchmark's own.  For an op it also checks that the self
    times of every span inside add up to the op's duration (to rounding)
    and that the spans nested."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.nested = bool(tracer._stack)
        tracer._op_self, tracer._op_spans, tracer._nesting_broken = 0.0, 0, False
        self.frame = tracer._open(root=True)
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        duration = tracer._close(self.name, self.frame)
        if self.name == OP_SPAN:
            tracer.ops += 1
            rounding = 1e-9 * tracer._op_spans
            if (self.nested or tracer._nesting_broken or tracer._stack
                    or abs(tracer._op_self - duration) > rounding):
                tracer.bad_ops += 1
        return False
