"""Per-layer spans and counts for torsionlab, recorded from outside the package.

``patched(tracer)`` wraps every public function of each layer module and
rebinds the wrapper wherever the package holds the original: the defining
module, every ``from .x import y`` binding in the other modules, and
module-level dicts such as ``harness.RUNNERS``.  ``DomainSpec.boundary_point``
is only counted, on the class, because the equality sweep calls it hundreds
of thousands of times.  Everything is restored on exit.

A span's self time is its duration minus the part of it that its child spans
cover.  A span opened on a thread with no open span of its own (a
``ThreadPoolExecutor`` worker) becomes a child of the innermost span open on
the pass's root thread, i.e. the span that is blocked waiting for it, so the
wait is not counted as that span's self time and the layer self times of a
pass add up to its wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, layer, functions to wrap; None wraps every public function)
LAYERS = (
    ("torsionlab._kernels", "kernels", ("log_source_fields",)),
    ("torsionlab.geometry", "geometry", None),
    ("torsionlab.solver", "solver", None),
    ("torsionlab.identities", "identities", None),
    ("torsionlab.stability", "stability", None),
    ("torsionlab.shapeflow", "shapeflow", None),
    ("torsionlab.harness", "harness", None),
)
LAYER_NAMES = tuple(layer for _, layer, _ in LAYERS)
ROOT = "pass"
FLOW = "shapeflow.flow_to_constant_flux"
COUNTS = (
    "kernels.pair_evals",
    "solver.evaluate.points",
    "solver.free_boundary.iterations",
    "geometry.boundary_point.calls",
    "geometry.distance_to_boundary.points",
    "geometry.area_nodes",
    "shapeflow.accepted_steps",
    "shapeflow.flow_dirichlet_solves",
)


class Span:
    __slots__ = ("name", "parent", "start", "children")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.children = []  # (start, end) of closed child spans


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -np.inf
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [inclusive s, self s, calls]
        self.counts = dict.fromkeys(COUNTS, 0.0)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._root_stack[-1] if self._root_stack else None
        span = Span(name, parent, perf_counter())
        stack.append(span)
        return span

    def close(self, span):
        end = perf_counter()
        self._stack().pop()
        duration = end - span.start
        self_time = duration - _covered(span.children)
        # a function nested inside itself adds its inclusive time only once
        outermost = True
        node = span.parent
        while node is not None:
            if node.name == span.name:
                outermost = False
                break
            node = node.parent
        with self._lock:
            entry = self.stats.setdefault(span.name, [0.0, 0.0, 0])
            if outermost:
                entry[0] += duration
            entry[1] += self_time
            entry[2] += 1
            if span.parent is not None:
                span.parent.children.append((span.start, end))

    @contextmanager
    def root(self):
        """The pass's root span; worker-thread spans attach below it."""
        span = self.open(ROOT)
        self._root_stack = self._stack()
        try:
            yield span
        finally:
            self._root_stack = None
            self.close(span)

    def wrap(self, name, fn):
        hook = HOOKS.get(name)
        self.stats.setdefault(name, [0.0, 0.0, 0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if hook is not None:
                hook(self, span, args, kwargs, result)
            return result

        return traced

    def metrics(self) -> dict:
        """Flat metrics: ``<name>.s``, ``.self_s`` and ``.calls`` per function,
        ``<layer>.self_s`` and ``.calls`` per layer, the counts, and ratios."""
        out = {f"{layer}.{kind}": 0.0 for layer in LAYER_NAMES for kind in ("self_s", "calls")}
        for name, (inclusive, self_time, calls) in self.stats.items():
            out[f"{name}.s"] = inclusive
            out[f"{name}.self_s"] = self_time
            out[f"{name}.calls"] = float(calls)
            layer = name.split(".", 1)[0]
            if layer in LAYER_NAMES:
                out[f"{layer}.self_s"] += self_time
                out[f"{layer}.calls"] += calls
        out.update(self.counts)
        kernel_s = out.get("kernels.log_source_fields.s", 0.0)
        out["kernels.pair_evals_per_s"] = (
            out["kernels.pair_evals"] / kernel_s if kernel_s > 0 else 0.0
        )
        solves = out["shapeflow.flow_dirichlet_solves"]
        out["shapeflow.step_yield"] = out["shapeflow.accepted_steps"] / solves if solves > 0 else 0.0
        return out


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _n_points(pts):
    return np.size(pts) // 2  # (n, 2) arrays or a single (2,) point


def _count_kernel(tracer, span, args, kwargs, result):
    points = _arg(args, kwargs, 0, "points")
    sources = _arg(args, kwargs, 1, "sources")
    tracer.counts["kernels.pair_evals"] += _n_points(points) * _n_points(sources)


def _count_evaluate(tracer, span, args, kwargs, result):
    tracer.counts["solver.evaluate.points"] += _n_points(_arg(args, kwargs, 1, "pts"))


def _count_distance(tracer, span, args, kwargs, result):
    tracer.counts["geometry.distance_to_boundary.points"] += _n_points(
        _arg(args, kwargs, 1, "pts")
    )


def _count_area_nodes(tracer, span, args, kwargs, result):
    tracer.counts["geometry.area_nodes"] += result.area.nodes.shape[0]


def _count_free_boundary(tracer, span, args, kwargs, result):
    tracer.counts["solver.free_boundary.iterations"] += result.iterations


def _count_flow(tracer, span, args, kwargs, result):
    tracer.counts["shapeflow.accepted_steps"] += len(result.trajectory) - 1


def _count_flow_solve(tracer, span, args, kwargs, result):
    node = span.parent
    while node is not None:
        if node.name == FLOW:
            tracer.counts["shapeflow.flow_dirichlet_solves"] += 1
            return
        node = node.parent


# span name -> hook(tracer, span, args, kwargs, result), run after a call returns
HOOKS = {
    "kernels.log_source_fields": _count_kernel,
    "solver.evaluate": _count_evaluate,
    "geometry.distance_to_boundary": _count_distance,
    "geometry.build_quadratures": _count_area_nodes,
    "solver.overdetermined_instance": _count_free_boundary,
    FLOW: _count_flow,
    "solver.solve_dirichlet": _count_flow_solve,
}


def _public_functions(module):
    return [
        name
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and value.__module__ == module.__name__
        and not name.startswith("_")
    ]


@contextmanager
def patched(tracer: Tracer):
    """Route every call into a layer through ``tracer`` while the block runs."""
    wrappers = {}  # id(original) -> (original, wrapper)
    for module_name, layer, names in LAYERS:
        module = importlib.import_module(module_name)
        for name in names or _public_functions(module):
            fn = getattr(module, name)
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))

    def replacement(value):
        entry = wrappers.get(id(value))
        return entry[1] if entry is not None and entry[0] is value else None

    spec_class = importlib.import_module("torsionlab.geometry").DomainSpec
    boundary_point = spec_class.boundary_point
    calls = itertools.count()  # next() is atomic, so worker threads may count too

    def counted_boundary_point(spec, *args, **kwargs):
        next(calls)
        return boundary_point(spec, *args, **kwargs)

    undo = []
    try:
        package = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "torsionlab"]
        for module in package:
            for attr, value in list(vars(module).items()):
                new = replacement(value)
                if new is not None:
                    setattr(module, attr, new)
                    undo.append((setattr, module, attr, value))
                elif isinstance(value, dict) and attr != "__builtins__":
                    for key, item in list(value.items()):
                        new = replacement(item)
                        if new is not None:
                            value[key] = new
                            undo.append((dict.__setitem__, value, key, item))
        spec_class.boundary_point = counted_boundary_point
        undo.append((setattr, spec_class, "boundary_point", boundary_point))
        yield tracer
    finally:
        for restore, target, key, value in reversed(undo):
            restore(target, key, value)
        tracer.counts["geometry.boundary_point.calls"] += next(calls)
