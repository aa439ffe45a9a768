"""Span tracer for the symfd layers, installed from outside the program.

Every function of a layer module is replaced, wherever the package holds a
reference to it, by a wrapper that records one span per call from another
module. The references are found where the package wires its modules
together:

- module namespaces: the defining module's own, and every module that
  imported the name (``from .compact_ops import compact_dx``);
- module-level tables, such as the stepper table in ``metrics``, including
  ``functools.partial`` entries, which are rebuilt around the wrapped function;
- functions handed back by a traced call, such as the boosted reference
  returned by ``analytic.galilean_exact``.

A call from inside the function's own module is not a span: it counts as that
layer's self time. So whether a module reaches another through an imported
name, a module attribute or a table, the spans are the same.

A cell is one run of CELL_FUNCTION, the time loop that every verified result
of the CLI goes through. Each run gets the next cell id, and the spans inside
it carry that id; spans outside any cell carry -1.

A span is (function, start, end, parent span, cell id) plus two work counts
taken from argument shapes: the line length n and line count m of a compact
derivative or tridiagonal solve, the points evaluated by a reference solution,
or the node count of a step. Spans live in flat typed arrays for the whole run
and are written to one ``.npz`` file at exit.
"""

import functools
import inspect
import sys
from array import array
from time import perf_counter
from types import FunctionType, ModuleType

import numpy as np

PACKAGE = "symfd"
LAYERS = (
    "cli",
    "metrics",
    "baseline_schemes",
    "invariant_schemes",
    "compact_ops",
    "tridiag",
    "analytic",
)
CELL_FUNCTION = "metrics.evolve"


def layer_of(module_name):
    """Layer name of a symfd module, or None for modules outside the layers."""
    prefix = PACKAGE + "."
    if module_name and module_name.startswith(prefix):
        short = module_name[len(prefix):]
        if short in LAYERS:
            return short
    return None


def _param_index(fn):
    try:
        return [p.name for p in inspect.signature(fn).parameters.values()]
    except (TypeError, ValueError):
        return []


def _arg(args, kwargs, params, name):
    if name in kwargs:
        return kwargs[name]
    if name in params:
        i = params.index(name)
        if i < len(args):
            return args[i]
    return None


def _shape_reader(layer, fn, name):
    """Return f(args, kwargs) -> (n, m) work counts for calls of fn."""
    params = _param_index(fn)
    if layer == "tridiag":

        def read(args, kwargs):
            rhs = _arg(args, kwargs, params, "rhs")
            if rhs is None:
                rhs = next((getattr(a, "rhs") for a in args if hasattr(a, "rhs")), None)
            shape = np.shape(rhs)
            if not shape:
                return 0, 0
            return shape[0], int(np.prod(shape[1:], dtype=np.int64))

        return read
    if layer == "analytic":
        if "x" not in params:
            return None

        def read(args, kwargs):
            x = _arg(args, kwargs, params, "x")
            y = _arg(args, kwargs, params, "y")
            return (np.broadcast(x, y).size if y is not None else np.size(x)), 1

        return read
    if layer == "compact_ops":
        along_y = name.endswith("_along_y")

        def read(args, kwargs):
            u = _arg(args, kwargs, params, "u")
            if not isinstance(u, np.ndarray) or u.ndim == 0:
                return 0, 0
            axis = _arg(args, kwargs, params, "axis")
            axis = (1 if along_y else 0) if axis is None else int(axis)
            n = u.shape[axis]
            return n, u.size // n

        return read

    def read(args, kwargs):
        u = args[0] if args else None
        if not isinstance(u, np.ndarray) or u.ndim == 0:
            return 0, 0
        return u.shape[0], u.size // u.shape[0]

    return read


class Tracer:
    """Records spans for every traced call; see the module docstring."""

    def __init__(self):
        self.names = []  # function id -> display name
        self.layers = []  # function id -> layer index into LAYERS
        self.keys = []  # function id -> table key (e.g. ("vbe", "sym")) or None
        self._fid = {}
        self.func = array("i")
        self.parent = array("i")
        self.cell = array("i")
        self.n = array("q")
        self.m = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("i")
        self.stack = [-1]
        self.cell_id = -1
        self.cells = 0  # cells opened so far; the next cell's id
        self._patches = []

    # -- wrapping -------------------------------------------------------

    def _function_id(self, name, layer, key):
        fid = self._fid.get(name)
        if fid is None:
            fid = len(self.names)
            self._fid[name] = fid
            self.names.append(name)
            self.layers.append(LAYERS.index(layer))
            self.keys.append(key)
        return fid

    def wrap(self, fn, name=None, key=None):
        """Return a span-recording wrapper around the layer function fn."""
        layer = layer_of(fn.__module__)
        name = name or f"{layer}.{fn.__qualname__}"
        fid = self._function_id(name, layer, key)
        read = _shape_reader(layer, fn, name)
        func, parent, cell, ns, ms = self.func, self.parent, self.cell, self.n, self.m
        start, end, stack, raised = self.start, self.end, self.stack, self.raised
        tracer = self
        home = fn.__module__
        call = self._in_new_cell(fn) if name == CELL_FUNCTION else fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == home:
                return call(*args, **kwargs)
            n, m = read(args, kwargs) if read is not None else (0, 0)
            idx = len(start)
            func.append(fid)
            parent.append(stack[-1])
            cell.append(tracer.cell_id)
            ns.append(n)
            ms.append(m)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = call(*args, **kwargs)
            except BaseException:
                raised.append(idx)
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if type(result) is FunctionType and layer_of(result.__module__):
                result = tracer.wrap(result)
            return result

        traced.__wrapped_layer__ = layer
        return traced

    def _in_new_cell(self, fn):
        """fn, run as a new cell: calls inside it carry the next cell id."""

        def call(*args, **kwargs):
            outer, self.cell_id = self.cell_id, self.cells
            self.cells += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.cell_id = outer

        return call

    def _traced_value(self, value, name=None, key=None):
        """The traced replacement for a module-level value, or value itself."""
        if type(value) is FunctionType:
            if layer_of(value.__module__) and not hasattr(value, "__wrapped_layer__"):
                return self.wrap(value, name, key)
            return value
        if isinstance(value, functools.partial) and type(value.func) is FunctionType:
            inner = self._traced_value(value.func, name, key)
            if inner is not value.func:
                return functools.partial(inner, *value.args, **value.keywords)
        return value

    def _patch(self, container, key, new):
        self._patches.append((container, key, container[key]))
        container[key] = new

    def install(self, modules):
        """Replace the layer functions referenced from the given modules."""
        for module in modules:
            owner = layer_of(module.__name__) or module.__name__
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if attr.startswith("__") or isinstance(value, ModuleType):
                    continue
                if isinstance(value, dict):
                    for key, entry in list(value.items()):
                        name = f"{owner}.{attr}[{_key_text(key)}]"
                        new = self._traced_value(entry, name, key if isinstance(key, tuple) else None)
                        if new is not entry:
                            self._patch(value, key, new)
                    continue
                new = self._traced_value(value)
                if new is not value:
                    self._patch(namespace, attr, new)

    def uninstall(self):
        """Put every patched reference back, newest first."""
        while self._patches:
            container, key, original = self._patches.pop()
            container[key] = original

    # -- results --------------------------------------------------------

    def arrays(self, lo=0):
        """Spans from index lo on, derived as by derive()."""
        # Copies, not views: a live view would stop the arrays from growing.
        raw = {name: np.array(getattr(self, name)[lo:]) for name in _SPAN_FIELDS}
        raw["raised"] = np.array(self.raised, dtype=np.int64)
        return derive(raw, np.asarray(self.layers, dtype=np.int32), lo)

    def save(self, path):
        """Write every span and the function table to path (.npz)."""
        np.savez(
            path,
            **{name: np.array(getattr(self, name)) for name in _SPAN_FIELDS},
            raised=np.array(self.raised, dtype=np.int64),
            names=np.array(self.names),
            layers=np.array([LAYERS[i] for i in self.layers]),
            keys=np.array([_key_text(k) if k else "" for k in self.keys]),
        )


_SPAN_FIELDS = ("func", "parent", "cell", "n", "m", "start", "end")


def derive(raw, func_layer, lo=0):
    """Per-span layer, parent layer, duration and self time.

    raw holds the span fields of spans lo, lo+1, ... (parent indices count
    from 0) and the indices of the spans that raised; func_layer maps a
    function id to its layer index. Self time is the span's duration minus
    the durations of its direct children.
    """
    func, parent = raw["func"], raw["parent"]
    count = len(func)
    dur = raw["end"] - raw["start"]
    inside = parent >= lo
    child = np.bincount(parent[inside] - lo, weights=dur[inside], minlength=count)
    layer = func_layer[func]
    parent_layer = np.full(count, -1, dtype=np.int32)
    parent_layer[inside] = layer[parent[inside] - lo]
    raised = np.zeros(count, dtype=bool)
    idx = raw["raised"]
    raised[idx[(idx >= lo) & (idx < lo + count)] - lo] = True
    return dict(raw, layer=layer, parent_layer=parent_layer, dur=dur,
                self=dur - child, raised=raised)


def _key_text(key):
    return ",".join(map(str, key)) if isinstance(key, tuple) else str(key)


def layer_modules():
    """The imported symfd package and its layer modules."""
    import importlib

    package = importlib.import_module(PACKAGE)
    return [package] + [importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS]
