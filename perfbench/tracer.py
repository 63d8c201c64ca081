"""Spans around every call into the program's seven layers, recorded from the
benchmark's own files by patching module and class attributes.

A span is (name, start, end, parent span, unit id, raised, bytes).  Spans are
kept in memory in flat arrays and written out when the run ends; self time,
call counts and per-type validation counts are derived from them.

Patched, per layer module: every public function defined there, the
`__post_init__` of every dataclass that validates (so constructing a
`RealElement` is a span named `core.RealElement`), `GridFunction.__init__`
and `GridFunction.max_abs_diff`, and the operator closure `grid.rep` returns
(`grid.rep_operator`).  Internal calls resolve through the same module
globals, so a check verb's calls into `grid` are traced too.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import statistics
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

LAYERS = ("core", "lattice", "grid", "siegel", "textio", "checks", "cli")
VALIDATED_TYPES = ("core.RealElement", "lattice.LatticeElement", "siegel.ComplexElement",
                   "siegel.SiegelPoint", "grid.GridFunction", "grid.QuantizedTriple")


def _kernel_bytes(args, out) -> int:
    """Grid operator: the input function read plus the output written."""
    return args[-1].values.nbytes + out.values.nbytes


def _diff_bytes(args, out) -> int:
    return args[0].values.nbytes + args[1].values.nbytes


def _construct_bytes(args, out) -> int:
    """Validating constructor: the samples read plus the private copy written."""
    return 2 * args[0].values.nbytes


BYTES = {"grid.apply_T": _kernel_bytes, "grid.apply_U": _kernel_bytes,
         "grid.apply_C": _kernel_bytes, "grid.max_abs_diff": _diff_bytes,
         "grid.GridFunction": _construct_bytes}


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.raised = array("b")
        self.start = array("q")
        self.end = array("q")
        self.moved = array("q")
        self.current_unit = [-1]
        self._stack = [-1]
        self._undo: List[Tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn: Callable, nbytes: Optional[Callable] = None,
             post: Optional[Callable] = None) -> Callable:
        """`fn` recording one span per call; `post` maps the result afterwards."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, units, raised = self.name, self.parent, self.unit, self.raised
        starts, ends, moved = self.start, self.end, self.moved
        stack, current, clock = self._stack, self.current_unit, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            units.append(current[0])
            raised.append(0)
            ends.append(0)
            moved.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                ends[i] = clock()
                stack.pop()
                raised[i] = 1
                raise
            ends[i] = clock()
            stack.pop()
            if nbytes is not None:
                moved[i] = nbytes(args, out)
            return out if post is None else post(out)

        return traced

    def _patch(self, owner, attr: str, name: str, **hooks) -> None:
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, nbytes=BYTES.get(name), **hooks))

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"heis.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    hooks = {}
                    if name == "grid.rep":
                        hooks["post"] = lambda op: self.wrap("grid.rep_operator", op)
                    self._patch(module, attr, name, **hooks)
                elif dataclasses.is_dataclass(obj) and "__post_init__" in vars(obj):
                    self._patch(obj, "__post_init__", name)
        from heis.grid import GridFunction
        self._patch(GridFunction, "__init__", "grid.GridFunction")
        self._patch(GridFunction, "max_abs_diff", "grid.max_abs_diff")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def columns(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "unit": np.frombuffer(self.unit, dtype=np.intc).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "bytes": np.frombuffer(self.moved, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.columns())


def _noop(*args):
    return None


def inside_share(calls: int = 20000, repeats: int = 5) -> float:
    """The share of a span's tracing cost that falls inside its own
    [start, end]; the rest is charged to its parent.

    Measured on a traced two-argument no-op: the whole cost is the traced
    minus the plain time per call, the inside part is the recorded duration
    of the no-op span less the plain call it wraps.
    """
    clock = time.perf_counter_ns
    shares = []
    for _ in range(repeats):
        tracer = Tracer()
        traced = tracer.wrap("calibrate.noop", _noop)
        t0 = clock()
        for _ in range(calls):
            _noop(tracer, calls)
        plain = (clock() - t0) / calls
        t0 = clock()
        for _ in range(calls):
            traced(tracer, calls)
        cost = (clock() - t0) / calls - plain
        durations = np.frombuffer(tracer.end, dtype=np.int64) - np.frombuffer(tracer.start, dtype=np.int64)
        inside = max(0.0, float(np.median(durations)) - plain)
        shares.append(min(1.0, inside / cost) if cost > 0 else 1.0)
    return statistics.median(shares)


def layer_metrics(tracer: Tracer, counted_units: int, timed_units: int, tokens: int,
                  span_in: float, span_out: float) -> Dict[str, float]:
    """Per-layer metrics from the spans.

    Counts come from the spans of units 0 .. counted_units-1 (one pass over
    the pool), so they repeat exactly for a seed; self times come from all
    `timed_units` traced units.  A span's self time is its duration less its
    children's durations and the tracing cost inside it and outside each child.
    """
    cols = tracer.columns()
    name, parent, unit = cols["name"], cols["parent"], cols["unit"]
    duration = (cols["end_ns"] - cols["start_ns"]).astype(np.float64)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(name))
    children = np.bincount(parent[has_parent], minlength=len(name))
    self_ns = duration - child_time - span_in - children * span_out

    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in tracer.names] or [0])[name]
    counted = unit < counted_units
    out: Dict[str, float] = {}
    for index, layer in enumerate(LAYERS):
        in_layer = layer_of == index
        out[f"{layer}.calls_per_op"] = int(np.count_nonzero(in_layer & counted)) / counted_units
        out[f"{layer}.raised_per_op"] = int(np.count_nonzero(cols["raised"][in_layer & counted])) / counted_units
        out[f"{layer}.self_us_per_op"] = float(self_ns[in_layer].sum()) / timed_units / 1e3

    def calls(span_name: str) -> int:
        nid = tracer.names.index(span_name) if span_name in tracer.names else -1
        return int(np.count_nonzero(counted & (name == nid)))

    for type_name in VALIDATED_TYPES:
        out[f"{type_name.split('.')[1]}.validated_per_op"] = calls(type_name) / counted_units
    out["lattice.lmul_per_token"] = calls("lattice.lmul") / tokens if tokens else 0.0
    out["grid.computed_bytes_per_op"] = int(cols["bytes"][counted].sum()) / counted_units
    return out
