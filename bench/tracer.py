"""Span tracing installed from outside the program.

The benchmark times calls into each regsum module by replacing public
functions and methods with timing wrappers at run time; nothing under
``src/`` is edited.  Spans are kept in memory as parallel arrays of
(name, start, end, parent, op id) and written out once, at the end.

A call made while a span of the same name is already innermost is folded
into that span (``Polynomial.__sub__`` calling ``__add__`` is one arith
call), so ``calls`` counts entries into a layer operation and self time is
never split between a span and its own re-entry.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from typing import Callable, Optional

import paths  # noqa: F401  (puts the checkout's src/ on sys.path)
from regsum import algebra, cli, operators, power_series, regularize, summation

# Observer signature: (tracer, args, result, exc) -> None; result is None
# when the call raised.
Observer = Callable[["Tracer", tuple, object, Optional[BaseException]], None]


def _observe_terms(tr: "Tracer", args, result, exc) -> None:
    if exc is None:
        tr.count("summation.terms.count", len(result))


def _observe_cesaro_auto(tr: "Tracer", args, result, exc) -> None:
    # cesaro_auto stops at the first converged order; otherwise it has
    # tried every order up to its cap.
    if exc is None:
        cap = result.method_used.k_max
        tried = result.order_used + 1 if result.converged else cap + 1
        _count_cesaro(tr, result, tried)


def _observe_cesaro_limit(tr: "Tracer", args, result, exc) -> None:
    if exc is None:
        _count_cesaro(tr, result, 1)


def _count_cesaro(tr: "Tracer", result, tried: int) -> None:
    tr.count("summation.cesaro.terms_used", result.terms_used)
    tr.count("summation.cesaro.orders_tried", tried)
    tr.count("summation.cesaro.converged", int(result.converged))


def _observe_abel(tr: "Tracer", args, result, exc) -> None:
    if exc is None:
        tr.count("summation.abel.terms_used", result.terms_used)
        tr.count("summation.abel.converged", int(result.converged))


def _observe_reg_derivatives(tr: "Tracer", args, result, exc) -> None:
    if exc is not None:
        if isinstance(exc, regularize.NotRegularError):
            tr.count("regularize.not_regular", 1)
        return
    exact = sum(1 for p in result.provenance if p == regularize.PROV_EXACT)
    tr.count("regularize.legs.exact", exact)
    tr.count("regularize.legs.numeric", len(result.provenance) - exact)


# (span name, owner, attribute names, observer).  A class owner has its
# attributes replaced; a module owner has the function replaced in every
# regsum module that imported it, so calls between modules are seen too.
TRACE_POINTS = [
    ("algebra.eval", algebra.Polynomial, ("__call__",), None),
    ("algebra.derivative", algebra.Polynomial, ("derivative",), None),
    ("algebra.arith", algebra.Polynomial,
     ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__"), None),
    ("algebra.translate", algebra.Polynomial, ("translate",), None),
    ("algebra.parse", algebra, ("parse_polynomial",), None),
    ("power_series.mul", power_series.PowerSeries, ("__mul__", "__rmul__"), None),
    ("power_series.inverse", power_series.PowerSeries, ("inverse",), None),
    ("operators.apply", operators.OperatorSpec, ("apply",), None),
    ("operators.remainder", operators.OperatorSpec, ("remainder",), None),
    ("operators.construct", operators,
     ("op_shift", "op_delta", "op_diff", "parse_operator"), None),
    ("summation.terms", summation.SeriesSpec, ("terms",), _observe_terms),
    ("summation.cesaro", summation, ("cesaro_auto",), _observe_cesaro_auto),
    ("summation.cesaro", summation, ("cesaro_limit",), _observe_cesaro_limit),
    ("summation.abel", summation, ("abel_limit",), _observe_abel),
    ("regularize.reg_sum", regularize, ("reg_sum",), None),
    ("regularize.reg_operator", regularize, ("reg_operator",), None),
    ("regularize.reg_derivatives", regularize, ("reg_derivatives",),
     _observe_reg_derivatives),
    ("regularize.euler_alt_sum", regularize, ("euler_alt_sum",), None),
    ("regularize.euler_numbers", regularize, ("euler_numbers",), None),
    ("cli.main", cli, ("main",), None),
]

SPAN_NAMES = list(dict.fromkeys(name for name, _, _, _ in TRACE_POINTS))

COUNTERS = [
    "summation.terms.count",
    "summation.cesaro.terms_used",
    "summation.cesaro.orders_tried",
    "summation.cesaro.converged",
    "summation.abel.terms_used",
    "summation.abel.converged",
    "regularize.legs.exact",
    "regularize.legs.numeric",
    "regularize.not_regular",
]


class Tracer:
    """In-memory span recorder with install/uninstall of the trace points."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.op_id = -1
        self._stack = [-1]
        self._plan: list[tuple[object, str, object, Callable]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable, observe: Optional[Observer] = None) -> Callable:
        """Return ``fn`` wrapped so each outermost call records one span."""
        nid = self.name_id(name)
        stack = self._stack
        ids, parents, ops = self.name_ids, self.parent, self.op
        starts, ends = self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and ids[top] == nid:
                return fn(*args, **kwargs)
            idx = len(starts)
            ids.append(nid)
            parents.append(top)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                if observe is not None:
                    observe(self, args, result, exc)

        return traced

    def install(self) -> None:
        """Replace every trace point; ``uninstall`` restores the originals.

        The replacements are worked out on the first call, while the
        originals are in place, so later calls are a few setattr each.
        """
        if not self._plan:
            self._plan = self._replacements()
        for owner, attr, _, wrapped in self._plan:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._plan):
            setattr(owner, attr, original)

    def _replacements(self) -> list[tuple[object, str, object, Callable]]:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "regsum" or key.startswith("regsum."))]
        plan = []
        for name, owner, attrs, observe in TRACE_POINTS:
            for attr in attrs:
                original = getattr(owner, attr)
                wrapped = self.wrap(name, original, observe)
                if isinstance(owner, type):
                    plan.append((owner, attr, original, wrapped))
                    continue
                for mod in modules:
                    plan += [(mod, key, original, wrapped)
                             for key, value in vars(mod).items() if value is original]
        return plan

    def absorb(self, path, op_id: int) -> float:
        """Append the spans a traced child process wrote with ``write``, under
        the given op id; returns the total duration of the child's root spans."""
        offset = len(self.start)
        root = 0.0
        with open(path, encoding="utf-8") as fh:
            for name, amount in json.loads(fh.readline())["counters"].items():
                self.count(name, amount)
            for line in fh:
                name, start, end, parent, _ = json.loads(line)
                self.name_ids.append(self.name_id(name))
                self.parent.append(parent + offset if parent >= 0 else -1)
                self.op.append(op_id)
                self.start.append(start)
                self.end.append(end)
                if parent < 0:
                    root += end - start
        return root

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds)."""
        return self_times([self.names[i] for i in self.name_ids], self.parent,
                          self.start, self.end)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: a header, then one list per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                 "counters": self.counters}) + "\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f'["{names[self.name_ids[i]]}", {self.start[i]!r}, {self.end[i]!r}, '
                         f"{self.parent[i]}, {self.op[i]}]\n")


def self_times(names, parents, starts, ends) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self seconds).

    Span i has name ``names[i]`` and runs from ``starts[i]`` to ``ends[i]``;
    ``parents[i]`` is the index of the span that caused it, or -1.  A span's
    self time is its duration minus the durations of its direct children.
    """
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    for i, name in enumerate(names):
        duration = ends[i] - starts[i]
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + duration
        parent = parents[i]
        if parent >= 0:
            pname = names[parent]
            own[pname] = own.get(pname, 0.0) - duration
    return {name: (calls[name], own[name]) for name in calls}
