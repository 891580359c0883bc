"""Span tracing of a package's public functions, installed from outside.

``Tracer`` wraps every plain function named in ``package.__all__`` in every
``package.*`` module namespace that binds it, so calls between the package's
own modules are traced as well as calls from the benchmark.  A span is
``[name, start, end, parent, unit]``; a unit is one traced request or probe,
and its root span (parent -1) covers it whole.  Spans are kept in memory and
written out by the caller.  Classes in ``__all__`` are left alone: wrapping
them would break ``isinstance`` checks inside the package.

Only calls made on the thread that created the tracer, while a unit is open,
are recorded; every other call passes straight through.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import threading
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self, package):
        self.spans: list[list] = []
        self.units: list[dict] = []
        self._prefix = package.__name__
        self._functions = [
            fn for fn in (getattr(package, name) for name in package.__all__)
            if inspect.isfunction(fn)
        ]
        self._thread = threading.get_ident()
        self._stack: list[int] = []
        self._unit: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._unit is None or threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, self._stack[-1], self._unit]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        """Replace every binding of a traced function by its wrapper."""
        if self._patches:
            return
        wrappers = {id(fn): (fn, self._wrap(fn)) for fn in self._functions}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != self._prefix and not mod_name.startswith(self._prefix + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        """Restore every binding that ``install`` replaced."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def unit(self, kind: str, label: str = ""):
        """Open one traced unit; its root span is named after ``kind``."""
        uid = len(self.units)
        self.units.append({"kind": kind, "label": label})
        root = [kind, perf_counter(), 0.0, -1, uid]
        self._stack = [len(self.spans)]
        self.spans.append(root)
        self._unit = uid
        try:
            yield uid
        finally:
            root[2] = perf_counter()
            self._unit = None
            self._stack = []

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"units": self.units, "spans": self.spans}))


def summarize(tracer: Tracer) -> list[dict]:
    """Per-unit totals: wall, root self time, and per span name its calls,
    covered time (union of its spans) and self time (minus child spans)."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    units = [
        {**u, "wall": 0.0, "self": 0.0, "names": {}, "_intervals": {}}
        for u in tracer.units
    ]
    for idx, (name, start, end, parent, uid) in enumerate(spans):
        unit = units[uid]
        self_time = end - start - child_time[idx]
        if parent < 0:
            unit["wall"], unit["self"] = end - start, self_time
            continue
        entry = unit["names"].setdefault(name, {"calls": 0, "time": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["self"] += self_time
        unit["_intervals"].setdefault(name, []).append((start, end))
    for unit in units:
        for name, intervals in unit.pop("_intervals").items():
            unit["names"][name]["time"] = _covered(intervals)
    return units


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total
