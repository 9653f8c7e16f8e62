"""Outside-in tracing: wrap public layer functions, record spans in memory.

A span is (name, start, end, parent span, ok) and belongs to one run id.  The
tracer changes no source file: ``install`` rebinds every module attribute of
the ``ait`` package that holds a wrapped function object, because callers
import these functions by name (``from .machine import search_programs``).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

# what counts as a useful outcome, per function; by default a call that
# returns without raising is useful
OK_PREDICATES: dict[str, Callable] = {
    "machine.search_programs": lambda records: len(records) > 0,
    "complexity.k_t": lambda value: value.is_finite,
}


class Tracer:
    """Collects spans for one run; each span is a list
    ``[name, start, end, parent_index, ok]`` with times from perf_counter."""

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, ok: Optional[Callable] = None) -> Callable:
        spans, open_, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_[-1] if open_ else None, False]
            spans.append(span)
            open_.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            span[4] = ok(result) if ok else True
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for index, (name, start, end, parent, ok) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": index, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "ok": ok}, separators=(",", ":")) + "\n")


def install(tracer: Tracer, qualnames, package: str = "ait") -> Callable[[], None]:
    """Wrap ``<module>.<function>`` for each qualname under ``package`` and
    rebind every attribute of the package's loaded modules that holds the
    original.  Returns a function that restores the originals."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    undo = []
    for qualname in qualnames:
        module_name, func_name = qualname.rsplit(".", 1)
        original = getattr(sys.modules[f"{package}.{module_name}"], func_name)
        traced = tracer.wrap(qualname, original, OK_PREDICATES.get(qualname))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)
                    undo.append((module, attr, original))

    def restore():
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)

    return restore


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, ok, total_s and self_s (duration minus the time its
    child spans cover), plus ``children``, the count of direct child spans keyed
    ``"<parent name> > <child name>"``, and ``top_s``, the time top-level spans
    cover."""
    kids: dict[int, list[tuple[float, float]]] = defaultdict(list)
    top = []
    for name, start, end, parent, _ok in spans:
        (top if parent is None else kids[parent]).append((start, end))
    stats: dict[str, dict] = {}
    children: dict[str, int] = defaultdict(int)
    for index, (name, start, end, parent, ok) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "ok": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["ok"] += bool(ok)
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - _covered(kids.get(index, []))
        if parent is not None:
            children[f"{spans[parent][0]} > {name}"] += 1
    return {"functions": stats, "children": dict(children), "top_s": _covered(top)}
