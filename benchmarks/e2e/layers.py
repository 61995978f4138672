"""The traced pass: driver-side spans plus a cProfile roll-up by layer.

Layers are this repo's packages. Two more buckets exist: ``numpy`` (NumPy's
Python files and its C entry points) and ``other`` (``repro.faults``,
``repro.workloads``, ``repro.bench``, the top-level ``repro`` modules, the
stdlib and this benchmark's own frames). A C builtin that is not NumPy's
(``dict.get``, ``heapq.heappush`` ...) and generated code (a dataclass
``__init__``) are charged to the layer of the function that called them, so
that a layer's self time is the time spent inside it and not inside the
interpreter's helpers on its behalf.
"""

from __future__ import annotations

import cProfile
import time
from contextlib import contextmanager

PACKAGES = ("sim", "flash", "storage", "engine", "smart", "host", "sql",
            "model", "sched", "serve", "runtime", "writepath", "obs")
LAYERS = PACKAGES + ("numpy", "other")


def _label(code) -> tuple[str, int, str]:
    """``(filename, line, name)`` of a profiler entry's code."""
    if isinstance(code, str):
        return ("~", 0, code)               # a C builtin, by its repr
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _is_helper(func) -> bool:
    """C builtins and generated code (dataclass ``__init__``) belong to
    whoever called them; NumPy's C entry points are a layer of their own."""
    return func[0] in ("~", "<string>") and "numpy" not in func[2]


def layer_of(func) -> str:
    """Layer of one ``(filename, line, name)`` that is not a helper."""
    filename, _, name = func
    if filename == "~":
        return "numpy" if "numpy" in name else "other"
    filename = filename.replace("\\", "/")
    if "/repro/" in filename:
        package = filename.rsplit("/repro/", 1)[1].split("/", 1)[0]
        return package if package in PACKAGES else "other"
    if "/numpy/" in filename:
        return "numpy"
    return "other"


def roll_up(entries) -> tuple[dict, dict]:
    """``cProfile.Profile.getstats()`` -> ``{layer: {"self_s", "calls"}}``.

    Also returns ``calls_by_name``: ``(package, function name)`` -> exact
    call count, for the counters that no public surface exposes. The raw
    entries are used, not ``Profile.stats``: that dict is keyed by
    ``(file, line, name)`` and silently drops all but one of the functions
    that share a key, as every dataclass ``__init__`` does.
    """
    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    calls_by_name: dict[tuple[str, str], int] = {}

    def charge(layer: str, seconds: float, calls: int) -> None:
        layers[layer]["self_s"] += seconds
        layers[layer]["calls"] += calls

    for entry in entries:
        func = _label(entry.code)
        helper = _is_helper(func)
        own = "other" if helper else layer_of(func)
        seconds, calls = entry.inlinetime, entry.callcount
        for sub in entry.calls or ():
            # A helper's time goes to the layer that called it.
            if _is_helper(_label(sub.code)):
                charge(own, sub.inlinetime, sub.callcount)
        if helper:
            # Already charged to its callers through their edges; only
            # calls made from outside any profiled frame remain.
            continue
        charge(own, seconds, calls)
        if own in PACKAGES:
            key = (own, func[2])
            calls_by_name[key] = calls_by_name.get(key, 0) + calls
    return layers, calls_by_name


class Spans:
    """In-memory span recorder for the driver's front-door calls.

    A span is ``name, start, end, parent, op``: ``parent`` is the index of
    the enclosing span (None at the root) and ``op`` ties the spans of one
    operation together. Nothing is written until the run ends.
    """

    def __init__(self):
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op=None):
        index = len(self.records)
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "op": op}
        self.records.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def self_seconds(self) -> dict[str, float]:
        """Per span name: duration minus the part child spans cover."""
        children = [0.0] * len(self.records)
        for record in self.records:
            if record["parent"] is not None:
                children[record["parent"]] += record["end"] - record["start"]
        totals: dict[str, float] = {}
        for record, covered in zip(self.records, children):
            own = record["end"] - record["start"] - covered
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals


def profile_call(fn):
    """Run ``fn()`` under cProfile; returns ``(result, wall_s, entries)``."""
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall = time.perf_counter() - start
    return result, wall, profiler.getstats()
