"""In-memory span recorder and the wrappers that put it around package calls.

Spans are recorded from the benchmark's side of each call: public package
functions and ``PipelineRun`` methods are replaced by thin wrappers for the
duration of a traced run, then restored. A span is (name, start, end,
parent, peak RSS at its end); a layer's self time is its duration minus that
of its direct children. Nothing here runs unless a traced worker asks.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import resource
import sys
import time
from collections import defaultdict

import numpy as np


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "rss_mb": None})
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        span["rss_mb"] = peak_rss_mb()
        self._stack.pop()

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` inside a span; ``on_return(bound_arguments, result)`` records
        counts after the span closes, so counting costs no layer time."""
        signature = inspect.signature(fn) if on_return else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_return is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(bound.arguments, result)
            return result

        return wrapper


class Patches:
    """Replaces callables with traced wrappers and restores them on exit.

    A module-level function is replaced under every ``gridimpact`` module
    attribute bound to it, which covers ``from .x import f`` re-exports.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module, attr: str, name: str, on_return=None) -> None:
        original = getattr(module, attr)
        wrapper = self.tracer.wrap(name, original, on_return)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gridimpact" or mod_name.startswith("gridimpact.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def method(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.tracer.wrap(name, original))
        self._undo.append((cls, attr, original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


def count_kernel_call(counts: dict, arguments: dict, result) -> None:
    """Work counts of one ``solve_batch`` call.

    ``line_updates`` is row-iterations times lines: each sweep iteration of a
    row visits every line once backward and once forward. Bytes moved are
    computed from array sizes, not measured: per row-iteration the sweep
    streams the complex128 arrays s (read), v (read and write), the current
    accumulator (write and read), i_line (write and read) and z (read), i.e.
    16 * (5 * buses + 3 * lines) bytes. Cache effects are ignored.
    """
    s = np.asarray(arguments["s"])
    buses = s.shape[1]
    lines = len(arguments["parent"])
    iterations = int(np.sum(result[2]))
    counts["kernel_calls"] += 1
    counts["kernel_rows"] += int(s.shape[0])
    counts["kernel_iterations"] += iterations
    counts["kernel_line_updates"] += iterations * lines
    counts["kernel_bytes_moved_computed"] += iterations * 16 * (5 * buses + 3 * lines)


def distinct_rows(matrix: np.ndarray) -> int:
    """Distinct rows by their bytes (``np.unique(axis=0)`` is far slower)."""
    matrix = np.ascontiguousarray(matrix)
    return len({row.tobytes() for row in matrix})


def qsts_input_rows(arguments: dict) -> tuple[int, int]:
    """(steps, distinct load rows) of one ``run_qsts`` call, from its inputs:
    every shaped load's profile sample per step; unshaped loads are constant."""
    shapes = arguments["shapes"]
    steps = arguments["steps"]
    if steps is None:
        steps = max(p.values_kw.shape[0] for p in shapes.values())
    if not shapes:
        return steps, 1
    t = np.arange(steps)
    columns = [shapes[k].values_kw[t % shapes[k].values_kw.shape[0]] for k in sorted(shapes)]
    return steps, distinct_rows(np.column_stack(columns))


def inclusive_s(spans: list[dict], name: str) -> float:
    """Summed duration of ``name`` spans not nested in another ``name`` span."""
    total = 0.0
    for span in spans:
        if span["name"] != name:
            continue
        parent = span["parent"]
        while parent >= 0 and spans[parent]["name"] != name:
            parent = spans[parent]["parent"]
        if parent < 0:
            total += span["end"] - span["start"]
    return total


def self_s(spans: list[dict], name: str) -> float:
    """Summed self time of ``name`` spans: duration minus direct children."""
    total = 0.0
    for i, span in enumerate(spans):
        if span["name"] == name:
            total += span["end"] - span["start"]
            total -= sum(c["end"] - c["start"] for c in spans if c["parent"] == i)
    return total


def same(a, b) -> bool:
    """Bitwise equality of results: arrays by dtype, shape and bytes;
    dataclasses field by field; sequences element by element."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return (isinstance(b, (tuple, list)) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    if isinstance(a, float) and isinstance(b, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b
