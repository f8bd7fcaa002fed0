"""In-memory span recorder that times the flagsphere layers from outside.

A span is (name, start, end, parent index). Spans are recorded by wrapping
public functions at the module attribute where their callers look them up,
so `src/` is never edited. The span name's prefix before the first dot is
the layer the time is charged to.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

NAME, START, END, PARENT = range(4)


class Tracer:
    """Records nested spans; install() patches call sites, restore() undoes it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self, sites) -> None:
        """Wrap each (module name, attribute, span name) call site."""
        for module_name, attr, span_name in sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, span_name))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                    "spans": self.spans}) + "\n", encoding="utf-8")


def children_of(spans) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            kids[s[PARENT]].append(i)
    return kids


def self_times(spans) -> list[float]:
    """Each span's duration minus its children's.

    Spans come from nested calls in one thread, so each child lies inside its
    parent and siblings do not overlap.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def nesting_errors(spans) -> list[str]:
    """Spans that end before they start or stick out of their parent.

    When there are none, the self times of a root span's tree add up to the
    root's duration.
    """
    out = []
    for i, s in enumerate(spans):
        parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
        if s[END] < s[START] or (
            parent is not None and not parent[START] <= s[START] <= s[END] <= parent[END]
        ):
            out.append(f"span {i} ({s[NAME]}) is not nested in its parent")
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def log_log_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two points")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    sxx = sum((x - mx) ** 2 for x in lx)
    if sxx == 0:
        raise ValueError("x values must not all be equal")
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sxx
