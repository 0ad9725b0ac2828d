"""Span recorder for the traced run.

Spans are recorded from the benchmark's side: :func:`install` replaces
functions at the names where their callers look them up with wrappers
that time each call. The program itself is not modified. Spans stay in
memory as plain lists and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# Index of each field of a span record.
NAME, START, END, PARENT, OP = range(5)

ROOT_LAYER = "bench"


class Recorder:
    """Collects spans ``[name, start, end, parent index, op id]`` and
    counters. ``op`` is the cell, query or stage id stamped on new spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: str | None = None
        self._stack: list[int] = []

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][NAME]} closed out of order")

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, fn, name, counter=None, op=None):
        """``fn`` with a span around each call. ``name`` is a string or a
        ``(args, kwargs, parent name) -> str`` namer; ``counter(args, kwargs, result,
        parent name)`` returns counter increments, taken after the span
        has ended so that its cost is not charged to the span. ``op``,
        when given, names the operation this call starts; it stamps this
        span and the ones after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if op is not None:
                self.op = op(args, kwargs)
            parent = self.parent_name()
            index = self.begin(name if isinstance(name, str) else name(args, kwargs, parent))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                for key, value in counter(args, kwargs, result, parent).items():
                    self.counts[key] += value
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps([name, start, end, parent, op]) + "\n")


class _Span:
    def __init__(self, recorder: Recorder, name: str):
        self._recorder, self._name = recorder, name

    def __enter__(self):
        self._index = self._recorder.begin(self._name)
        return self

    def __exit__(self, *exc):
        self._recorder.end(self._index)
        return False


def install(recorder: Recorder, points, resolve) -> list:
    """Patch every ``(owner, attribute, name, counter[, op])`` point;
    returns the undo list for :func:`uninstall`."""
    undo = []
    for owner_path, attr, *how in points:
        owner = resolve(owner_path)
        original = getattr(owner, attr)  # a missing name is an error: fix the adapter
        undo.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(original, *how))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START]) - _covered(children[i], span[START], span[END])
        for i, span in enumerate(spans)
    ]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def time_metric(span_name: str) -> str:
    """Metric name for a span's total seconds: ``forest.train.cmf`` ->
    ``forest.train_s.cmf``, ``cli.build-goof`` -> ``cli.build-goof_s``."""
    parts = span_name.split(".")
    parts[1] += "_s"
    return ".".join(parts)
