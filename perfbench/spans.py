"""Span tracing from outside the library, for the traced benchmark run.

A :class:`Tracer` wraps chosen fidpoint functions by rebinding their
names in the namespace of the module that calls them (for example
``fidpoint.scan.scan_roi``, which ``detect_region`` looks up at call
time) and restores every binding on exit.  Each wrapped call records a
span (name, start, end, parent, operation index) in memory; count hooks
run after the span has closed, so their cost lands in the tracing
overhead and not in the layer's time.  Functions marked ``peak`` also
record the largest rise in ``tracemalloc``'s traced memory during one
call, which is only meaningful while ``tracemalloc`` is tracing.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: int  # perf_counter_ns
    end: int
    op: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def call(self, name: str, fn, args, kwargs, peak: bool = False):
        sid = len(self.spans)
        span = Span(sid, self._stack[-1], name, 0, 0, self.op)
        self.spans.append(span)
        self._stack.append(sid)
        base = 0
        if peak and tracemalloc.is_tracing():
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        span.start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()
            if peak and tracemalloc.is_tracing():
                rise = tracemalloc.get_traced_memory()[1] - base
                self.maximum(f"{name}.peak_mb", rise / 2**20)

    def wrap(self, name: str, fn, after=None, peak: bool = False):
        """``fn`` traced as span ``name``; ``after(args, kwargs, result)`` records counts."""

        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs, peak)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def rebind(self, owner, attr: str, name: str, after=None, peak: bool = False) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`."""
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(name, fn, after, peak))

    def restore(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    @contextmanager
    def root(self, op: int):
        """One benchmark operation, the parent of its layer spans."""
        self.op = op
        span = Span(len(self.spans), -1, "op", time.perf_counter_ns(), 0, op)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter_ns()
            self.op = -1

    # --- analysis -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms and self ms (duration minus direct children)."""
        child_ns = defaultdict(int)
        for s in self.spans:
            if s.parent >= 0:
                child_ns[s.parent] += s.end - s.start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for s in self.spans:
            row = out[s.name]
            row["calls"] += 1
            row["ms"] += (s.end - s.start) / 1e6
            row["self_ms"] += (s.end - s.start - child_ns[s.id]) / 1e6
        return dict(out)

    def coverage(self) -> float:
        """Share of operation wall time inside the operation's direct child spans."""
        roots = {s.id: s.end - s.start for s in self.spans if s.name == "op"}
        covered = sum(s.end - s.start for s in self.spans if s.parent in roots)
        total = sum(roots.values())
        return covered / total if total else 0.0

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
