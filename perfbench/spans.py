"""In-memory spans recorded from outside the program, and their reduction.

``Tracer.wrap`` replaces a function or method where callers look it up
(a module global such as ``verdoc.changes.line_diff`` or a class attribute
such as ``VersionGraph.versions_of``) with a wrapper that records one span
per call: name, start, end, parent span and request id. A span opened
while no other span is open starts a new request. ``Tracer.count`` wraps a
hot function with a bare call counter and no span. While ``enabled`` is
false the wrappers call straight through, so the benchmark's own checks
leave no trace. ``Tracer.restore`` puts every original back.

Spans stay in a list until :meth:`Tracer.write`; :func:`self_times`
reduces them to each span's time outside its direct children.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the parent span, -1 for a request's root
    request: int


class Tracer:
    def __init__(self):
        self.enabled = True  # False lets calls through unrecorded
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._requests = 0
        self._patches: list = []

    def wrap(
        self,
        owner,
        attr: str,
        name,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Record a span per call of ``owner.attr``.

        ``name`` is a string or a function of the call's arguments.
        ``before(args, kwargs)`` runs ahead of the call and its result is
        passed to ``after(state, args, kwargs, result)``; both run inside
        the span and may add to :attr:`counts`.
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def record(fn):
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                label = name if isinstance(name, str) else name(args, kwargs)
                parent = stack[-1] if stack else -1
                if parent < 0:
                    self._requests += 1
                    request = self._requests
                else:
                    request = spans[parent].request
                index = len(spans)
                start = clock()
                spans.append(Span(label, start, start, parent, request))
                stack.append(index)
                try:
                    state = before(args, kwargs) if before else None
                    result = fn(*args, **kwargs)
                    if after:
                        after(state, args, kwargs, result)
                    return result
                finally:
                    stack.pop()
                    spans[index] = spans[index]._replace(end_ns=clock())

            return wrapper

        self._install(owner, attr, record)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without recording spans."""
        counts = self.counts

        def record(fn):
            def wrapper(*args, **kwargs):
                if self.enabled:
                    counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        self._install(owner, attr, record)

    def _install(self, owner, attr: str, record) -> None:
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(record(original.__func__))
        else:
            replacement = record(original)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Drop recorded spans and counters; wrappers stay installed."""
        if self._stack:
            raise RuntimeError("cannot reset while spans are open")
        self.spans.clear()
        self.counts.clear()
        self._requests = 0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **span._asdict()}) + "\n")


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children, in ns."""
    own = [span.end_ns - span.start_ns for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end_ns - span.start_ns
    return own


def totals(spans: list) -> dict:
    """Per span name: calls, inclusive ns and self ns.

    A call nested inside a span of the same name adds to the calls and
    the self time but not again to the inclusive time.
    """
    own = self_times(spans)
    out: dict = {}
    for index, span in enumerate(spans):
        entry = out.setdefault(span.name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["self_ns"] += own[index]
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent < 0:
            entry["total_ns"] += span.end_ns - span.start_ns
    return out
