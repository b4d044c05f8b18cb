"""Span and counter recording for the traced benchmark run.

A ``Tracer`` hands out wrappers. A span wrapper records, for every call,
the request id, the span name, start and end (``perf_counter_ns``) and
the index of the enclosing span, in flat ``array`` columns so that a run
with a million spans stays small. Spans stay in memory until
``summary()`` folds them into per-name call counts, total time and self
time (a span's duration minus the durations of its direct children).
A counter wrapper only tallies calls (or a size taken from each result),
for functions too hot to time.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.request = 0            # id shared by the spans of one query or insert
        self._names = []
        self._name_ids = {}
        self._req = array("q")
        self._name = array("q")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._stack = []
        self._counts = {}           # name -> one-element list, bumped in place

    def new_request(self):
        self.request += 1

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def span(self, name, fn):
        """Wrap ``fn`` so that each call records one span named ``name``."""
        nid = self._name_id(name)
        req, names, start, end, parent = (
            self._req, self._name, self._start, self._end, self._parent)
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            i = len(start)
            req.append(tracer.request)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def counter(self, name, fn, measure=None):
        """Wrap ``fn`` so that calls are tallied under ``name``: one per
        call, or ``measure(result)`` when given (say ``len``)."""
        tally = self._counts.setdefault(name, [0])
        if measure is None:
            def counted(*args):
                tally[0] += 1
                return fn(*args)
            return counted

        def measured(*args):
            out = fn(*args)
            tally[0] += measure(out)
            return out
        return measured

    def add(self, name, n):
        self._counts.setdefault(name, [0])[0] += n

    def peak(self, name, value):
        tally = self._counts.setdefault(name, [0])
        if value > tally[0]:
            tally[0] = value

    def count(self, name):
        return self._counts.get(name, [0])[0]

    def span_count(self):
        return len(self._start)

    def summary(self):
        """Returns {name: (calls, total_ns, self_ns)} over every span."""
        n = len(self._start)
        dur = [e - s for s, e in zip(self._start, self._end)]
        child = [0] * n
        for i, p in enumerate(self._parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: [0, 0, 0] for name in self._names}
        for i in range(n):
            row = out[self._names[self._name[i]]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return {name: tuple(row) for name, row in out.items()}


@contextmanager
def patched(replacements):
    """Temporarily set attributes: ``replacements`` is a list of
    (object, attribute name, new value); the old values come back on exit."""
    saved = []
    try:
        for obj, attr, value in replacements:
            saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)
