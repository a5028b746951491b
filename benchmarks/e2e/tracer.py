"""Spans recorded from outside the program.

The benchmark wraps the entry points of each layer on the objects and
module names it holds itself; nothing under ``src/`` is edited. A span
is ``[name, start, end, parent span, trace id, thread]``; spans stay in
memory until the run ends. A layer's *self* time is its spans' duration
minus the part their direct children cover.
"""

import collections
import json
import threading
import time

_ABSENT = object()


class Tracer:
    def __init__(self):
        self.spans = []
        #: what the ``measure`` hooks of :meth:`wrap` accumulated
        self.counts = collections.Counter()
        #: index of the submit the client loop has in flight
        self.trace_id = None
        self._local = threading.local()
        self._wrapped = []

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, owner, attribute, name, trace_of=None, measure=None):
        """Replace ``owner.attribute`` (module function, class method or
        bound method of one instance) by a version that records a span.

        ``trace_of(args)`` names the submit a call belongs to when the
        calling thread cannot know it (the registrar thread applies
        records long after their submit returned); it may return any
        object, resolved to a submit index by :meth:`resolve_traces`.
        ``measure(counts, args, result)`` runs after the span closed.
        """
        original = getattr(owner, attribute)
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter
        thread_of = threading.get_ident

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            if trace_of is not None:
                trace = trace_of(args)
            elif parent is not None:
                trace = parent[4]
            else:
                trace = self.trace_id
            span = [name, 0.0, 0.0, parent, trace, thread_of()]
            spans.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                measure(self.counts, args, result)
            return result

        self._wrapped.append(
            (owner, attribute, vars(owner).get(attribute, _ABSENT)))
        setattr(owner, attribute, traced)

    def unwrap_all(self):
        for owner, attribute, previous in reversed(self._wrapped):
            if previous is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)
        self._wrapped = []

    def resolve_traces(self, index_of):
        """Map trace ids that are objects (see :meth:`wrap`) to submit
        indexes through ``index_of`` (a dict keyed by ``id(object)``)."""
        for span in self.spans:
            if span[4] is not None and not isinstance(span[4], int):
                span[4] = index_of.get(id(span[4]))

    # Reading ---------------------------------------------------------------

    def totals(self):
        """Per span name: ``{"self": s, "count": n, "durations": [...]}``."""
        covered = {}
        for span in self.spans:
            if span[3] is not None:
                key = id(span[3])
                covered[key] = covered.get(key, 0.0) + span[2] - span[1]
        totals = {}
        for span in self.spans:
            duration = span[2] - span[1]
            entry = totals.setdefault(
                span[0], {"self": 0.0, "count": 0, "durations": []})
            entry["self"] += duration - covered.get(id(span), 0.0)
            entry["count"] += 1
            entry["durations"].append(duration)
        return totals

    def root_time(self, thread, start, end):
        """Seconds of [start, end] that root spans of ``thread`` cover."""
        return sum(min(span[2], end) - max(span[1], start)
                   for span in self.spans
                   if span[3] is None and span[5] == thread
                   and span[2] > start and span[1] < end)

    def write(self, path):
        ids = {id(span): number for number, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for number, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": number, "name": span[0], "start": span[1],
                    "end": span[2],
                    "parent": None if span[3] is None else ids[id(span[3])],
                    "trace": span[4], "thread": span[5]}) + "\n")
