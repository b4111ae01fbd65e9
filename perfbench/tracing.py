"""In-memory spans and delegating timers the benchmark wraps around layers.

Every timer lives in the benchmark: spans are opened around calls into a
layer's public functions, record sinks are wrapped in timing proxies, and a
few module attributes are swapped for timing wrappers while a traced run
lasts (:func:`patched`).  Nothing under ``src/`` is edited.

A span's *self time* is its duration minus what its children cover.  Calls
too frequent to keep one span each (a sink's per-record ``emit``) are folded
into *aggregates*: one running total per (parent span, name), subtracted
from the parent like a child span.  With every measured phase under a root
span, the layers' self times plus the roots' own self time (``other``) add
up to the wall time exactly.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

perf = time.perf_counter


class _Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.child_s = 0.0


class Tracer:
    """Spans kept in memory, self time accumulated per layer name.

    In-process spans have no request id; the serve workload's per-request
    spans come from the server process, keyed by the request's ``rid``, and
    are written out with these (``extra``).
    """

    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self.self_s = defaultdict(float)
        self.aggregates = defaultdict(lambda: [0.0, 0])
        #: spans other processes recorded, written out with ours.
        self.extra = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        span = _Span(name, perf(), None if parent is None else id(parent))
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = perf()
            self._stack.pop()
            duration = span.end - span.start
            self.self_s[name] += duration - span.child_s
            if parent is not None:
                parent.child_s += duration

    def add(self, name, seconds):
        """Fold one timed call into the aggregate under the open span."""
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += seconds
        self.self_s[name] += seconds
        agg = self.aggregates[(None if parent is None else id(parent), name)]
        agg[0] += seconds
        agg[1] += 1

    def wall_s(self):
        """Summed duration of the root spans: the traced run's wall time."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def timed(self, name, fn):
        """``fn`` wrapped so each call is one span called ``name``."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path):
        """Write every span and aggregate out as JSON (at the end of a run)."""
        ids = {id(span): n for n, span in enumerate(self.spans)}
        payload = {
            "spans": [
                {
                    "id": ids[id(span)],
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": ids.get(span.parent),
                }
                for span in self.spans
            ],
            "aggregates": [
                {"parent": ids.get(parent), "name": name, "seconds": s, "calls": n}
                for (parent, name), (s, n) in self.aggregates.items()
            ],
            "self_s": dict(self.self_s),
            "other_processes": self.extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class NullTracer:
    """The untraced run: spans cost one call and record nothing."""

    enabled = False
    self_s = {}

    @contextmanager
    def span(self, name):
        yield None

    def add(self, name, seconds):
        pass


class TimedSink:
    """Delegating record-sink proxy timing every callback into aggregates.

    ``begin_cell``/``emit``/``emit_serialized`` count as writing the cell
    (``write_name``), ``end_cell`` as committing it (``commit_name``).
    ``emit_serialized`` is only exposed when the wrapped sink has it, so the
    executor takes the same fast or slow path as without the proxy.
    """

    def __init__(self, sink, tracer, write_name, commit_name):
        self._sink = sink
        self._tracer = tracer
        self._write = write_name
        self._commit = commit_name
        fast = getattr(sink, "emit_serialized", None)
        if fast is not None:

            def emit_serialized(fragment, records):
                t0 = perf()
                fast(fragment, records)
                tracer.add(write_name, perf() - t0)

            self.emit_serialized = emit_serialized

    def begin_cell(self, *args, **kwargs):
        t0 = perf()
        self._sink.begin_cell(*args, **kwargs)
        self._tracer.add(self._write, perf() - t0)

    def emit(self, record):
        t0 = perf()
        self._sink.emit(record)
        self._tracer.add(self._write, perf() - t0)

    def end_cell(self, *args, **kwargs):
        t0 = perf()
        self._sink.end_cell(*args, **kwargs)
        self._tracer.add(self._commit, perf() - t0)


@contextmanager
def patched(replacements):
    """Swap ``(module, attribute, value)`` triples in, restoring them after."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in replacements]
    try:
        for module, name, value in replacements:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)

