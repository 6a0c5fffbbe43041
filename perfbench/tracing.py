"""Spans around calls into the qfda modules, recorded from outside the package.

The tracer replaces a function name in the module that looks it up at run
time (``qfda.pso.rate``, ``qfda.experiment.run_pso``, ...) with a wrapper
that records one span per call: name, start, end, parent span and thread.
Spans are kept in memory and read when the run ends.  A span's parent is
the innermost open span of its own thread; a span opened on a thread with
no open span (a swarm pool worker) takes the open ``run_pso`` span instead.
"""

import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str          # "<defining module>.<function>", e.g. "rate.rate"
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.probe_s = 0.0      # time spent in after-call probes, outside spans
        self.lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._worker_parent = None
        self._patched = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, fn, *args, worker_root=False, **kwargs):
        """Call fn inside a span called name and return its result."""
        stack = self._stack()
        parent = stack[-1] if stack else self._worker_parent
        with self.lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append(span_id)
        if worker_root:
            outer_root, self._worker_parent = self._worker_parent, span_id
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if worker_root:
                self._worker_parent = outer_root
            with self.lock:
                self.spans.append(
                    Span(span_id, name, start, end, parent, threading.get_ident()))

    def wrap(self, module, attr: str, probe=None, worker_root=False) -> None:
        """Trace every call that module makes through its global name attr.

        probe(args, result) runs after the span has closed; its time is
        added to probe_s so it can be told apart from tracing overhead.
        """
        original = getattr(module, attr)
        name = f"{original.__module__.rsplit('.', 1)[-1]}.{attr}"

        def traced(*args, **kwargs):
            result = self.span(name, original, *args, worker_root=worker_root, **kwargs)
            if probe is not None:
                start = time.perf_counter()
                probe(args, result)
                with self.lock:
                    self.probe_s += time.perf_counter() - start
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unwrap(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by child spans."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.id, [])]
        out[s.id] = s.duration - _covered([k for k in kids if k[1] > k[0]])
    return out


def misplaced(spans) -> list:
    """Spans that do not lie inside their parent's interval."""
    by_id = {s.id: s for s in spans}
    bad = []
    for s in spans:
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None or s.start < p.start or s.end > p.end:
            bad.append(s)
    return bad
