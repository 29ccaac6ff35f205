"""Spans around the benchmark's calls into ficat, and per-module profiles.

A Tracer records one span per `with tracer.span(name)` block: its name,
start, end and the span that was open when it began.  Spans are kept in
memory and written out when the worker ends.  The null tracer used with
tracing off does nothing, so untraced timings carry no tracing cost.

profile_by_module folds a cProfile run into per-module self time and
per-function call counts for the modules of src/ficat.
"""

import os
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def totals(self):
        """{name: seconds} summed over the spans of each name."""
        out = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + end - start
        return out

    def records(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
        ]


class NullTracer:
    @contextmanager
    def span(self, name):
        yield


def profile_by_module(profile, package_dir):
    """Self time per ficat module and call counts per function.

    Returns (self_s, calls): self_s maps a module name ("rings", ...) to
    the seconds spent in its own code; calls maps "module.qualname" to the
    number of calls.  Functions outside package_dir are ignored.
    """
    import pstats

    stats = pstats.Stats(profile).stats
    package_dir = os.path.realpath(package_dir)
    self_s = {}
    calls = {}
    for (filename, _line, func), (_cc, nc, tt, _ct, _callers) in stats.items():
        path = os.path.realpath(filename)
        if os.path.dirname(path) != package_dir:
            continue
        module = os.path.splitext(os.path.basename(path))[0]
        self_s[module] = self_s.get(module, 0.0) + tt
        key = "%s.%s" % (module, func)
        calls[key] = calls.get(key, 0) + nc
    return self_s, calls
