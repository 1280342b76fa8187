"""Outside-in layer tracing for the benchmark.

The program has no tracing of its own, so the tracer wraps every public
function found in any namespace of the package: modules import each other's
functions by name (``from .seller import adoption_set``), and a wrapper on
the defining module alone would miss those calls.  A function's layer is the
module that defines it.  A wrapper counts every call, and opens a span only
when the layer that calls it differs from its own.  Spans stay in memory;
the benchmark writes them out at the end.

The wrappers cost time on every call, so traced layer times are shares of a
traced run.  They never stand in for the untraced end-to-end times.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent")

    def __init__(self, name, layer, start, parent):
        self.name, self.layer, self.start, self.parent = name, layer, start, parent
        self.end = start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and call counts for one traced call into the package.

    ``timed`` names functions (as ``layer.function``) whose inclusive time is
    summed even when they are called from their own layer and open no span.
    """

    def __init__(self, package: str, timed=(), clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.timed = frozenset(timed)
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.inclusive: Counter = Counter()
        self._stack: list[Span] = []

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        timed = name in self.timed
        calls, inclusive, stack, spans, clock = (self.calls, self.inclusive,
                                                 self._stack, self.spans, self.clock)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            if stack and stack[-1].layer == layer:
                if not timed:
                    return fn(*args, **kwargs)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    inclusive[name] += clock() - start
            span = Span(name, layer, clock(), stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if timed:
                    inclusive[name] += span.duration

        return traced

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if name == self.package or name.startswith(prefix)]

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package's public functions in every package namespace for
        the duration of the block, then put the originals back."""
        prefix = self.package + "."
        wrappers = {}
        patched = []
        try:
            for module in self._modules():
                for attr, value in list(vars(module).items()):
                    if attr.startswith("_") or not inspect.isfunction(value):
                        continue
                    origin = value.__module__ or ""
                    if origin != self.package and not origin.startswith(prefix):
                        continue
                    if value not in wrappers:
                        wrappers[value] = self._wrap(value, origin.rsplit(".", 1)[-1])
                    setattr(module, attr, wrappers[value])
                    patched.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None]

    def self_times(self) -> Counter:
        """Seconds per layer: each span's duration minus its children's."""
        child = Counter()
        for s in self.spans:
            if s.parent is not None:
                child[id(s.parent)] += s.duration
        out = Counter()
        for s in self.spans:
            out[s.layer] += s.duration - child[id(s)]
        return out

    def span_records(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": None if s.parent is None else index[id(s.parent)]}
                for s in self.spans]
