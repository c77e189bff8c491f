"""In-memory spans and call counts around knotcode's public functions.

Spans are recorded at the names callers look up (module attributes),
since the modules import each other by name.  A listed name that no
longer exists is reported as absent instead of raising, so the tracer
survives refactors that delete or move functions.
"""

from __future__ import annotations

import functools
import importlib
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [layer, start, end, parent index or -1]
        self.counts = {}
        self.maxima = {}
        self.absent = []
        self._stack = []
        self._restore = []

    # -- recording --------------------------------------------------------------

    def begin(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int):
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def add(self, counter: str, amount=1):
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def high(self, name: str, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    # -- installing ---------------------------------------------------------------

    def _lookup(self, module: str, attr: str):
        try:
            owner = importlib.import_module(module)
        except ImportError:
            owner = None
        cls, _, name = attr.rpartition(".")
        if owner is not None and cls:
            owner = getattr(owner, cls, None)
        fn = getattr(owner, name, None) if owner is not None else None
        if fn is None:
            self.absent.append(f"{module}.{attr}")
        return owner, name, fn

    def span(self, module: str, attr: str, layer, observe=None):
        """Record a span around module.attr.  layer is a name or a function
        of the call's arguments; observe(tracer, args, result) adds counts."""
        owner, name, fn = self._lookup(module, attr)
        if fn is None:
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(layer(args) if callable(layer) else layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if observe is not None:
                observe(self, args, result)
            return result

        self._install(owner, name, fn, traced)

    def count(self, module: str, attr: str, counter: str):
        """Count calls of module.attr (a function or a Class.method)."""
        owner, name, fn = self._lookup(module, attr)
        if fn is None:
            return
        counts = self.counts
        counts.setdefault(counter, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        self._install(owner, name, fn, counted)

    def _install(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- reading --------------------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds per layer: each span's duration minus the time its child
        spans cover (children of one parent never overlap: one thread)."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (layer, start, end, _), inner in zip(self.spans, child):
            out[layer] = out.get(layer, 0.0) + (end - start) - inner
        return out

    def total_times(self) -> dict:
        """Seconds per layer, children included (for layers that never nest
        inside themselves)."""
        out = {}
        for layer, start, end, _ in self.spans:
            out[layer] = out.get(layer, 0.0) + end - start
        return out

    def calls(self) -> dict:
        out = {}
        for layer, *_ in self.spans:
            out[layer] = out.get(layer, 0) + 1
        return out
