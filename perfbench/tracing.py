"""Spans and counts recorded around calls into qhlab's public functions.

The tracer replaces a function where its callers look it up: every loaded
``qhlab`` module that binds the function object gets the traced wrapper, and
methods are replaced on their class.  Nothing inside ``src/`` changes.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at top level).  Spans stay in memory until the run writes
them out.  A span's self time is its duration minus the durations of its
direct children; the process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def _wrap(self, name: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                counter(tracer, args, result)
            return result

        return traced

    def patch_function(self, fn, name: str, counter=None) -> None:
        """Trace ``fn`` in every loaded qhlab module that binds it."""
        traced = self._wrap(name, fn, counter)
        modules = [m for key, m in list(sys.modules.items())
                   if key == "qhlab" or key.startswith("qhlab.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)
                    self._undo.append((mod, attr, fn))

    def patch_method(self, cls, attr: str, name: str, counter=None) -> None:
        fn = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, fn, counter))
        self._undo.append((cls, attr, fn))

    def restore(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def totals(self) -> tuple[dict, dict]:
        """Per-name (self seconds, inclusive seconds) over all spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        own: dict[str, float] = defaultdict(float)
        whole: dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, child):
            own[s[0]] += s[2] - s[1] - c
            whole[s[0]] += s[2] - s[1]
        return own, whole
