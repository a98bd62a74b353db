"""Spans around library calls, recorded from outside the library.

A :class:`Tracer` rebinds a function's name in the namespace of the module
that calls it (``hetrvm.ep.gauss_hermite``, ``hetrvm.vi.minimize``, ...),
so the library itself is untouched.  Each call becomes one span
``[name, owner, start, end, parent, info]`` kept in memory.  ``owner`` is
the nearest enclosing trainer, query or command, so a ``weight_posterior``
reached from ``fit_ep`` through ``vi.update_alpha`` is charged to ``ep``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

NAME, OWNER, START, END, PARENT, INFO = range(6)


class Tracer:
    """Context manager that installs wrappers on enter and restores every
    original binding on exit, even when the traced code raises."""

    def __init__(self, bindings):
        # bindings: (module, attr, span name or callable(args) -> name,
        #            owner or None to inherit,
        #            info callable(args, out) or None)
        self.bindings = list(bindings)
        self.spans = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        # every name is looked up first, so one the library no longer binds
        # raises before any wrapper is installed
        originals = [getattr(b[0], b[1]) for b in self.bindings]
        for (module, attr, name, owner, info), original in zip(self.bindings,
                                                               originals):
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, owner, info))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        return False

    def restored(self) -> bool:
        """True when every wrapped name is bound to its original again."""
        return all(getattr(module, attr) is original
                   for module, attr, original in self._saved)

    def _wrap(self, fn, name, owner, info):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            parent = stack[-1] if stack else -1
            own = owner or (spans[parent][OWNER] if parent >= 0 else "-")
            idx = len(spans)
            span = [label, own, 0.0, 0.0, parent, None]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, out)
            return out

        return wrapper


def summarize(spans):
    """Per (owner, name): [calls, busy seconds, self seconds, spans]."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    table = defaultdict(lambda: [0, 0.0, 0.0, []])
    for i, s in enumerate(spans):
        row = table[(s[OWNER], s[NAME])]
        dur = s[END] - s[START]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child[i]
        row[3].append(s)
    return table
