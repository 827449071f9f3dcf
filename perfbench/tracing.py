"""Outside-in span tracing of meshpass functions.

A :class:`Tracer` wraps functions of the loaded ``meshpass`` modules from
outside the package: each target is looked up once, and its function
object is replaced by a recording wrapper in every ``meshpass.*``
namespace (and class) that binds that very object. Modules that imported a
function by name therefore see the wrapper too, and nothing under ``src/``
changes.

Every call records one span ``(name, start, end, parent, op, failed)``.
Spans stay in memory until the run ends. A span's self time is its
duration minus the part of its interval covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root span
    op: str
    failed: bool = False


def self_times(spans):
    """Self time of every span: its duration minus the union of its
    children's intervals clipped to its own interval."""
    children = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        intervals = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in children.get(i, ())
        )
        for a, b in intervals:
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out


@dataclass
class Target:
    """One traced function: ``module`` and dotted ``qualname`` inside it,
    the span name, and an optional ``measure(args, kwargs, result, op)`` hook
    that returns computed quantities of a successful call (nodes, bytes,
    flops) as a dict, added up per span name."""

    module: str
    qualname: str
    name: str
    measure: object = None


@dataclass
class Tracer:
    """Spans, per-(name, quantity, op) counters from the measure hooks, and
    the targets that could not be resolved."""

    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    op: str = "setup"
    enabled: bool = True
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def _wrap(self, target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            span = Span(target.name, time.perf_counter(), 0.0, parent, tracer.op)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if target.measure is not None:
                for quantity, amount in target.measure(args, kwargs, result, span.op).items():
                    key = (target.name, quantity, span.op)
                    tracer.counters[key] = tracer.counters.get(key, 0) + amount
            return result

        return wrapper

    def install(self, targets):
        """Wrap every target; names that cannot be resolved are recorded in
        ``self.missing`` instead of being skipped silently."""
        for target in targets:
            try:
                owner = importlib.import_module(target.module)
                *path, attr = target.qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target.name)
                continue
            wrapper = self._wrap(target, original)
            for holder in _namespaces():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    @contextmanager
    def phase(self, op):
        """Attribute spans recorded inside the block to operation ``op``."""
        previous, self.op = self.op, op
        try:
            yield
        finally:
            self.op = previous

    @contextmanager
    def suspended(self):
        """Record nothing inside the block (output checks)."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, op, failed."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.failed]))
                fh.write("\n")


def _namespaces():
    """Every loaded meshpass module plus the classes defined in them."""
    seen = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "meshpass" or name.startswith("meshpass.")):
            continue
        seen.append(module)
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                seen.append(value)
    return seen
