"""Spans around calls into the program's layers, taken from outside it.

A Tracer replaces chosen public functions with timing wrappers. Each
function is found by identity: every ``arraysep`` module namespace that
holds the same object gets the wrapper, so calls made through any import
path (``pipeline.run_em``, ``enhancer.loss_with_grad``, ``arraysep.enhance``)
are recorded. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One call: name, interval, the enclosing span and the op it served."""

    name: str
    start: float
    end: float
    parent: int
    op: object
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - covered_length(kids, span.start, span.end)
        for span, kids in zip(spans, children)
    ]


class Tracer:
    """Timing wrappers for ``{span name: (module name, attribute)}``.

    ``extractors`` maps a span name to ``fn(args, kwargs, result) -> dict``
    whose items are stored on the span, so counts are read from returned
    objects where the work happens.
    """

    def __init__(self, targets: dict, extractors: dict | None = None, package="arraysep"):
        self.targets = dict(targets)
        self.extractors = dict(extractors or {})
        self.package = package
        self.spans: list = []
        self.op = None
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name, fn):
        extract = self.extractors.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if extract is not None:
                span.info.update(extract(args, kwargs, result))
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def _namespaces(self):
        return [
            module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == self.package or name.startswith(self.package + "."))
        ]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        namespaces = self._namespaces()
        try:
            for span_name, (module_name, attr) in self.targets.items():
                original = getattr(sys.modules[module_name], attr)
                if getattr(original, "__wrapped_by_tracer__", False):
                    raise RuntimeError(f"{module_name}.{attr} is already traced")
                wrapper = self._wrap(span_name, original)
                for module in namespaces:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._patched.append((module, key, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
