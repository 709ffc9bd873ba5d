"""Span recording for the benchmark's traced runs.

Every traced call records a span: its name, start, end and the span that was
open when it began.  Leaves that run hundreds of thousands of times
(``lr_coefficient``, ``paired_block_overlap``, the dimension counts) are
aggregated instead: all calls of one leaf under one parent span share a
single span that carries the call count and the summed duration, so memory
grows with the number of distinct call sites, not with the number of calls.

The package is single threaded, so the calls that run inside a span follow
one another and never overlap.  The part of a span covered by its children is
therefore the sum of their durations, and self time is what remains.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    """One call, or all calls of an aggregated leaf under one parent span."""

    id: int
    name: str
    parent: int | None
    start: float
    end: float
    calls: int = 0
    busy: float = 0.0  # summed duration of the calls; end - start for one call
    label: object = None


def self_times(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self seconds), self = busy minus the children's busy."""
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.busy
    out: dict[str, tuple[int, float]] = {}
    for s in spans:
        calls, self_s = out.get(s.name, (0, 0.0))
        out[s.name] = (calls + s.calls, self_s + s.busy - covered.get(s.id, 0.0))
    return out


def inclusive_time(spans: list[Span], name: str, label: object = None) -> float:
    """Summed duration of the spans called ``name`` (with ``label``, when given)."""
    return sum((s.busy for s in spans if s.name == name and (label is None or s.label == label)), 0.0)


class Tracer:
    """Keeps spans in memory until the run ends; ``wrap`` instruments one callable."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._leaves: dict[tuple, Span] = {}

    def _open(self, name: str, leaf: bool, label: object = None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        key = (parent, name, label)
        span = self._leaves.get(key) if leaf else None
        if span is None:
            span = Span(len(self.spans), name, parent, self.clock(), 0.0, label=label)
            self.spans.append(span)
            if leaf:
                self._leaves[key] = span
        return span

    def _timed(self, span: Span, fn: Callable, *args, **kwargs):
        clock, stack = self.clock, self._stack
        stack.append(span)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            span.end = end
            span.busy += end - start

    def wrap(self, name: str, fn: Callable, *, leaf: bool = False,
             observe: Callable[[tuple, dict, object], None] | None = None,
             label: Callable[[tuple, dict], object] | None = None) -> Callable:
        """Return ``fn`` recording a span per call; generators are timed per item.

        ``observe`` sees the arguments and result of every call (for counters);
        ``label`` tags each span with a value derived from the arguments, so
        later reports can pick out particular calls (aggregated leaves keep one
        span per label).
        """
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def generator_wrapper(*args, **kwargs):
                span = tracer._open(name, leaf=True)
                span.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = tracer._timed(span, next, it)
                    except StopIteration:
                        return
                    yield item

            return generator_wrapper

        def wrapper(*args, **kwargs):
            span = tracer._open(name, leaf, None if label is None else label(args, kwargs))
            span.calls += 1
            result = tracer._timed(span, fn, *args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper


def rebind(package: str, original: object, replacement: object) -> int:
    """Point every module-level name in ``package`` bound to ``original`` at ``replacement``.

    Wrapping a function where each module binds it (``from .lr import
    lr_coefficient`` copies the reference) is what lets calls between the
    package's own modules be seen without editing them.  Returns the number of
    bindings replaced.
    """
    replaced = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                replaced += 1
    return replaced
