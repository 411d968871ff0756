"""Span tracer for the traced pass: wraps public functions from outside the program.

A span is (name, start, end, parent index); spans stay in memory until the
pass ends. Self time is a span's duration minus the part of it that its direct
children cover. Wrapping replaces a function in every loaded module of the
package that holds a reference to it, so `from x import f` call sites are
traced too.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int               # index into Tracer.spans, -1 for a root


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: defaultdict[str, set] = defaultdict(set)
        self.unwrapped: set[str] = set()    # span names whose target was not found
        self.uncounted: set[str] = set()    # count keys whose hook could not read a result

    def wrap(self, name: str, fn, hook=None):
        """`fn` recording a span per call; `hook(tracer, args, kwargs, result)` adds counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def stats(self) -> dict[str, SpanStats]:
        out: defaultdict[str, SpanStats] = defaultdict(SpanStats)
        for span, own in zip(self.spans, self_times(self.spans)):
            s = out[span.name]
            s.calls += 1
            s.total_s += span.end - span.start
            s.self_s += own
        return out


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its direct children, clipped to it."""
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(span.end - span.start - covered)
    return out


def replace_everywhere(package: str, original, replacement) -> int:
    """Rebind every module-level name in `package` that refers to `original`."""
    hits = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        names = [k for k, v in vars(module).items() if v is original]
        for k in names:
            setattr(module, k, replacement)
        hits += len(names)
    return hits
