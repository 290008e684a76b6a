"""In-memory host-time spans for the benchmark's traced run.

A span covers one call into a public function of the simulator: its
name, host start and end (``time.perf_counter`` seconds), the span that
caused it and the simulated day it belongs to.  Calls that happen once
per simulation event (activation decisions, ledger writes) would add
tens of thousands of spans per day, so the taps fold them into their
enclosing span instead: exact call counts and summed seconds, kept on
``Span.folded``.  A span's self time is its duration minus the time its
child spans cover minus its folded time.

Spans stay in memory and are written once, as Chrome trace JSON, when
the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

__all__ = [
    "Span", "SpanRecorder", "fold", "self_times", "layer_totals",
    "to_chrome", "write_chrome",
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Index of the causing span in ``SpanRecorder.spans``; None for a root.
    parent: Optional[int]
    day: int
    #: Free-form qualifier shown in the export (e.g. the policy).
    label: str = ""
    #: Per-event calls summed into this span: name -> [seconds, calls].
    folded: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records strictly nested spans from one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.day = 0
        self._stack: List[int] = []

    def _open(self, name: str, start: float, label: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, start, start, parent, self.day, label)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, label: str = "") -> Iterator[Span]:
        """Time the body as a child of the innermost open span."""
        span = self._open(name, self.clock(), label)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-finished child of the innermost open span."""
        self._open(name, start, "").end = end


def fold(span: Span, name: str, seconds: float, calls: int) -> None:
    """Add per-event calls (summed seconds, exact count) to ``span``."""
    total = span.folded.setdefault(name, [0.0, 0])
    total[0] += seconds
    total[1] += calls


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus its children's and its folded time."""
    result = [
        span.duration - sum(seconds for seconds, _ in span.folded.values())
        for span in spans
    ]
    for span in spans:
        if span.parent is not None:
            result[span.parent] -= span.duration
    return result


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: summed ``seconds``, ``self_s`` and ``calls``.

    Folded per-event calls appear under their own names, with their
    seconds as both total and self time.
    """
    totals: Dict[str, Dict[str, float]] = {}

    def entry(name: str) -> Dict[str, float]:
        return totals.setdefault(
            name, {"seconds": 0.0, "self_s": 0.0, "calls": 0}
        )

    for span, own in zip(spans, self_times(spans)):
        row = entry(span.name)
        row["seconds"] += span.duration
        row["self_s"] += own
        row["calls"] += 1
        for name, (seconds, calls) in span.folded.items():
            row = entry(name)
            row["seconds"] += seconds
            row["self_s"] += seconds
            row["calls"] += calls
    return totals


def to_chrome(spans: List[Span]) -> dict:
    """A Chrome ``trace_event`` document: one ``B``/``E`` pair per span.

    Pairs are emitted depth-first in start order, so every lane stays
    balanced and children nest inside their parents.
    """
    children: List[List[int]] = [[] for _ in spans]
    roots = []
    for index, span in enumerate(spans):
        if span.parent is None:
            roots.append(index)
        else:
            children[span.parent].append(index)
    origin = spans[0].start if spans else 0.0
    events = [{
        "ph": "M", "name": "thread_name", "pid": 0, "tid": 0,
        "args": {"name": "farmbench"},
    }]

    def emit(index: int) -> None:
        span = spans[index]
        args = {
            "span": index,
            "parent": -1 if span.parent is None else span.parent,
            "day": span.day,
        }
        if span.label:
            args["label"] = span.label
        for name, (seconds, calls) in sorted(span.folded.items()):
            args[f"{name}_s"] = seconds
            args[f"{name}_calls"] = calls
        common = {"name": span.name, "cat": "farmbench", "pid": 0, "tid": 0}
        events.append(dict(common, ph="B",
                           ts=(span.start - origin) * 1e6, args=args))
        for child in children[index]:
            emit(child)
        events.append(dict(common, ph="E",
                           ts=(span.end - origin) * 1e6, args={}))

    for root in roots:
        emit(root)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome(spans: List[Span], path: str) -> dict:
    """Write the export and return the document as read back."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome(spans), handle, separators=(",", ":"))
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
