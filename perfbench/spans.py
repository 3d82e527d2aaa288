"""In-memory span recorder and self-time arithmetic for the traced run.

A span is one call across a layer boundary: its layer, its name, start and
end (``perf_counter`` seconds), and the index of the span that was open
when it began.  It also keeps the thread that ran it and that thread's CPU
clock (``thread_time``) at start and end.  Spans are kept in one list in
memory and written out once, when the benchmark ends.

A span's *self time* is its duration minus the part of its interval that
its children cover.  Children of one span can run at the same time (the
lanes of a batched run are threads), so coverage is the length of the
union of the child intervals, not their sum.  Self times are wall-clock:
when lanes interleave on one CPU, each lane's span also holds the time the
other lane ran, and their self times overlap.

A span's *self CPU time* is its thread's CPU time over the span minus that
of its children on the same thread.  Self CPU times never overlap, so
their sum over a tree is the CPU the tree's spans used, whatever the
threads.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path


@dataclass(slots=True)
class Span:
    layer: str
    name: str
    start: float
    end: float
    parent: int | None
    thread: int = 0
    cpu_start: float = 0.0
    cpu_end: float = 0.0


class SpanRecorder:
    """Collects spans from every thread of the process.

    Each thread keeps its own stack of open spans.  A thread whose stack
    is empty (a batch lane that has just started) parents its spans on
    the innermost span open in the thread that created the recorder, so
    lane work nests under the call that spawned the lanes.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str) -> int:
        """Start a span; returns its index for :meth:`close`."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = Span(
            layer, name, time.perf_counter(), 0.0, parent,
            threading.get_ident(), time.thread_time(),
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.cpu_end = time.thread_time()
        span.end = time.perf_counter()
        self._stack().pop()

    def span(self, layer: str, name: str) -> "_SpanContext":
        return _SpanContext(self, layer, name)

    def write(self, path: Path) -> None:
        """Write one JSON object per span and line, in open order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                record = {
                    "layer": s.layer,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "thread": s.thread,
                    "cpu_start": s.cpu_start,
                    "cpu_end": s.cpu_end,
                }
                fh.write(json.dumps(record) + "\n")


class _SpanContext:
    __slots__ = ("_recorder", "_layer", "_name", "_index")

    def __init__(self, recorder: SpanRecorder, layer: str, name: str) -> None:
        self._recorder, self._layer, self._name = recorder, layer, name

    def __enter__(self) -> None:
        self._index = self._recorder.open(self._layer, self._name)

    def __exit__(self, *exc) -> None:
        self._recorder.close(self._index)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - _union_length(children.get(i, []))
        for i, span in enumerate(spans)
    ]


def self_cpu_times(spans: list[Span]) -> list[float]:
    """Per-span thread CPU time minus that of its same-thread children."""
    children: dict[int, float] = defaultdict(float)
    for span in spans:
        parent = span.parent
        if parent is not None and spans[parent].thread == span.thread:
            children[parent] += span.cpu_end - span.cpu_start
    return [
        (span.cpu_end - span.cpu_start) - children[i]
        for i, span in enumerate(spans)
    ]


def descendants(spans: list[Span], root: int) -> list[int]:
    """Indices of ``root`` and every span below it."""
    below: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            below[span.parent].append(i)
    out, todo = [], [root]
    while todo:
        i = todo.pop()
        out.append(i)
        todo.extend(below.get(i, []))
    return out


def layer_totals(
    spans: list[Span], indices: list[int]
) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per layer: self time, time of outermost spans, outermost count.

    A span is *outermost* in its layer when its parent belongs to another
    layer; counting only those keeps a layer's own nested helpers (a dot
    product calling a sum) from being counted twice.  The same rule keys
    ``layer:name`` entries on the parent's ``layer:name``.
    """
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    outer_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i in indices:
        span = spans[i]
        key = f"{span.layer}:{span.name}"
        self_s[span.layer] += selfs[i]
        self_s[key] += selfs[i]
        parent = span.parent
        if parent is None or spans[parent].layer != span.layer:
            outer_s[span.layer] += span.end - span.start
            calls[span.layer] += 1
        if parent is None or (spans[parent].layer, spans[parent].name) != (
            span.layer,
            span.name,
        ):
            outer_s[key] += span.end - span.start
            calls[key] += 1
    return dict(self_s), dict(outer_s), dict(calls)
