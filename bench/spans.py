"""The benchmark's own span recorder.

A span is (name, start, end, parent span, operation id), recorded around
each call the benchmark makes into a layer of ``repro``. Spans stay in
memory and are written out once, when the workload ends. With the
recorder off, ``span()`` hands back one shared do-nothing context, so
the untraced run — the one every end-to-end metric comes from — pays a
method call and nothing else.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Iterator


class _NoSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class SpanRecorder:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        #: [name, start_ns, end_ns, parent index or None, operation id or None]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def start(self, name: str, parent: int | None = None, op: int | None = None) -> int:
        """Open a span with an explicit parent (for interleaved tasks)."""
        self.spans.append([name, time.perf_counter_ns(), None, parent, op])
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()

    def span(self, name: str, op: int | None = None):
        """Context manager for sequential code: the parent is whatever
        span is open on this recorder's stack."""
        if not self.enabled:
            return _NO_SPAN
        return self._span(name, op)

    @contextmanager
    def _span(self, name: str, op: int | None) -> Iterator[int]:
        index = self.start(name, self._stack[-1] if self._stack else None, op)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.end(index)

    @property
    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------

    def durations(self, name: str) -> list[int]:
        return [end - start for n, start, end, _p, _o in self.spans if n == name]

    def self_times(self) -> list[int]:
        """Per span: its duration minus the part its children cover."""
        return self_times([(start, end, parent) for _n, start, end, parent, _o in self.spans])

    def self_time_by_name(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for (name, *_rest), own in zip(self.spans, self.self_times()):
            totals[name] = totals.get(name, 0) + own
        return totals

    def write(self, path: str, header: dict) -> None:
        document = dict(header)
        document["self_time_ns"] = self.self_time_by_name()
        document["span_fields"] = ["name", "start_ns", "end_ns", "parent", "op"]
        document["spans"] = self.spans
        with open(path, "w") as handle:
            json.dump(document, handle)


def self_times(spans: list[tuple[int, int, int | None]]) -> list[int]:
    """Self time of each ``(start, end, parent_index)`` span.

    Children of one parent may overlap (concurrent tasks), so what is
    subtracted is the length of the *union* of the child intervals,
    clipped to the parent.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (start, end, _parent) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out
