"""OVATION-style sequence chart (related-work baseline view).

OVATION [15] presents "object method calls ... in a sequence chart with
respect to time progressing, along with their corresponding runtime
execution entities (thread, process, and host)" — but without global
causality capture it cannot relate one invocation to the rest. This
module renders that view from our records, both as a data structure and
as monospace text, so the correlation benchmark can contrast what each
approach can and cannot recover.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.events import TracingEvent
from repro.core.records import ProbeRecord


@dataclass
class InvocationSpan:
    """One timed invocation on one execution entity (no causal links)."""

    function: str
    object_id: str
    process: str
    host: str
    thread_id: int
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def entity(self) -> str:
        return f"{self.host}/{self.process}/t{self.thread_id}"


def spans_from_records(records: list[ProbeRecord]) -> list[InvocationSpan]:
    """Pair skeleton start/end records into spans, ignoring causality.

    This deliberately uses only per-record locality and timing — exactly
    the information an interceptor-only monitor has.
    """
    open_spans: dict[tuple, ProbeRecord] = {}
    spans: list[InvocationSpan] = []
    for record in sorted(
        records, key=lambda r: (r.wall_start if r.wall_start is not None else 0)
    ):
        site = record.site
        key = (site.process, record.thread_id, site.interface, site.operation,
               site.object_id)
        if record.event is TracingEvent.SKEL_START:
            open_spans[key] = record
        elif record.event is TracingEvent.SKEL_END:
            start = open_spans.pop(key, None)
            if start is None or start.wall_end is None or record.wall_start is None:
                continue
            spans.append(
                InvocationSpan(
                    function=record.function,
                    object_id=site.object_id,
                    process=site.process,
                    host=site.host,
                    thread_id=record.thread_id,
                    start_ns=start.wall_end,
                    end_ns=record.wall_start,
                )
            )
    spans.sort(key=lambda s: s.start_ns)
    return spans


def render_sequence_chart(spans: list[InvocationSpan], width: int = 72) -> str:
    """Monospace sequence chart: one row per span, bars scaled to time."""
    if not spans:
        return "(no spans)"
    t0 = min(span.start_ns for span in spans)
    t1 = max(span.end_ns for span in spans)
    window = max(t1 - t0, 1)
    label_width = max(len(f"{s.entity} {s.function}") for s in spans)
    lines = []
    for span in spans:
        left = int((span.start_ns - t0) * (width - 1) / window)
        right = max(left + 1, int((span.end_ns - t0) * (width - 1) / window))
        bar = " " * left + "#" * (right - left)
        label = f"{span.entity} {span.function}".ljust(label_width)
        lines.append(f"{label} |{bar.ljust(width)}|")
    return "\n".join(lines)
