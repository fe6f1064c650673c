"""Lossy probe-record delivery (the probe -> collector path).

A :class:`LossyLogBuffer` stands between a process's real log buffer and
the collector: drains may fail transiently (exercising the collector's
retry/backoff) and individual records may be lost in transit (exercising
the analyzer's soundness under partial observation). Probes keep
appending to the real buffer untouched — only *delivery* is faulty, as
in a real deployment where the log store outlives a flaky uplink.
"""

from __future__ import annotations

import threading

from repro.core.records import ProbeRecord, from_row
from repro.errors import TransientCollectorError
from repro.faults.plan import FaultKind


class LossyLogBuffer:
    """Wraps a process's log buffer with plan-scheduled delivery faults."""

    def __init__(self, inner, injector, scope: str):
        self._inner = inner
        self._injector = injector
        self._scope = scope
        self._drain_attempts = 0
        self._record_index = 0
        self._lock = threading.Lock()
        #: Probes log through the inner buffer's per-thread appends.
        self.per_thread = inner.per_thread

    # -- probe side: appends pass straight through ----------------------

    def append(self, record: ProbeRecord) -> None:
        self._inner.append(record)

    def snapshot(self) -> list[ProbeRecord]:
        return self._inner.snapshot()

    def read_from(self, cursor):
        """Incremental live reads pass straight through (delivery faults
        apply only to the collector's ``drain`` path)."""
        return self._inner.read_from(cursor)

    def __len__(self) -> int:
        return len(self._inner)

    @property
    def capacity(self):
        return getattr(self._inner, "capacity", None)

    @property
    def dropped(self) -> int:
        return getattr(self._inner, "dropped", 0)

    @property
    def unread_drained(self) -> int:
        return getattr(self._inner, "unread_drained", 0)

    # -- collector side: delivery is faulty -----------------------------

    def drain(self) -> list[ProbeRecord]:
        """:meth:`drain_rows`, as records."""
        return list(map(from_row, self.drain_rows()))

    def drain_rows(self) -> list[list]:
        """Deliver the buffered probe rows, subject to the fault plan.

        A transient failure raises *before* the inner buffer is touched,
        so a retry sees the records intact. On success, each record is
        individually subject to loss; lost records are logged against
        this process's scope.
        """
        plan = self._injector.plan
        with self._lock:
            attempt = self._drain_attempts
            self._drain_attempts += 1
        if plan.drain_fails(self._scope, attempt):
            self._injector.record(
                FaultKind.COLLECT_FAIL, self._scope, attempt, detail=f"attempt {attempt}"
            )
            raise TransientCollectorError(
                f"injected drain failure for {self._scope} (attempt {attempt})"
            )
        rows = self._inner.drain_rows()
        delivered = []
        with self._lock:
            base = self._record_index
            self._record_index += len(rows)
        for offset, row in enumerate(rows):
            if plan.loses_record(self._scope, base + offset):
                self._injector.record(FaultKind.RECORD_LOSS, self._scope, base + offset)
                continue
            delivered.append(row)
        return delivered
