"""Simulated OS processes.

A :class:`SimProcess` is the deployment unit of the paper's experiments
("the code base is partitioned into 32 threads in a single-processor
4-process configuration"). Each one owns:

- its host (processor) binding,
- a thread-specific storage instance used by the causality tunnel,
- a local monitoring log buffer (probes record locally, without
  coordination; the collector gathers buffers at quiescence),
- the threads it spawned, so shutdown can join them.

The monitoring runtime attaches itself as ``process.monitor``; runtimes
that own threads (an ORB, the COM runtime, a J2EE container) register
with :meth:`SimProcess.attach`, and :meth:`SimProcess.shutdown` stops
them all.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable

from repro.core.records import ProbeRecord, as_row, from_row
from repro.platform.host import Host
from repro.platform.tss import ContextVarStorage

_pid_counter = itertools.count(1)


class LocalLogBuffer:
    """Append-only per-process store for probe rows.

    Probes append without any cross-process coordination (paper: "all
    runtime behavior information is recorded individually by probes
    without coordination and global clock synchronization").

    What a probe logs is a *probe row* (:mod:`repro.core.records`): the
    buffer holds rows, the collector takes them with :meth:`drain_rows`
    straight to a store's encoder, and :meth:`drain`, :meth:`snapshot`
    and :meth:`read_from` build :class:`~repro.core.records.ProbeRecord`
    objects for the callers that read them. :meth:`append` takes a record
    (a replayed capture, a shipped spool) and logs its row.

    The unbounded default takes "without coordination" to its conclusion
    *within* the process too: each appending thread owns a private
    segment list (registered once, under the lock, the first time the
    thread logs), and every subsequent :meth:`append_row` is a single
    GIL-atomic ``list.append`` — no lock acquisition on the probe hot
    path. The collector's drain copies-then-trims each segment under the
    lock, so a row appended concurrently with a drain is either delivered
    in that drain or kept for the next one, never lost. Rows stay ordered
    within a thread; cross-thread interleaving is surrendered (the
    analyzer orders by chain UUID and event number, never by buffer
    position).

    ``capacity`` bounds the buffer: once full, further appends are
    *dropped and counted* rather than blocking the probe or growing
    without bound — a probe must never stall the application it observes.
    Bounded buffers keep the original single-list locked path so the
    capacity check and the drop counter stay exact. The analyzer
    tolerates the resulting record loss (chains reconstruct partial and
    flagged), so bounded capture degrades accounting, not soundness.
    """

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError("log buffer capacity must be >= 1")
        self.capacity = capacity
        self._rows: list[list] = []  # bounded mode only
        self._segments: list[list[list]] = []  # unbounded mode, creation order
        #: Per list above (``_rows``, or each segment), the rows drains have
        #: taken from its front: a ``read_from`` cursor counts positions
        #: from the list's creation, so it stays valid across a drain.
        self._drained: list[int] = [0] if capacity is not None else []
        self._tls = threading.local()
        self._dropped = 0
        self._unread_drained = 0
        self._lock = threading.Lock()

    def append_row(self, row: list) -> None:
        """Log one probe row (the probe path)."""
        if self.capacity is not None:
            with self._lock:
                if len(self._rows) >= self.capacity:
                    self._dropped += 1
                    return
                self._rows.append(row)
            return
        try:
            segment = self._tls.segment
        except AttributeError:
            segment = []
            with self._lock:
                self._segments.append(segment)
                self._drained.append(0)
            self._tls.segment = segment
        segment.append(row)

    def append(self, record: ProbeRecord) -> None:
        """Log ``record`` as a row (replays; probes call :meth:`append_row`)."""
        self.append_row(as_row(record))

    @property
    def dropped(self) -> int:
        """Records rejected because the buffer was at capacity."""
        with self._lock:
            return self._dropped

    @property
    def unread_drained(self) -> int:
        """Rows a drain took before a :meth:`read_from` cursor reached them,
        summed over every call that found its cursor behind a drain."""
        with self._lock:
            return self._unread_drained

    def _lists(self) -> list[list[list]]:
        # Caller holds the lock. Pairs one to one with ``_drained``.
        return [self._rows] if self.capacity is not None else self._segments

    def drain_rows(self) -> list[list]:
        """Return and clear all rows (the collector's path to a store).

        Segments are consumed copy-then-trim: an append racing the drain
        lands after the copied prefix and survives into the next drain.
        """
        rows: list[list] = []
        with self._lock:
            drained = self._drained
            for index, held in enumerate(self._lists()):
                count = len(held)
                rows += held[:count]
                del held[:count]
                drained[index] += count
        return rows

    def drain(self) -> list[ProbeRecord]:
        """Return and clear all records."""
        return list(map(from_row, self.drain_rows()))

    def snapshot(self) -> list[ProbeRecord]:
        with self._lock:
            rows = [row for held in self._lists() for row in held]
        return list(map(from_row, rows))

    def read_from(
        self, cursor: tuple[int, ...] | None
    ) -> tuple[list[ProbeRecord], tuple[int, ...]]:
        """Incremental, non-draining read for live consumers.

        ``cursor`` is the opaque position returned by the previous call
        (``None`` to start from what the buffer holds). Returns
        ``(new_records, new_cursor)``. Unlike indexing into ``snapshot()``
        — whose cross-thread interleaving shifts as older segments keep
        growing — the cursor tracks a per-segment position counted from
        the segment's creation, so every record is observed exactly once
        and in per-thread order, and a drain between two reads moves no
        position: what is appended after it is read next. Rows a drain
        took before this cursor reached them are counted in
        :attr:`unread_drained`.
        """
        rows: list[list] = []
        with self._lock:
            drained = self._drained
            lists = self._lists()
            if cursor is None:
                positions = list(drained)
            else:  # a segment born after the cursor is read from its start
                positions = [*cursor, *[0] * (len(lists) - len(cursor))]
            for index, held in enumerate(lists):
                # Appends do not take the lock: read up to one length, so a
                # row landing meanwhile is left for the next read.
                count = len(held)
                start = positions[index] - drained[index]
                if start < 0:
                    self._unread_drained -= start
                    start = 0
                rows += held[start:count]
                positions[index] = drained[index] + count
        return list(map(from_row, rows)), tuple(positions)

    def __len__(self) -> int:
        with self._lock:
            return sum(len(held) for held in self._lists())


class SimProcess:
    """One simulated OS process pinned to a host."""

    #: Tracked threads below which :meth:`spawn_thread` never prunes.
    _PRUNE_FLOOR = 16

    def __init__(self, name: str, host: Host):
        self.pid = next(_pid_counter)
        self.name = name
        self.host = host
        self.tss = ContextVarStorage()
        self.log_buffer = LocalLogBuffer()
        self.monitor: Any = None  # attached by repro.core.monitor
        self.fault_hook: Any = None  # attached by repro.faults.FaultInjector
        #: Runtimes that own threads here (ORB, COM, container), in attach
        #: order; :meth:`shutdown` stops every one of them.
        self._runtimes: list[Any] = []
        self._threads: list[threading.Thread] = []
        self._threads_lock = threading.Lock()
        self._prune_at = self._PRUNE_FLOOR  # tracked count that triggers a prune
        self._alive = True

    def spawn_thread(
        self, target: Callable[..., None], name: str, args: tuple = (), daemon: bool = True
    ) -> threading.Thread:
        """Start and track a thread belonging to this process."""
        thread = threading.Thread(
            target=target, args=args, name=f"{self.name}/{name}", daemon=daemon
        )
        thread.start()
        with self._threads_lock:
            # A thread-per-request server spawns one thread per call, so
            # finished ones are dropped — one scan per doubling, keeping
            # tracked <= 2 x live + _PRUNE_FLOOR. Every tracked thread was
            # started, which is what lets is_alive() mean "not finished".
            if len(self._threads) >= self._prune_at:
                self._threads = [t for t in self._threads if t.is_alive()]
                self._prune_at = 2 * len(self._threads) + self._PRUNE_FLOOR
            self._threads.append(thread)
        return thread

    def join_threads(self, timeout: float = 2.0) -> list[threading.Thread]:
        """Join all spawned threads, bounded by ``timeout`` overall.

        Threads are daemons, so a straggler blocked on I/O cannot keep the
        interpreter alive; we only wait briefly for orderly completion.
        Returns the stragglers: the threads still alive at the deadline.
        """
        deadline = time.monotonic() + timeout
        with self._threads_lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        return [thread for thread in threads if thread.is_alive()]

    def attach(self, runtime: Any) -> None:
        """Register a runtime whose ``shutdown()`` this process calls."""
        self._runtimes.append(runtime)

    def shutdown(self) -> list[threading.Thread]:
        """Mark the process dead, stop every attached runtime and join
        the threads; returns the stragglers (see :meth:`join_threads`)."""
        self._alive = False
        for runtime in self._runtimes:
            runtime.shutdown()
        return self.join_threads()

    @property
    def alive(self) -> bool:
        return self._alive

    def __repr__(self) -> str:
        return f"SimProcess(pid={self.pid}, name={self.name!r}, host={self.host.name!r})"


def quiesce(processes, settle: int = 3, interval: float = 0.002,
            timeout: float = 2.0) -> None:
    """Wait until the processes' log buffers stop growing.

    Oneway dispatch and pooled servers finish asynchronously, so callers
    settle before collecting: ``settle`` equal readings ``interval``
    seconds apart, or ``timeout`` seconds, whichever comes first.
    """
    deadline = time.monotonic() + timeout
    last, stable = -1, 0
    while time.monotonic() < deadline:
        size = sum(len(p.log_buffer) for p in processes)
        if size == last:
            stable += 1
            if stable >= settle:
                return
        else:
            stable, last = 0, size
        time.sleep(interval)
