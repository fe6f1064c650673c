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

from repro.platform.host import Host
from repro.platform.tss import ContextVarStorage

_pid_counter = itertools.count(1)


class LocalLogBuffer:
    """Append-only per-process store for probe records.

    Probes append without any cross-process coordination (paper: "all
    runtime behavior information is recorded individually by probes
    without coordination and global clock synchronization").

    The unbounded default takes that to its conclusion *within* the
    process too: each appending thread owns a private segment list
    (registered once, under the lock, the first time the thread logs),
    and every subsequent ``append`` is a single GIL-atomic
    ``list.append`` — no lock acquisition on the probe hot path. The
    collector's ``drain`` copies-then-trims each segment under the lock,
    so a record appended concurrently with a drain is either delivered
    in that drain or kept for the next one, never lost. Records stay
    ordered within a thread; cross-thread interleaving is surrendered
    (the analyzer orders by chain UUID and event number, never by
    buffer position).

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
        self._records: list[Any] = []  # bounded mode only
        self._segments: list[list[Any]] = []  # unbounded mode, creation order
        self._tls = threading.local()
        self._dropped = 0
        self._lock = threading.Lock()

    def append(self, record: Any) -> None:
        if self.capacity is not None:
            with self._lock:
                if len(self._records) >= self.capacity:
                    self._dropped += 1
                    return
                self._records.append(record)
            return
        try:
            segment = self._tls.segment
        except AttributeError:
            segment = []
            with self._lock:
                self._segments.append(segment)
            self._tls.segment = segment
        segment.append(record)

    @property
    def dropped(self) -> int:
        """Records rejected because the buffer was at capacity."""
        with self._lock:
            return self._dropped

    def drain(self) -> list[Any]:
        """Return and clear all records (used by the collector).

        Segments are consumed copy-then-trim: an append racing the drain
        lands after the copied prefix and survives into the next drain.
        """
        with self._lock:
            if self.capacity is not None:
                records = self._records
                self._records = []
                return records
            records = []
            for segment in self._segments:
                count = len(segment)
                records.extend(segment[:count])
                del segment[:count]
            return records

    def snapshot(self) -> list[Any]:
        with self._lock:
            if self.capacity is not None:
                return list(self._records)
            out: list[Any] = []
            for segment in self._segments:
                out.extend(segment)
            return out

    def read_from(self, cursor: tuple[int, ...] | None) -> tuple[list[Any], tuple[int, ...]]:
        """Incremental, non-draining read for live consumers.

        ``cursor`` is the opaque position returned by the previous call
        (``None`` to start from the beginning). Returns ``(new_records,
        new_cursor)``. Unlike indexing into ``snapshot()`` — whose
        cross-thread interleaving shifts as older segments keep growing —
        the cursor tracks a per-segment offset, so every record is
        observed exactly once and in per-thread order.
        """
        with self._lock:
            if self.capacity is not None:
                offset = cursor[0] if cursor else 0
                records = self._records[offset:]
                return records, (offset + len(records),)
            offsets = list(cursor) if cursor else []
            offsets.extend(0 for _ in range(len(self._segments) - len(offsets)))
            out: list[Any] = []
            for index, segment in enumerate(self._segments):
                count = len(segment)
                out.extend(segment[offsets[index] : count])
                offsets[index] = count
            return out, tuple(offsets)

    def __len__(self) -> int:
        with self._lock:
            if self.capacity is not None:
                return len(self._records)
            return sum(len(segment) for segment in self._segments)


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
