"""Incremental DSCG reconstruction over a live record stream.

The batch analyzer sorts each chain's records by event number and runs
them through the Figure-4 machine at quiescence. The streaming
reconstructor does the same work record-by-record as probes emit them:
each chain owns a :class:`~repro.analysis.statemachine.ChainBuilder`
(the *same* transition implementation the batch path uses) plus a
re-serialization buffer that holds out-of-order arrivals until their
event number comes up. The spike detector and the
:class:`~repro.analysis.online.OnlineMonitor` both consume its hooks.

Equivalence contract: after :meth:`StreamingReconstructor.finalize`, the
resulting :class:`~repro.analysis.dscg.Dscg` is bit-identical to
``reconstruct(store, run)`` over the same records whenever event numbers
are unique per chain (any fault-free run, and every fault domain that
loses or delays records rather than duplicating event numbers).

Late-record policy: a record whose event number its chain has already
passed or already holds in the buffer (a replay, or the mingled-chain
hazard) is *flagged and never applied* — it becomes an
:class:`~repro.analysis.dscg.AbnormalEvent` on the chain and fires the
abnormal hook, but a replayed ``stub_start`` cannot open a phantom
frame. The batch analyzer sorts first and applies both copies: on such
streams the two agree the chain is abnormal, not on its shape.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable

from repro.analysis.dscg import AbnormalEvent, CallNode, Dscg
from repro.analysis.statemachine import ChainBuilder
from repro.core.records import ProbeRecord
from repro.platform.process import SimProcess

#: Completion hook: (closed node, closing record, global record index).
CompletionHook = Callable[[CallNode, ProbeRecord, int], None]


class _ChainStream:
    """Live reconstruction state for one causal chain."""

    __slots__ = ("builder", "expected_seq", "pending")

    def __init__(self, chain_uuid: str):
        #: ``None`` once released; the next applied record starts afresh.
        self.builder: ChainBuilder | None = ChainBuilder(chain_uuid)
        self.expected_seq = 0
        self.pending: dict[int, ProbeRecord] = {}


class StreamingReconstructor:
    """Maintains live DSCG chains from an incremental record stream.

    Thread-safe. Feed records with :meth:`ingest`/:meth:`ingest_many`,
    or attach to live processes and call :meth:`poll` (non-draining
    cursor reads, so the quiescence-time collector still sees every
    record). Hooks fire inline under the ingest lock: ``on_complete``
    whenever a call frame closes, ``on_abnormal`` for every abnormal
    machine transition and every late record, ``on_drop`` for every
    record lost to ``max_pending`` overflow.

    ``max_pending`` bounds the re-serialization buffer across all
    chains: a stalled chain (its gap record lost in flight) cannot grow
    memory without limit. Overflow drops the incoming out-of-order
    record and counts it in :attr:`pending_dropped`.
    """

    def __init__(
        self,
        on_complete: CompletionHook | None = None,
        max_pending: int | None = 100_000,
        on_abnormal: Callable[[AbnormalEvent], None] | None = None,
        on_drop: Callable[[ProbeRecord], None] | None = None,
    ):
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None for unbounded)")
        self.on_complete = on_complete
        self.on_abnormal = on_abnormal
        self.on_drop = on_drop
        self.max_pending = max_pending
        self.records_ingested = 0
        self.pending_dropped = 0
        self._chains: dict[str, _ChainStream] = {}
        self._pending_total = 0
        self._completed_nodes = 0
        self._open_frames = 0  # kept per record: the live views are O(1)
        self._live_chains = 0
        self._finalized: Dscg | None = None
        # Re-entrant: a hook may call release() while ingest holds it.
        self._lock = threading.RLock()
        self._cursors: dict[int, Any] = {}

    # ------------------------------------------------------------------
    # Ingest

    def ingest(self, record: ProbeRecord) -> None:
        with self._lock:
            self._enqueue_locked(record)

    def ingest_many(self, records: Iterable[ProbeRecord]) -> int:
        count = 0
        with self._lock:
            for record in records:
                self._enqueue_locked(record)
                count += 1
        return count

    def poll(self, processes: Iterable[SimProcess]) -> int:
        """Pull new records from process buffers without draining them.

        Reads go through the buffer's ``read_from`` cursor: with
        per-thread segmented buffers a flat index into ``snapshot()``
        would re-read (or skip) records as older segments keep growing.
        """
        new = 0
        with self._lock:
            for process in processes:
                records, self._cursors[process.pid] = process.log_buffer.read_from(
                    self._cursors.get(process.pid)
                )
                for record in records:
                    self._enqueue_locked(record)
                    new += 1
        return new

    def _enqueue_locked(self, record: ProbeRecord) -> None:
        if self._finalized is not None:
            raise RuntimeError("cannot ingest into a finalized reconstructor")
        self.records_ingested += 1
        stream = self._chains.get(record.chain_uuid)
        if stream is None:
            stream = self._chains[record.chain_uuid] = _ChainStream(record.chain_uuid)
        seq = record.event_seq
        if seq == stream.expected_seq:
            self._apply_locked(stream, record)
            stream.expected_seq += 1
            pending = stream.pending
            while pending:
                next_record = pending.pop(stream.expected_seq, None)
                if next_record is None:
                    break
                self._pending_total -= 1
                self._apply_locked(stream, next_record)
                stream.expected_seq += 1
        elif seq > stream.expected_seq and seq not in stream.pending:
            if (
                self.max_pending is not None
                and self._pending_total >= self.max_pending
            ):
                self.pending_dropped += 1
                if self.on_drop is not None:
                    self.on_drop(record)
                return
            stream.pending[seq] = record
            self._pending_total += 1
        else:
            # The chain already passed this event number, or holds it in
            # the buffer (a replay, or mingled chains): flag, never apply.
            event = AbnormalEvent(
                record.chain_uuid,
                seq,
                f"late {record.event.name.lower()} for {record.function}:"
                f" event number {seq} already seen",
                record,
            )
            if stream.builder is not None:
                stream.builder.tree.flag(event)
            if self.on_abnormal is not None:
                self.on_abnormal(event)

    def _apply_locked(self, stream: _ChainStream, record: ProbeRecord) -> None:
        builder = stream.builder
        if builder is None:
            builder = stream.builder = ChainBuilder(record.chain_uuid)
        stack, tree = builder.stack, builder.tree
        depth, flagged = len(stack), len(tree.abnormal)
        completed = builder.apply(record)
        if completed is not None:
            self._completed_nodes += 1
            self._open_frames -= 1
            if depth == 1:
                self._live_chains -= 1
            if self.on_complete is not None:
                self.on_complete(completed, record, self.records_ingested)
        elif len(stack) != depth:
            self._open_frames += 1
            if not depth:
                self._live_chains += 1
        elif len(tree.abnormal) != flagged and self.on_abnormal is not None:
            self.on_abnormal(tree.abnormal[-1])

    def release(self, chain_uuid: str) -> None:
        """Forget a chain's builder and tree; keep its next event number.

        For consumers that never :meth:`finalize` (the online monitor
        releases a chain when its root frame closes), so retained state
        is bounded by live chains. Later records of the chain are still
        resequenced and start a fresh tree.
        """
        with self._lock:
            stream = self._chains.get(chain_uuid)
            if stream is None or stream.builder is None:
                return
            depth = len(stream.builder.stack)
            if depth:
                self._open_frames -= depth
                self._live_chains -= 1
            stream.builder = None

    # ------------------------------------------------------------------
    # Live views

    def live_chain_count(self) -> int:
        """Chains with at least one frame still open."""
        with self._lock:
            return self._live_chains

    def open_frames(self) -> list[CallNode]:
        """Every invocation currently in flight, outermost first per chain."""
        with self._lock:
            live = {
                chain_uuid: stream.builder.stack
                for chain_uuid, stream in self._chains.items()
                if stream.builder is not None and stream.builder.stack
            }
            return [frame for chain_uuid in sorted(live) for frame in live[chain_uuid]]

    def completed_nodes(self) -> int:
        with self._lock:
            return self._completed_nodes

    def pending_records(self) -> int:
        """Out-of-order records currently buffered awaiting their gap."""
        with self._lock:
            return self._pending_total

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "records_ingested": self.records_ingested,
                "chains": len(self._chains),
                "live_chains": self._live_chains,
                "open_frames": self._open_frames,
                "completed_nodes": self._completed_nodes,
                "pending_records": self._pending_total,
                "pending_dropped": self.pending_dropped,
            }

    # ------------------------------------------------------------------
    # Finalization

    def finalize(self) -> Dscg:
        """Close the stream and return the reconstructed DSCG.

        Any records still waiting on a lost gap record are flushed
        through the machine in ascending event-number order — exactly
        the order the batch analyzer would have applied them — then
        every chain salvages its open frames, chains are grouped
        ascending by chain uuid (the ``chains_for_run`` ordering
        contract) and oneway forks are linked. Idempotent.
        """
        with self._lock:
            if self._finalized is not None:
                return self._finalized
            dscg = Dscg()
            for chain_uuid in sorted(self._chains):
                stream = self._chains[chain_uuid]
                if stream.pending:
                    for seq in sorted(stream.pending):
                        self._apply_locked(stream, stream.pending[seq])
                    self._pending_total -= len(stream.pending)
                    stream.pending.clear()
                if stream.builder is not None:
                    dscg.add_chain(stream.builder.finish())
            dscg.link_chains()
            self._finalized = dscg
            return dscg
