"""Tests for the segmented per-thread log buffer (the probe log path).

The unbounded buffer gives each appending thread a private segment so
the probe hot path is a single GIL-atomic ``list.append`` — no lock.
These tests pin down the collector-facing contract: drain is
copy-then-trim (a racing append is delivered exactly once, in this
drain or the next), ``read_from`` cursors observe every record exactly
once — across drains too — and the bounded mode still counts drops
exactly. Records are tagged by chain uuid (and event number).
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import ProbeRecord, Site, TracingEvent
from repro.core.records import as_row
from repro.platform import LocalLogBuffer

_SITE = Site("M::I", "op", "p.obj-1", "Comp", "p", 1, "h", "x86", "Linux")


def rec(tag, seq: int = 0) -> ProbeRecord:
    return ProbeRecord(_SITE, str(tag), seq, TracingEvent.STUB_START, 0)


def tags(records) -> list[str]:
    return [record.chain_uuid for record in records]


class TestSegmentedAppend:
    def test_records_stay_ordered_within_a_thread(self):
        buf = LocalLogBuffer()
        results: dict[str, list] = {}

        def writer(name):
            for i in range(200):
                buf.append(rec(name, i))

        threads = [
            threading.Thread(target=writer, args=(f"t{k}",)) for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = buf.drain()
        assert len(records) == 800
        for k in range(4):
            own = [r.event_seq for r in records if r.chain_uuid == f"t{k}"]
            assert own == list(range(200))

    def test_no_lock_acquisition_after_first_append(self):
        """Once a thread's segment is registered, appends must not touch
        the buffer lock (that is the entire point of segmentation)."""
        buf = LocalLogBuffer()
        buf.append(rec("warmup"))  # registers this thread's segment

        class Forbidden:
            def acquire(self, *a, **k):  # pragma: no cover - failure path
                raise AssertionError("buffer lock acquired on append fast path")

            release = acquire

            def __enter__(self):  # pragma: no cover - failure path
                raise AssertionError("buffer lock acquired on append fast path")

            def __exit__(self, *exc):  # pragma: no cover - failure path
                return False

        real_lock = buf._lock
        buf._lock = Forbidden()
        try:
            for i in range(100):
                buf.append(rec(i))
        finally:
            buf._lock = real_lock
        assert len(buf) == 101


class TestDrainSemantics:
    def test_drain_is_copy_then_trim(self):
        """An append racing a drain lands in that drain or the next —
        never lost, never duplicated. Simulated by appending between the
        copy and the trim via a list subclass hook."""
        buf = LocalLogBuffer()
        buf.append(rec("a"))
        segment = buf._segments[0]

        class RacingList(list):
            raced = False

            def __getitem__(self, item):
                # drain's copy step (segment[:count]) triggers the race:
                # another record arrives before the trim runs.
                if isinstance(item, slice) and not RacingList.raced:
                    RacingList.raced = True
                    list.append(self, as_row(rec("racer")))
                return list.__getitem__(self, item)

        racing = RacingList(segment)
        buf._segments[0] = racing
        first = buf.drain()
        assert tags(first) == ["a"]
        assert RacingList.raced
        second = buf.drain()
        assert tags(second) == ["racer"]

    def test_drain_keeps_collecting_after_clear(self):
        buf = LocalLogBuffer()
        buf.append(rec(1))
        assert buf.drain() == [rec(1)]
        buf.append(rec(2))
        assert buf.drain() == [rec(2)]


class TestReadFromCursor:
    def test_cursor_sees_each_record_exactly_once(self):
        buf = LocalLogBuffer()
        buf.append(rec("a"))
        batch, cursor = buf.read_from(())
        assert tags(batch) == ["a"]
        batch, cursor = buf.read_from(cursor)
        assert batch == []
        buf.append(rec("b"))
        buf.append(rec("c"))
        batch, cursor = buf.read_from(cursor)
        assert tags(batch) == ["b", "c"]

    def test_cursor_tracks_new_segments(self):
        """A thread that starts logging after the first read appends a
        new segment; the cursor grows to cover it."""
        buf = LocalLogBuffer()
        buf.append(rec("main-1"))
        _, cursor = buf.read_from(())

        def late_writer():
            buf.append(rec("late-1"))
            buf.append(rec("late-2"))

        t = threading.Thread(target=late_writer)
        t.start()
        t.join()
        buf.append(rec("main-2"))
        batch, cursor = buf.read_from(cursor)
        assert sorted(tags(batch)) == ["late-1", "late-2", "main-2"]
        batch, _ = buf.read_from(cursor)
        assert batch == []

    def test_read_from_does_not_drain(self):
        buf = LocalLogBuffer()
        buf.append(rec(1))
        buf.read_from(())
        assert buf.snapshot() == [rec(1)]

    @pytest.mark.parametrize("capacity", [None, 100])
    def test_cursor_stays_valid_across_a_drain(self, capacity):
        """A live reader beside a collector: what is appended after a
        drain is read next, and nothing is read twice."""
        buf = LocalLogBuffer(capacity=capacity)
        for i in range(5):
            buf.append(rec(i))
        batch, cursor = buf.read_from(())
        assert tags(batch) == ["0", "1", "2", "3", "4"]
        assert len(buf.drain()) == 5
        for i in range(5, 8):
            buf.append(rec(i))
        batch, cursor = buf.read_from(cursor)
        assert tags(batch) == ["5", "6", "7"]
        assert buf.read_from(cursor)[0] == []
        assert buf.unread_drained == 0

    @pytest.mark.parametrize("capacity", [None, 100])
    def test_drain_ahead_of_a_cursor_is_counted(self, capacity):
        buf = LocalLogBuffer(capacity=capacity)
        buf.append(rec("seen"))
        _, cursor = buf.read_from(())
        buf.append(rec("missed-1"))
        buf.append(rec("missed-2"))
        buf.drain()
        buf.append(rec("after"))
        batch, cursor = buf.read_from(cursor)
        assert tags(batch) == ["after"]
        assert buf.unread_drained == 2
        assert buf.read_from(cursor)[0] == []
        assert buf.unread_drained == 2

    def test_cursor_across_drains_and_a_late_thread(self):
        buf = LocalLogBuffer()
        buf.append(rec("main-1"))
        _, cursor = buf.read_from(())
        buf.drain()

        def late_writer():
            buf.append(rec("late-1"))

        t = threading.Thread(target=late_writer)
        t.start()
        t.join()
        buf.append(rec("main-2"))
        batch, cursor = buf.read_from(cursor)
        assert sorted(tags(batch)) == ["late-1", "main-2"]
        buf.drain()
        buf.append(rec("main-3"))
        batch, _ = buf.read_from(cursor)
        assert tags(batch) == ["main-3"]
        assert buf.unread_drained == 0

    def test_a_late_segment_drained_unread_is_counted(self):
        buf = LocalLogBuffer()
        _, cursor = buf.read_from(())
        assert cursor == ()

        def late_writer():
            buf.append(rec("late-1"))

        t = threading.Thread(target=late_writer)
        t.start()
        t.join()
        buf.drain()
        batch, cursor = buf.read_from(cursor)
        assert batch == []
        assert buf.unread_drained == 1
        # A late reader's first read counts the earlier drain.
        buf.append(rec("main-1"))
        batch, _ = buf.read_from(())
        assert tags(batch) == ["main-1"]
        assert buf.unread_drained == 2

    @pytest.mark.parametrize("capacity", [None, 100])
    def test_a_first_read_counts_a_drain_before_it(self, capacity):
        buf = LocalLogBuffer(capacity=capacity)
        for i in range(3):
            buf.append(rec(i))
        buf.drain()
        buf.append(rec(3))
        batch, _ = buf.read_from(())
        assert tags(batch) == ["3"]
        assert len(batch) + buf.unread_drained == 4


class TestReaderBesideACollector:
    def test_every_row_is_read_or_counted_unread(self):
        """Writers, a draining collector and a live reader at once: each
        row is drained exactly once, read at most once, and a row the
        reader never saw is one a drain took first — counted."""
        buf = LocalLogBuffer()
        writers, per_writer = 4, 1500
        drained: list = []
        read: list = []
        done = threading.Event()

        def writer(k):
            for i in range(per_writer):
                buf.append(rec(f"w{k}", i))

        def collector():
            while not done.is_set():
                drained.extend(buf.drain_rows())

        def reader():
            cursor = ()
            while not done.is_set():
                batch, cursor = buf.read_from(cursor)
                read.extend(batch)
            batch, _ = buf.read_from(cursor)
            read.extend(batch)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            side = [threading.Thread(target=collector), threading.Thread(target=reader)]
            for t in side:
                t.start()
            pool = [threading.Thread(target=writer, args=(k,)) for k in range(writers)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=30)
            done.set()
            for t in side:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in pool + side)
        drained.extend(buf.drain_rows())
        total = writers * per_writer
        keys = {(r[1], r[2]) for r in drained}
        assert len(drained) == len(keys) == total
        seen = [(r.chain_uuid, r.event_seq) for r in read]
        assert len(seen) == len(set(seen))
        assert len(seen) + buf.unread_drained == total


class TestBoundedMode:
    def test_capacity_drops_are_counted_exactly(self):
        buf = LocalLogBuffer(capacity=3)
        for i in range(10):
            buf.append(rec(i))
        assert tags(buf.snapshot()) == ["0", "1", "2"]
        assert buf.dropped == 7

    def test_bounded_read_from_uses_flat_cursor(self):
        buf = LocalLogBuffer(capacity=10)
        buf.append(rec("x"))
        batch, cursor = buf.read_from(())
        assert tags(batch) == ["x"]
        buf.append(rec("y"))
        batch, _ = buf.read_from(cursor)
        assert tags(batch) == ["y"]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LocalLogBuffer(capacity=0)
