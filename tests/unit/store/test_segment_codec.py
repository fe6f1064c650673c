"""Frame-codec round trips: one segment file, every field shape."""

import os

import pytest

from repro.core import CallKind, Domain, ProbeRecord, Site, TracingEvent
from repro.core.records import RECORD_SCHEMA, SCHEMA_VERSION, SITE_FIELDS
from repro.errors import StoreError
from repro.store.segment import (
    KIND_SEALED,
    KIND_SPOOL,
    SegmentReader,
    SegmentWriter,
)
from tests.helpers import rows_of


def make_record(chain="aa" * 16, seq=0, **overrides):
    fields = dict(
        chain_uuid=chain,
        event_seq=seq,
        event=TracingEvent.STUB_START,
        interface="M::I",
        operation="op",
        object_id="p.obj-1",
        component="Comp",
        process="p",
        pid=1,
        host="h",
        thread_id=111,
        processor_type="PA-RISC",
        platform="HPUX 11",
        call_kind=CallKind.SYNC,
        collocated=False,
        domain=Domain.CORBA,
        wall_start=10,
        wall_end=12,
        cpu_start=None,
        cpu_end=None,
        child_chain_uuid=None,
        semantics={"args": ["1"]},
    )
    fields.update(overrides)
    site = Site(**{name: fields.pop(name) for name in SITE_FIELDS})
    return ProbeRecord(site, **fields)


def roundtrip(tmp_path, records, kind=KIND_SPOOL):
    path = str(tmp_path / "t.seg")
    writer = SegmentWriter(path, kind=kind)
    if kind == KIND_SEALED:
        by_chain = {}
        for record in records:
            by_chain.setdefault(record.chain_uuid, []).append(record)
        for chain in sorted(by_chain):
            writer.start_group()
            writer.append(by_chain[chain])
    else:
        writer.append(records)
    writer.seal()
    reader = SegmentReader(path)
    out = []
    reader.load_ranked(out)
    reader.close()
    os.unlink(path)
    return [record for _rank, record in sorted(out, key=lambda p: p[0])]


class TestFrameRoundtrip:
    def test_basic_record(self, tmp_path):
        record = make_record()
        assert roundtrip(tmp_path, [record]) == rows_of([record])

    def test_all_optional_fields_absent(self, tmp_path):
        record = make_record(
            wall_start=None, wall_end=None, cpu_start=None, cpu_end=None,
            child_chain_uuid=None, semantics=None,
        )
        assert roundtrip(tmp_path, [record]) == rows_of([record])

    def test_every_presence_combination(self, tmp_path):
        records = []
        for mask in range(64):
            records.append(make_record(
                seq=mask,
                wall_start=1000 + mask if mask & 1 else None,
                wall_end=2000 + mask if mask & 3 == 3 else None,
                cpu_start=300 + mask if mask & 4 else None,
                cpu_end=400 + mask if mask & 12 == 12 else None,
                child_chain_uuid=f"child-{mask}" if mask & 16 else None,
                semantics={"m": mask} if mask & 32 else None,
            ))
        assert roundtrip(tmp_path, records) == rows_of(records)

    def test_enum_fields_roundtrip(self, tmp_path):
        records = [
            make_record(seq=i, event=event, call_kind=kind,
                        collocated=coll, domain=domain)
            for i, (event, kind, coll, domain) in enumerate(
                (e, k, c, d)
                for e in TracingEvent
                for k in CallKind
                for c in (False, True)
                for d in Domain
            )
        ]
        assert roundtrip(tmp_path, records) == rows_of(records)

    def test_wide_timestamp_deltas(self, tmp_path):
        # Jumps far beyond i32 force the wide frame; mixing them with
        # narrow frames exercises the per-frame width flag.
        records = [
            make_record(seq=0, wall_start=10**15, wall_end=10**15 + 5,
                        cpu_start=7, cpu_end=9),
            make_record(seq=1, wall_start=10**15 + 100, wall_end=10**15 + 200,
                        cpu_start=8, cpu_end=11),
            make_record(seq=2, wall_start=5 * 10**15, wall_end=5 * 10**15 + 1,
                        cpu_start=10**14, cpu_end=10**14 + 3),
            make_record(seq=3, wall_start=5 * 10**15 + 50, cpu_start=10**14 + 9),
        ]
        assert roundtrip(tmp_path, records) == rows_of(records)

    def test_negative_time_deltas(self, tmp_path):
        # Arrival order does not imply clock order across processes.
        records = [
            make_record(seq=0, wall_start=10**9, cpu_start=10**6),
            make_record(seq=1, wall_start=10**9 - 5000, cpu_start=10**6 - 40),
        ]
        assert roundtrip(tmp_path, records) == rows_of(records)

    def test_unicode_and_long_strings(self, tmp_path):
        record = make_record(
            interface="Módulo::Überface", operation="ỏp" * 200,
            component="组件", process="proc-\N{SNOWMAN}",
            semantics={"note": "naïve \N{ROLLING ON THE FLOOR LAUGHING}"},
        )
        assert roundtrip(tmp_path, [record]) == rows_of([record])

    def test_sealed_groups_roundtrip(self, tmp_path):
        records = [
            make_record(chain=chain, seq=seq,
                        wall_start=10**12 + seq, cpu_start=500 + seq)
            for chain in ("aa" * 16, "bb" * 16, "cc" * 16)
            for seq in range(5)
        ]
        assert roundtrip(tmp_path, records, kind=KIND_SEALED) == rows_of(records)

    def test_sealed_group_offsets_decode_independently(self, tmp_path):
        path = str(tmp_path / "g.seg")
        writer = SegmentWriter(path, kind=KIND_SEALED)
        expected = {}
        for chain in ("aa" * 16, "bb" * 16, "cc" * 16):
            group = [make_record(chain=chain, seq=s, wall_start=10**12 + s)
                     for s in range(4)]
            expected[chain] = group
            writer.start_group()
            writer.append(group)
        writer.seal()
        reader = SegmentReader(path)
        # Decode the *last* group first: offsets must be self-contained.
        for cid, count, start_off, _ranks in reversed(reader.chains):
            chain = reader.strings[cid]
            assert reader.decode_group(start_off, count) == rows_of(expected[chain])
        reader.close()

    def test_many_records_cross_flush_boundary(self, tmp_path):
        # Big semantics payloads push the buffer past the flush
        # threshold, so the segment carries several records blocks.
        records = [
            make_record(seq=i, semantics={"pad": "x" * 4096, "i": i})
            for i in range(2048)
        ]
        assert roundtrip(tmp_path, records) == rows_of(records)

    def test_multi_block_spool_self_anchors_each_block(self, tmp_path, monkeypatch):
        # The reader resets its timestamp-delta state per records block,
        # so a spool whose appends straddle flush boundaries must anchor
        # every block on a raw reading — a delta leaking across a block
        # boundary corrupts every timestamp after it.
        import repro.store.segment as segment

        monkeypatch.setattr(segment, "_FLUSH_BYTES", 256)
        records = [
            make_record(
                seq=i, wall_start=10**12 + 17 * i, wall_end=10**12 + 17 * i + 5,
                cpu_start=900 + 3 * i, cpu_end=903 + 3 * i,
            )
            for i in range(50)
        ]
        path = str(tmp_path / "multi.spool.seg")
        writer = SegmentWriter(path, kind=KIND_SPOOL)
        for lo in range(0, len(records), 5):
            writer.append(records[lo:lo + 5])
        writer.seal()
        reader = SegmentReader(path)
        assert len(reader._regions) > 1  # the regression needs >1 block
        out = []
        reader.load_ranked(out)
        reader.close()
        assert [row for _rank, row in out] == rows_of(records)


class TestSegmentValidation:
    def test_rejects_non_segment_file(self, tmp_path):
        path = tmp_path / "garbage.seg"
        path.write_bytes(b"not a segment at all, definitely")
        with pytest.raises(StoreError, match="bad magic"):
            SegmentReader(str(path))

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.seg"
        path.write_bytes(b"")
        with pytest.raises(StoreError, match="empty"):
            SegmentReader(str(path))

    def test_rejects_other_schema_version(self, tmp_path):
        path = str(tmp_path / "v.seg")
        writer = SegmentWriter(path, schema_version=SCHEMA_VERSION + 1)
        writer.append([make_record()])
        writer.seal()
        with pytest.raises(StoreError, match="schema"):
            SegmentReader(str(path))

    def test_schema_table_covers_probe_record(self):
        # A record stores its site and the per-event fields; the ten site
        # fields are the Site's slots (plus its cached hash).
        per_event = tuple(f.name for f in RECORD_SCHEMA if not f.site)
        assert ("site", *per_event) == ProbeRecord.__slots__
        assert (*SITE_FIELDS, "_hash") == Site.__slots__
        assert len(RECORD_SCHEMA) == 22 and len(SITE_FIELDS) == 10


class TestWriterAbort:
    def test_abort_removes_the_unsealed_file(self, tmp_path):
        path = str(tmp_path / "a.seg")
        writer = SegmentWriter(path)
        writer.append([make_record()])
        writer.abort()
        assert not os.path.exists(path)

    def test_failed_unlink_is_logged_not_raised(self, tmp_path, caplog, monkeypatch):
        import logging

        path = str(tmp_path / "a.seg")
        writer = SegmentWriter(path)

        def refuse(target):
            raise PermissionError(13, "read-only", target)

        monkeypatch.setattr(os, "unlink", refuse)
        with caplog.at_level(logging.WARNING, logger="repro.store.segment"):
            writer.abort()  # must not raise: it runs inside error handling
        monkeypatch.undo()
        assert "could not remove aborted segment" in caplog.text
        assert "a.seg" in caplog.text
