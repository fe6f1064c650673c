"""Golden column-format (header format 2) files: what the reader reads, what
the writer writes.

The three ``data/v3_*.seg`` files hold the records of the frame-format
fixtures (``test_format_v2.py``), written by ``SegmentWriter``:

- ``v3_sealed.seg``: a sealed segment (``FXTS`` + ``FXFN``) of nine chain
  groups in one column block; one arrival rank is past ``u32``, so the
  footer's rank width code is 1 (``u64``);
- ``v3_spool.seg``: a spool, arrival base 40, in column blocks of eight
  rows (``_BLOCK_ROWS = 8``): six blocks, the last of one row;
- ``v3_spool_cut.seg``: that spool's bytes cut 17 bytes into its fourth
  column block, as a crash mid-write leaves it.

``data/v3_expected.json`` holds each file's ``[rank, the 22 fields]`` pairs
in file order. A change that alters a byte the writer writes, or how the
reader reads one, fails here.
"""

import json
import os
import struct

import pytest

from repro.core import CallKind, Domain, ProbeRecord, Site, TracingEvent
from repro.core.records import SITE_FIELDS, as_row
from repro.store import segment as segment_module
from repro.store.segment import KIND_SEALED, KIND_SPOOL, SegmentReader, SegmentWriter

from tests.unit.store.test_format_v2 import DATA, data

NAMES = ["v3_sealed.seg", "v3_spool.seg", "v3_spool_cut.seg"]


def expected_pairs(name):
    """``(rank, record)`` pairs of one file, in file order."""
    with open(os.path.join(DATA, "v3_expected.json")) as handle:
        rows = json.load(handle)[name]
    pairs = []
    for rank, fields in rows:
        fields["event"] = TracingEvent(fields["event"])
        fields["call_kind"] = CallKind(fields["call_kind"])
        fields["domain"] = Domain(fields["domain"])
        site = Site(**{field: fields.pop(field) for field in SITE_FIELDS})
        pairs.append((rank, ProbeRecord(site, **fields)))
    return pairs


@pytest.fixture
def reader():
    opened = []

    def open_reader(name):
        opened.append(SegmentReader(os.path.join(DATA, name)))
        return opened[-1]

    yield open_reader
    for each in opened:
        each.close()


@pytest.mark.parametrize("name", NAMES)
def test_reads_to_the_expected_records_and_ranks(reader, name):
    segment = reader(name)
    expected = expected_pairs(name)
    out = []
    segment.load_ranked(out)
    assert out == [(rank, tuple(as_row(record))) for rank, record in expected]
    assert data(name)[4] == 2  # the header's format
    assert segment.schema_version == 2
    assert segment.record_count == len(expected)
    assert segment.sealed is (name == "v3_sealed.seg")


def test_sealed_footer_holds_u64_ranks(reader):
    segment = reader("v3_sealed.seg")
    raw = data("v3_sealed.seg")
    (footer_off,) = struct.unpack_from("<Q", raw, len(raw) - 16)
    assert raw[footer_off + 8] == 1
    assert max(rank for rank, _record in expected_pairs("v3_sealed.seg")) >= 1 << 32
    assert segment.fn_table is not None and segment.chain_ts is not None
    assert len(segment._blocks) == 1 and len(segment.chain_ids) == 9


def test_cut_spool_salvages_exactly_the_whole_blocks_before_the_cut(reader):
    whole, cut = data("v3_spool.seg"), data("v3_spool_cut.seg")
    assert whole.startswith(cut)
    segment = reader("v3_spool_cut.seg")
    prefix = expected_pairs("v3_spool_cut.seg")
    assert prefix == expected_pairs("v3_spool.seg")[:len(prefix)]
    assert (segment.partial, segment.dropped_bytes, segment.record_count) == (
        True, 461, 24,
    )


def test_writer_writes_the_sealed_bytes(tmp_path):
    pairs = expected_pairs("v3_sealed.seg")
    path = str(tmp_path / "sealed.seg")
    writer = SegmentWriter(path, KIND_SEALED)
    writer.append(
        [as_row(record) for _rank, record in pairs], [rank for rank, _r in pairs]
    )
    writer.seal()
    with open(path, "rb") as handle:
        assert handle.read() == data("v3_sealed.seg")


def test_writer_writes_the_spool_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(segment_module, "_BLOCK_ROWS", 8)
    pairs = expected_pairs("v3_spool.seg")
    path = str(tmp_path / "spool.seg")
    writer = SegmentWriter(path, KIND_SPOOL, arrival_base=pairs[0][0])
    writer.append([record for _rank, record in pairs])
    writer.seal()
    with open(path, "rb") as handle:
        assert handle.read() == data("v3_spool.seg")
