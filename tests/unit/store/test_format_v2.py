"""Golden frame-format (header format 1) files: what the reader reads.

The three ``data/v2_*.seg`` files were written by the frame-format
``SegmentWriter`` (commit c9d9f49), the last to write them:

- ``v2_sealed.seg``: a sealed segment (``FXTS`` + ``FXFN``) of nine chain
  groups, written by ``append_groups``; one arrival rank is past ``u32``,
  so the footer's rank width code is 1 (``u64``);
- ``v2_spool.seg``: a spool, arrival base 40, written by one ``append``;
- ``v2_spool_cut.seg``: that spool's bytes cut 17 bytes into its 31st
  frame, as a crash mid-write leaves it.

Three processes on two hosts (one in CPU mode), all four domains,
collocated calls, oneway forks, semantics, an event number past ``i32``
and a wall-clock jump that needs a wide frame. ``data/v2_expected.json``
holds each file's ``[rank, the 22 fields]`` pairs in file order. A change
to how the reader reads one fails here.
"""

import json
import os
import struct

import pytest

from repro.core import CallKind, Domain, ProbeRecord, Site, TracingEvent
from repro.core.records import SITE_FIELDS, as_row
from repro.store.segment import SegmentReader

DATA = os.path.join(os.path.dirname(__file__), "data")


def expected_pairs(name):
    """``(rank, record)`` pairs of one file, in file order."""
    with open(os.path.join(DATA, "v2_expected.json")) as handle:
        rows = json.load(handle)[name]
    pairs = []
    for rank, fields in rows:
        fields["event"] = TracingEvent(fields["event"])
        fields["call_kind"] = CallKind(fields["call_kind"])
        fields["domain"] = Domain(fields["domain"])
        site = Site(**{field: fields.pop(field) for field in SITE_FIELDS})
        pairs.append((rank, ProbeRecord(site, **fields)))
    return pairs


def data(name):
    with open(os.path.join(DATA, name), "rb") as handle:
        return handle.read()


@pytest.fixture
def reader():
    opened = []

    def open_reader(name):
        opened.append(SegmentReader(os.path.join(DATA, name)))
        return opened[-1]

    yield open_reader
    for each in opened:
        each.close()


@pytest.mark.parametrize("name", ["v2_sealed.seg", "v2_spool.seg", "v2_spool_cut.seg"])
def test_reads_to_the_expected_records_and_ranks(reader, name):
    segment = reader(name)
    expected = expected_pairs(name)
    out = []
    segment.load_ranked(out)
    assert out == [(rank, tuple(as_row(record))) for rank, record in expected]
    assert segment.schema_version == 2
    assert segment.record_count == len(expected)
    assert segment.sealed is (name == "v2_sealed.seg")


def test_sealed_footer_holds_u64_ranks(reader):
    segment = reader("v2_sealed.seg")
    raw = data("v2_sealed.seg")
    (footer_off,) = struct.unpack_from("<Q", raw, len(raw) - 16)
    assert raw[footer_off + 8] == 1
    assert max(rank for rank, _record in expected_pairs("v2_sealed.seg")) >= 1 << 32
    assert segment.fn_table is not None and segment.chain_ts is not None


def test_cut_spool_salvages_exactly_the_expected_prefix(reader):
    whole, cut = data("v2_spool.seg"), data("v2_spool_cut.seg")
    assert whole.startswith(cut)
    segment = reader("v2_spool_cut.seg")
    prefix = expected_pairs("v2_spool_cut.seg")
    assert prefix == expected_pairs("v2_spool.seg")[:len(prefix)]
    assert (segment.partial, segment.dropped_bytes, segment.record_count) == (
        True, 17, 30,
    )
