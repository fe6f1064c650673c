"""The fold columns a segment reader keeps per block: their layout and cost.

An aggregate read (``SegmentReader.fold``) walks each block's rows in
(site id, wall duration) order, site span by site span; the columns are
built on the first fold and kept for the reader's life, so what they cost
per row is what an open store pays for its aggregate queries.
"""

import pytest

from repro.core import TracingEvent
from repro.store.segment import (
    _BLOCK_ROWS,
    KIND_SEALED,
    KIND_SPOOL,
    ScanStats,
    SegmentReader,
    SegmentWriter,
    _anchor_columns,
    _FoldColumns,
    _full_readings,
    _present,
)
from tests.unit.store.test_segment_codec import make_record

#: What a kept block may cost per row, every buffer counted.
MAX_BYTES_PER_ROW = 40
_CHAINS = 1024
_SITES = 8


def _records(count):
    """``count`` records over 1 024 chains that take turns (a spool's runs
    are then one row long) and eight sites, with thread ids and epoch
    timestamps of real width; every ninth record lacks its start."""
    records = []
    for i in range(count):
        start = 1_700_000_000_000_000_000 + 997 * i
        records.append(make_record(
            chain=f"{i % _CHAINS:032x}", seq=i, event=TracingEvent(1 + i % 4),
            interface=f"M::I{i % _SITES % 3}", operation=f"op{i % _SITES}",
            thread_id=140_000_000_000_000 + i % 6,
            wall_start=None if i % 9 == 0 else start, wall_end=start + (i * 7919) % 50_000,
            semantics=None,
        ))
    return records


def _write(path, records, kind):
    writer = SegmentWriter(path, kind=kind)
    if kind == KIND_SEALED:
        records = sorted(records, key=lambda r: (r.chain_uuid, r.event_seq))
    writer.append(records)
    writer.seal()
    return SegmentReader(path)


def _nbytes(columns: _FoldColumns) -> int:
    buffers = [getattr(columns, name) for name in _FoldColumns.__slots__]
    return sum(
        len(column) * getattr(column, "itemsize", 1) for column in buffers if column is not None
    )


@pytest.mark.parametrize("kind", [KIND_SPOOL, KIND_SEALED], ids=["spool", "sealed"])
def test_a_full_block_costs_at_most_40_bytes_a_row(tmp_path, kind):
    reader = _write(str(tmp_path / "full.seg"), _records(_BLOCK_ROWS + 4), kind)
    try:
        block = reader._blocks[0]
        assert block.rows == _BLOCK_ROWS
        columns = reader._fold_columns(block)
        assert len(columns.positions) == block.rows  # the map is counted too
        assert _nbytes(columns) <= MAX_BYTES_PER_ROW * block.rows
    finally:
        reader.close()


@pytest.mark.parametrize("kind", [KIND_SPOOL, KIND_SEALED], ids=["spool", "sealed"])
def test_rows_lie_in_site_then_duration_order(tmp_path, kind):
    records = _records(600)
    reader = _write(str(tmp_path / "order.seg"), records, kind)
    try:
        (block,) = reader._blocks
        columns = reader._fold_columns(block)
        stored = [row for _cid, _ranks, rows in reader.scan(None, ScanStats()) for row in rows]
        bounds = columns.bounds
        assert list(columns.sids) == sorted(set(map(reader.sites.index, (r[0] for r in stored))))
        assert bounds[0] == 0 and bounds[-1] == block.rows
        for k, sid in enumerate(columns.sids):
            lo, hi = bounds[k], bounds[k + 1]
            rows = [i for i, p in enumerate(columns.positions) if lo <= p < hi]
            assert {reader.sites.index(stored[i][0]) for i in rows} == {sid}
            span = list(columns.durations[lo:hi])
            assert span == sorted(span)
        for i, row in enumerate(stored):
            p = columns.positions[i]
            assert columns.event[p] == int(row[3])
            assert columns.tid[p] == row[4]
            assert reader.strings[columns.cids[p]] == row[1]
            timed = row[7] is not None and row[8] is not None
            assert columns.timed[p] == timed
            assert columns.durations[p] == (row[8] - row[7] if timed else 0)
            anchor = row[7] if row[7] is not None else row[8]
            assert columns.anchor[p] == (anchor or 0)
            assert columns.has_anchor[p] == (anchor is not None)
    finally:
        reader.close()


def _anchors_row_by_row(wall):
    """The anchors and presence bytes, one comprehension step per row."""
    starts, ends = map(list, wall)
    if None not in starts:
        return starts, b"\1" * len(starts)
    anchors = [s if s is not None else e for s, e in zip(starts, ends)]
    return [a or 0 for a in anchors], _present(anchors)


def _wall(has_start: bytes, has_end: bytes):
    """A 4 096-row block's wall readings as the reader decodes them: a
    start delta per row that has a start, a duration per row that has an
    end (a row without a start stores its end there). The flags bytes
    carry the same presence bits (bit 0 start, bit 1 end)."""
    deltas = [0 if i % 50 == 0 else 997 for i in range(has_start.count(1))]
    durations = [(i * 7919) % 50_000 for i in range(has_end.count(1))]
    return _full_readings(deltas, durations, 1_700_000_000_000_000_000, has_start, has_end)


@pytest.mark.parametrize(
    "missing, ends_missing",
    [
        (lambda i: i % 9 == 0, lambda i: False),
        (lambda i: i % 9 == 0, lambda i: i % 9 == 0),
        (lambda i: i % 9 == 0, lambda i: i % 27 == 0),
        (lambda i: True, lambda i: False),
        (lambda i: True, lambda i: i % 5 == 0),
        (lambda i: False, lambda i: i % 7 == 0),
    ],
    ids=[
        "ninth-start", "ninth-both", "ninth-start-27th-end",
        "no-start", "no-start-fifth-end", "every-start",
    ],
)
def test_anchor_columns_equal_the_row_by_row_build(missing, ends_missing):
    rows = range(_BLOCK_ROWS)
    has_start = bytes(not missing(i) for i in rows)
    has_end = bytes(not ends_missing(i) for i in rows)
    flags = bytes(map(lambda start, end: start | end << 1, has_start, has_end))
    anchors, has = _anchor_columns(_wall(has_start, has_end), flags)
    expected_anchors, expected_has = _anchors_row_by_row(_wall(has_start, has_end))
    assert anchors == expected_anchors
    assert has == expected_has
    assert isinstance(has, bytes)
