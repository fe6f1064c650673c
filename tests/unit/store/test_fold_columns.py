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
    _FoldColumns,
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
