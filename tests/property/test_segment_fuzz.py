"""Byte-level fuzzing of the segment reader (column format).

Take a valid spool or sealed segment — written through ``SegmentWriter``,
or by a store's second collection commit (``arrival_base > 0``), or a
spool torn mid-block — damage
its bytes anywhere — flip a bit, overwrite a run, delete a run, truncate —
and open it. Every way
records (or their aggregates) leave a segment must then either work or
raise :class:`StoreError`: ``SegmentReader(path)``, a full ``scan``, a
predicated ``scan`` and ``fold``, full and predicated. Never another
exception, never more records than the undamaged file holds, and a
``dropped_bytes`` that stays inside the file. Where both the fold and the
scan of one filter succeed they agree: the fold equals the record-level
folds of what the scan decoded — per-operation counts and intervals,
chains, population statistics — and counts the same :class:`ScanStats`.

The pristine files cover what a row can look like: with and without
semantics, processes in LATENCY and in CPU mode (so rows lack one
reading or the other), a collocated call, a oneway fork (child link), a
wall-clock jump past ``i32`` in mid-block, several column blocks and
several site-delta blocks.

Derandomized: the examples are a function of this file alone. Tier-1
runs the suite profile's budget (``tests/conftest.py``); CI's fuzz job
raises it through ``REPRO_FUZZ_EXAMPLES``.
"""

from __future__ import annotations


import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CallKind, TracingEvent
from repro.core.records import from_row
from repro.errors import StoreError
from repro.store import ScanPredicate, ScanStats, SegmentStore
from repro.store import segment as segment_module
from repro.store.query import (
    fold_operations,
    fold_population_stats,
    merge_operations,
    merge_population,
    segment_filter,
)
from repro.store.segment import (
    KIND_SEALED,
    KIND_SPOOL,
    SegmentReader,
    SegmentWriter,
)

from tests.unit.store.test_segment_codec import make_record

PREDICATES = (
    ScanPredicate(interfaces={"Fz::A"}, operations={"op1"}),
    ScanPredicate(ts_min=10**12 + 5_000, ts_max=10**12 + 20_000),
    ScanPredicate(chain_prefix="0" * 31 + "2"),
)


def pristine_records(semantics: bool) -> list:
    records = []
    for i in range(48):
        latency = i % 3 != 2  # every third record comes from a CPU-mode process
        oneway = i % 13 == 5
        records.append(make_record(
            chain=f"{i % 5:032x}", seq=i // 5, event=TracingEvent(1 + i % 4),
            interface="Fz::A" if i % 4 < 2 else "Fz::B", operation=f"op{i % 3}",
            process="lat" if latency else "cpu", pid=7 if latency else 8,
            thread_id=140_000_000_000_000 + i % 3,
            call_kind=CallKind.ONEWAY if oneway else CallKind.SYNC,
            collocated=i % 7 == 0,
            wall_start=(10**12 + 700 * i if i != 30 else 3 * 10**12) if latency else None,
            wall_end=10**12 + 700 * i + 9 if latency and i % 10 != 9 else None,
            cpu_start=None if latency else 5_000 * i,
            cpu_end=None if latency else 5_000 * i + 3,
            child_chain_uuid=f"{(i + 1) % 5:032x}" if oneway else None,
            semantics={"args": [i, "é"]} if semantics and i % 4 == 0 else None,
        ))
    return records


COMMITTED = "committed"  # in place of a kind: the store's own sealed write
SPOOL_CUT = "spool-cut"  # a spool torn 17 bytes into its third column block


def pristine_segment(tmp_path, kind, semantics: bool) -> tuple[bytes, int]:
    """The bytes of a valid segment of ``kind`` and how many records it holds."""
    records = pristine_records(semantics)
    if kind == COMMITTED:
        store = SegmentStore(str(tmp_path / "store"), auto_compact=0)
        for batch in (records[:10], records[10:30], records[30:]):
            with store.bulk_ingest():  # the second and third land at a base > 0
                store.insert_records("r", batch[:7])
                store.insert_records("r", batch[7:])
        *_earlier, last = store._segments(store._run("r"))
        store.close()
        assert (last.sealed, last.arrival_base) == (True, 30)
        with open(last.path, "rb") as handle:
            return handle.read(), len(records) - 30
    if kind == SPOOL_CUT:
        data, _count = pristine_segment(tmp_path, KIND_SPOOL, semantics)
        path = str(tmp_path / "whole.seg")
        with open(path, "wb") as handle:
            handle.write(data)
        reader = SegmentReader(path)
        cut = reader._blocks[2].body[0] + 17
        reader.close()
        return data[:cut], 24  # two whole blocks of twelve rows survive
    path = str(tmp_path / "pristine.seg")
    writer = SegmentWriter(path, kind=kind, arrival_base=100)
    if kind == KIND_SEALED:
        groups: dict = {}
        for rank, record in enumerate(records):
            groups.setdefault(record.chain_uuid, []).append((rank, record))
        for uuid in sorted(groups):
            writer.append([r for _k, r in groups[uuid]], ranks=[k for k, _r in groups[uuid]])
    else:
        for lo in range(0, len(records), 12):
            writer.append(records[lo:lo + 12])
    writer.seal()
    with open(path, "rb") as handle:
        return handle.read(), len(records)


@pytest.fixture(scope="module", params=[
    (KIND_SPOOL, False), (KIND_SPOOL, True), (KIND_SEALED, False), (KIND_SEALED, True),
    (COMMITTED, True), (SPOOL_CUT, True),
], ids=["spool", "spool-semantics", "sealed", "sealed-semantics", "committed", "spool-cut"])
def pristine(request, tmp_path_factory):
    kind, semantics = request.param
    # Blocks of a dozen rows: several column, dict-delta and site-delta
    # blocks per file.
    rows, segment_module._BLOCK_ROWS = segment_module._BLOCK_ROWS, 12
    try:
        data, count = pristine_segment(tmp_path_factory.mktemp("pristine"), kind, semantics)
    finally:
        segment_module._BLOCK_ROWS = rows
    path = str(tmp_path_factory.mktemp("fuzzed") / "fuzzed.seg")
    assert exercise(data, path) == count  # the undamaged file answers in full
    return data, count, path


MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 1 << 30), st.integers(0, 7)),
        st.tuples(st.just("overwrite"), st.integers(0, 1 << 30), st.binary(min_size=1, max_size=8)),
        st.tuples(st.just("delete"), st.integers(0, 1 << 30), st.integers(1, 64)),
        st.tuples(st.just("truncate"), st.integers(0, 1 << 30), st.none()),
    ),
    min_size=1, max_size=3,
)


def mutate(data: bytes, mutations) -> bytes:
    out = bytearray(data)
    for kind, where, what in mutations:
        if not out:
            break
        pos = where % len(out)
        if kind == "flip":
            out[pos] ^= 1 << what
        elif kind == "overwrite":
            out[pos:pos + len(what)] = what
        elif kind == "delete":
            del out[pos:pos + what]
        else:
            del out[pos:]
    return bytes(out)


def assert_fold_is_record_fold(fold, rows) -> None:
    chains: dict = {}
    for row in rows:
        chains.setdefault(row[1], []).append(row)
    folded, folded_chains = merge_operations([fold])
    expected, expected_chains = fold_operations(chains.items())
    assert folded_chains == expected_chains
    assert {
        key: (op.records, op.wall_sum, sorted(op.durations))
        for key, op in folded.items()
    } == {
        key: (op.records, op.wall_sum, sorted(op.durations))
        for key, op in expected.items()
    }
    assert merge_population([fold]) == fold_population_stats(map(from_row, rows))


def exercise(data: bytes, path: str) -> int:
    """Open ``data`` as a segment and read it every way there is; returns
    the most records any one scan yielded (0 for a refused file)."""
    with open(path, "wb") as handle:
        handle.write(data)
    try:
        reader = SegmentReader(path)
    except StoreError:
        return 0
    try:
        assert 0 <= reader.dropped_bytes <= len(data)
        assert reader.record_count >= 0
        scanned = 0
        for predicate in (None, *PREDICATES):
            try:
                flt = None if predicate is None else segment_filter(reader, predicate)
            except StoreError:
                continue
            if predicate is not None and flt is None:
                continue
            rows, by_records = None, ScanStats()
            try:
                rows = []
                for _cid, ranks, unit in reader.scan(flt, by_records):
                    assert len(ranks) >= len(unit)
                    rows += unit
                    scanned = max(scanned, len(rows))
            except StoreError:
                rows = None
            by_frames = ScanStats()
            try:
                fold = reader.fold(flt, by_frames, threads=True)
            except StoreError:
                continue
            if rows is not None:
                assert_fold_is_record_fold(fold, rows)
                assert by_frames == by_records
        return scanned
    finally:
        reader.close()


@settings(
    derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutations=MUTATIONS)
def test_a_damaged_segment_reads_or_raises_store_error(pristine, mutations):
    data, count, path = pristine
    assert exercise(mutate(data, mutations), path) <= count
