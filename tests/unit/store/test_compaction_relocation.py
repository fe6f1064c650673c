"""Compaction writes what the record-level writer writes, byte for byte.

``SegmentStore.compact`` loads every source's ``(rank, row)`` pairs and
writes them through the grouped encoder a collection commit uses. What it
must write is, byte for byte, what decoding every source and feeding a
sealed ``SegmentWriter`` chain by chain through ``append(records,
ranks)`` writes — :func:`reference_compact` below, the oracle. The
generated source mixes live in
``tests/property/test_compaction_relocation.py``; here are the fixed cases
and the properties that are about *how* it runs: column blocks that flush
mid-merge, and a source that cannot be decoded.
"""

import os
import shutil
from array import array

import pytest

from repro.core.records import from_row
from repro.errors import StoreError
from repro.store import SegmentStore
from repro.store import segment as segment_module
from repro.store.segment import (
    KIND_SEALED,
    KIND_SPOOL,
    SegmentReader,
    SegmentWriter,
)

from tests.helpers import reseal, rows_of
from tests.unit.store.test_format_v3 import DATA, expected_pairs
from tests.unit.store.test_segment_codec import make_record
from tests.unit.store.test_segment_store import seeded_records

RUN = "r1"


def uuid_key(uuid):
    return uuid.encode("utf-8", "surrogatepass")


def write_groups(path, pairs, ranked=True):
    """``(rank, record)`` pairs as a sealed segment, the record-level way:
    per chain in uuid byte order, stable-sorted by event number, through
    ``append`` (``ranked=False``: no ranks at all)."""
    groups = {}
    for rank, record in pairs:
        groups.setdefault(record.chain_uuid, []).append((rank, record))
    writer = SegmentWriter(path, kind=KIND_SEALED)
    for uuid in sorted(groups, key=uuid_key):
        entries = sorted(groups[uuid], key=lambda entry: entry[1].event_seq)
        writer.append(
            [record for _rank, record in entries],
            ranks=[rank for rank, _record in entries] if ranked else None,
        )
    writer.seal()


def reference_compact(source_paths, out_path):
    """Decode + sealed ``append``: the record-level compactor.

    Returns the decoded ``(rank, record)`` pairs in load order — the
    brute-force truth for every scan of the compacted run.
    """
    decoded = []
    for path in source_paths:
        reader = SegmentReader(path)
        try:
            reader.load_ranked(decoded)
        finally:
            reader.close()
    pairs = [(rank, from_row(row)) for rank, row in decoded]
    write_groups(out_path, pairs)
    return pairs


def write_spool(run_dir, number, records, base):
    path = os.path.join(run_dir, f"{number:06d}.spool.seg")
    writer = SegmentWriter(path, kind=KIND_SPOOL, arrival_base=base)
    writer.append(records)
    writer.seal()
    return path


def write_sealed(run_dir, number, records, ranked=True):
    """``records`` as a sealed segment: with their positions as arrival
    ranks, or written directly (no ranks in the footer at all)."""
    path = os.path.join(run_dir, f"{number:06d}.sealed.seg")
    write_groups(path, enumerate(records), ranked)
    return path


def new_run_dir(root):
    run_dir = os.path.join(str(root), "runs", RUN)
    os.makedirs(run_dir)
    return run_dir


def compact_against_reference(root):
    """Open the store at ``root``, compact its run both ways, compare the
    files; returns the open store and the reference's decoded pairs."""
    store = SegmentStore(str(root), auto_compact=0)
    sources = [reader.path for reader in store._segments(store._run(RUN))]
    expected_path = os.path.join(str(root), "expected.sealed.seg")
    pairs = reference_compact(sources, expected_path)
    assert store.compact(RUN) is True
    (reader,) = store._segments(store._run(RUN))
    with open(reader.path, "rb") as actual, open(expected_path, "rb") as expected:
        assert actual.read() == expected.read()
    return store, pairs


def brute_chains(pairs):
    """What ``chains_for_run`` yields for ``(rank, record)`` pairs: row groups."""
    groups = {}
    for _rank, record in pairs:
        groups.setdefault(record.chain_uuid, []).append(record)
    return [
        (uuid, rows_of(sorted(groups[uuid], key=lambda record: record.event_seq)))
        for uuid in sorted(groups, key=uuid_key)
    ]


def brute_arrival(pairs):
    return [record for _rank, record in sorted(pairs, key=lambda pair: pair[0])]


class TestByteIdentity:
    def test_three_spools(self, tmp_path):
        run_dir = new_run_dir(tmp_path)
        records = seeded_records()
        for number, lo in enumerate((0, 40, 80), start=1):
            write_spool(run_dir, number, records[lo:lo + 40], lo)
        store, pairs = compact_against_reference(tmp_path)
        assert list(store.chains_for_run(RUN)) == brute_chains(pairs)
        assert list(store.all_records(RUN)) == records
        store.close()

    @pytest.mark.parametrize("ranked", [True, False])
    def test_sealed_source_then_spools(self, tmp_path, ranked):
        run_dir = new_run_dir(tmp_path)
        records = seeded_records()
        write_sealed(run_dir, 1, records[:50], ranked=ranked)
        write_spool(run_dir, 2, records[50:90], 50)
        write_spool(run_dir, 3, records[90:], 90)
        store, pairs = compact_against_reference(tmp_path)
        assert list(store.chains_for_run(RUN)) == brute_chains(pairs)
        assert list(store.all_records(RUN)) == brute_arrival(pairs)
        store.close()

    def test_u64_rank_fixture_then_spool(self, tmp_path):
        run_dir = new_run_dir(tmp_path)
        shutil.copy(
            os.path.join(DATA, "v3_sealed.seg"), os.path.join(run_dir, "000001.sealed.seg")
        )
        early = brute_arrival(expected_pairs("v3_sealed.seg"))
        late = [
            make_record(chain=f"{i % 6:032x}", seq=i % 9, wall_start=10**12 - i)
            for i in range(30)
        ]
        # After the fixture's last rank, which is past u32.
        write_spool(run_dir, 2, late, (1 << 32) + len(early))
        store, pairs = compact_against_reference(tmp_path)
        assert list(store.all_records(RUN)) == early + late
        store.close()

    @pytest.mark.parametrize("lost_bytes", [9, 300])  # mid-footer, mid-frame
    def test_truncated_spool_among_the_sources(self, tmp_path, lost_bytes):
        run_dir = new_run_dir(tmp_path)
        records = seeded_records()
        write_spool(run_dir, 1, records[:60], 0)
        torn = write_spool(run_dir, 2, records[60:], 60)
        os.truncate(torn, os.path.getsize(torn) - lost_bytes)
        store, pairs = compact_against_reference(tmp_path)
        assert 60 <= len(pairs) <= len(records)
        assert list(store.all_records(RUN)) == records[:len(pairs)]
        store.close()


class TestHowItRuns:
    def test_flushed_blocks_keep_every_group_whole(self, tmp_path, monkeypatch):
        # The same lowered block size drives the oracle's writer.
        monkeypatch.setattr(segment_module, "_BLOCK_ROWS", 40)
        run_dir = new_run_dir(tmp_path)
        records = seeded_records()
        write_spool(run_dir, 1, records[:70], 0)
        write_spool(run_dir, 2, records[70:], 70)
        store, pairs = compact_against_reference(tmp_path)
        (reader,) = store._segments(store._run(RUN))
        blocks = reader._blocks
        assert len(blocks) > 2
        # Each block holds whole groups, the next block starting at the
        # group after its last; all but the last hold at least 40 rows.
        assert [b.g0 for b in blocks] == [0] + [b.g1 for b in blocks[:-1]]
        assert blocks[-1].g1 == len(reader.chain_ids)
        assert all(b.rows >= 40 for b in blocks[:-1])
        expected = dict(brute_chains(pairs))
        for gi, cid in enumerate(reader.chain_ids):
            assert reader.decode_group(gi) == expected[reader.strings[cid]]
        store.close()

    def test_string_id_past_the_dictionary_aborts_cleanly(self, tmp_path):
        run_dir = new_run_dir(tmp_path)
        good = write_spool(run_dir, 1, seeded_records()[:60], 0)
        bad = write_spool(run_dir, 2, seeded_records()[60:], 60)
        reader = SegmentReader(bad)
        code, sites_at, _rows = reader._blocks[0].cols[2]  # the site-id column
        reader.close()
        width = array(code).itemsize
        with open(bad, "r+b") as handle:
            handle.seek(sites_at + 2 * width)  # the third row's site id
            handle.write(b"\xff" * width)
        with open(bad, "rb") as handle:
            resealed = reseal(handle.read())  # past the block's checksum
        with open(bad, "wb") as handle:
            handle.write(resealed)
        before = {path: open(path, "rb").read() for path in (good, bad)}
        store = SegmentStore(str(tmp_path), auto_compact=0)
        assert not store._segments(store._run(RUN))[1].partial
        with pytest.raises(StoreError, match="string dictionary"):
            store.compact(RUN)
        assert sorted(os.listdir(run_dir)) == ["000001.spool.seg", "000002.spool.seg"]
        assert {path: open(path, "rb").read() for path in (good, bad)} == before
        assert [r.path for r in store._segments(store._run(RUN))] == [good, bad]
        store.close()
