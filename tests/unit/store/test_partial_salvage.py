"""Partial-segment salvage: truncated spools keep their decodable prefix.

A crash mid-drain leaves a spool segment without its footer and trailer.
The reader must fall back to a front-to-back block walk, rebuild the
string dictionary from the inline dict-delta blocks, decode every
complete frame, and account the bytes it had to drop — the loss shows up
in ``store-info`` instead of the whole file vanishing.
"""

import os

import pytest

from repro.core import RunMetadata
from repro.errors import StoreError
from repro.store import SegmentStore
from repro.store.segment import KIND_SEALED, KIND_SPOOL, SegmentReader, SegmentWriter

from tests.helpers import rows_of
from tests.unit.store.test_segment_codec import make_record


def full_records():
    return [
        make_record(
            chain=f"{i % 5:032x}", seq=i,
            wall_start=10**12 + 11 * i, wall_end=10**12 + 11 * i + 3,
            cpu_start=100 + i, cpu_end=103 + i,
            semantics={"i": i} if i % 3 == 0 else None,
        )
        for i in range(300)
    ]


@pytest.fixture
def sealed_spool(tmp_path):
    path = str(tmp_path / "full.spool.seg")
    writer = SegmentWriter(path, kind=KIND_SPOOL)
    writer.append(full_records())
    writer.seal()
    return path


def truncate_to(source, cut, tmp_path):
    data = open(source, "rb").read()[:cut]
    path = str(tmp_path / f"cut-{cut}.spool.seg")
    with open(path, "wb") as handle:
        handle.write(data)
    return path


class TestSalvage:
    @pytest.mark.parametrize("fraction", [0.999, 0.75, 0.5, 0.1])
    def test_prefix_survives(self, sealed_spool, tmp_path, fraction):
        size = os.path.getsize(sealed_spool)
        reader = SegmentReader(
            truncate_to(sealed_spool, int(size * fraction), tmp_path)
        )
        assert reader.partial
        ranked = []
        reader.load_ranked(ranked)
        salvaged = [r for _rank, r in sorted(ranked, key=lambda p: p[0])]
        assert salvaged == rows_of(full_records()[: len(salvaged)])
        assert reader.record_count == len(salvaged)
        assert reader.dropped_bytes > 0
        reader.close()

    def test_cut_mid_frame_drops_only_the_tail(self, sealed_spool, tmp_path):
        size = os.path.getsize(sealed_spool)
        # Walk back a handful of bytes from the footer: lands mid-frame
        # or mid-footer, never exactly on a frame boundary for all of
        # them — every cut must still salvage a consistent prefix.
        for back in (1, 17, 40, 90):
            reader = SegmentReader(truncate_to(sealed_spool, size - back, tmp_path))
            assert reader.partial
            assert 0 < reader.record_count <= 300
            assert reader.dropped_bytes >= 0
            reader.close()

    def test_header_only_file_salvages_empty(self, sealed_spool, tmp_path):
        reader = SegmentReader(truncate_to(sealed_spool, 20, tmp_path))
        assert reader.partial
        assert reader.record_count == 0
        assert reader.chains == []
        reader.close()

    def test_corrupt_footer_body_falls_back_to_salvage(self, sealed_spool, tmp_path):
        # A valid trailer over a corrupt footer (here: an absurd string
        # count) must salvage the intact record blocks instead of blowing
        # up SegmentReader.__init__ and losing the whole segment.
        import struct

        data = bytearray(open(sealed_spool, "rb").read())
        (footer_off,) = struct.unpack_from("<Q", data, len(data) - 16)
        struct.pack_into("<I", data, footer_off + 9, 0xFFFFFFFF)  # n_strings
        path = str(tmp_path / "bad-footer.spool.seg")
        with open(path, "wb") as handle:
            handle.write(data)
        reader = SegmentReader(path)
        assert reader.partial
        ranked = []
        reader.load_ranked(ranked)
        salvaged = [r for _rank, r in sorted(ranked, key=lambda p: p[0])]
        assert salvaged == rows_of(full_records())
        assert reader.dropped_bytes > 0
        reader.close()

    def test_store_reads_through_partial_segment(self, tmp_path):
        store = SegmentStore(str(tmp_path / "s"), auto_compact=0)
        store.create_run(RunMetadata(run_id="r1"))
        records = full_records()
        store.insert_records("r1", records[:200])
        store.insert_records("r1", records[200:])
        store.close()

        # Truncate the second drain increment's segment, as a crash
        # between the writes and the footer flush would.
        run_dir = os.path.join(str(tmp_path / "s"), "runs", "r1")
        segments = sorted(n for n in os.listdir(run_dir) if n.endswith(".seg"))
        victim = os.path.join(run_dir, segments[-1])
        data = open(victim, "rb").read()
        with open(victim, "wb") as handle:
            handle.write(data[: len(data) // 2])

        reopened = SegmentStore(str(tmp_path / "s"), auto_compact=0)
        count = reopened.record_count("r1")
        assert 200 <= count < 300
        salvaged = list(reopened.all_records("r1"))
        assert salvaged == records[:count]
        info = reopened.store_info()
        assert info["runs"][0]["partial_segments"] == 1
        # Compaction folds the salvage into a clean sealed segment.
        assert reopened.compact("r1") is True
        assert list(reopened.all_records("r1")) == records[:count]
        assert reopened.store_info()["runs"][0]["partial_segments"] == 0
        reopened.close()


class TestIdsPastTheTables:
    """A frame carries three ids — chain, site, child. One that points past
    the string dictionary or the site table is a typed error from a
    complete segment, and the end of the decodable prefix of a salvaged one."""

    #: byte offsets of the three ids within a frame
    CHAIN, SITE, CHILD = 0, 7, 19

    def segment(self, tmp_path, kind):
        """A segment of ``kind`` whose every frame carries a child id; its
        path, where its frames start, and the frame size."""
        records = [
            make_record(
                chain="0a" * 16, seq=i, wall_start=10**12 + i, wall_end=10**12 + i + 1,
                child_chain_uuid="0b" * 16, semantics=None,
            )
            for i in range(100)
        ]
        path = str(tmp_path / "ids.seg")
        writer = SegmentWriter(path, kind=kind)
        writer.start_group()
        writer.append(records)
        writer.seal()
        reader = SegmentReader(path)
        start = reader._regions[0][0]
        reader.close()
        return path, start + 67, 47  # past the wide first frame; narrow frames

    @staticmethod
    def overwrite(path, at):
        with open(path, "r+b") as handle:
            handle.seek(at)
            handle.write((0x00FFFFFF).to_bytes(4, "little"))

    @pytest.mark.parametrize("kind", [KIND_SPOOL, KIND_SEALED])
    @pytest.mark.parametrize("which", ["CHAIN", "SITE", "CHILD"])
    def test_complete_segment_raises_store_error_naming_the_file(self, tmp_path, kind, which):
        path, second_frame, _size = self.segment(tmp_path, kind)
        self.overwrite(path, second_frame + getattr(self, which))
        reader = SegmentReader(path)
        try:
            assert not reader.partial  # the footer is intact: nothing warned of it
            with pytest.raises(StoreError, match="ids.seg"):
                reader.load_ranked([])
        finally:
            reader.close()

    @pytest.mark.parametrize("kind", [KIND_SPOOL, KIND_SEALED])
    @pytest.mark.parametrize("which", ["CHAIN", "SITE", "CHILD"])
    def test_salvage_stops_before_the_frame(self, tmp_path, kind, which):
        path, second_frame, size = self.segment(tmp_path, kind)
        self.overwrite(path, second_frame + 10 * size + getattr(self, which))
        os.truncate(path, os.path.getsize(path) - 40)  # into the footer: salvage
        reader = SegmentReader(path)
        try:
            assert reader.partial
            # The wide first frame and ten narrow ones precede the damage.
            assert reader.record_count == 11
            assert reader.dropped_bytes == os.path.getsize(path) - (second_frame + 10 * size)
            ranked = []
            reader.load_ranked(ranked)
            assert [row[2] for _rank, row in ranked] == list(range(11))
        finally:
            reader.close()
