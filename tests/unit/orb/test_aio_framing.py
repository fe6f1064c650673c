"""Stream framing: the incremental parser is fragmentation-proof.

The asyncio plane re-slices a coalesced byte stream back into GIOP
frames; correctness means the incremental parser is byte-identical to
the one-shot reference decoder under *any* chunk fragmentation — 1-byte
splits, length prefixes straddling chunks, many frames per chunk.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MarshalError
from repro.orb.aio.framing import (
    ASYNC_STREAM_PRELUDE,
    MAX_FRAME_BYTES,
    FramedConnectionWriter,
    StreamFrameParser,
    frame_message,
    parse_frames_blocking,
)
from repro.orb.giop import decode_message


def _fragment(stream: bytes, cuts: list[int]) -> list[bytes]:
    """Split ``stream`` at the (normalized) cut offsets."""
    points = sorted({min(c % (len(stream) + 1), len(stream)) for c in cuts})
    chunks = []
    prev = 0
    for point in points:
        chunks.append(stream[prev:point])
        prev = point
    chunks.append(stream[prev:])
    return [c for c in chunks if c] or [b""]


class TestFragmentationProperty:
    @given(
        payloads=st.lists(st.binary(min_size=0, max_size=64), max_size=12),
        cuts=st.lists(st.integers(min_value=0, max_value=10_000), max_size=40),
    )
    def test_incremental_matches_blocking_reference(self, payloads, cuts):
        stream = b"".join(frame_message(p) for p in payloads)
        parser = StreamFrameParser()
        out: list[bytes] = []
        for chunk in _fragment(stream, cuts):
            out.extend(parser.feed(chunk))
        assert out == parse_frames_blocking(stream) == payloads
        assert parser.pending_bytes == 0

    @given(payloads=st.lists(st.binary(min_size=0, max_size=32), max_size=6))
    def test_one_byte_splits(self, payloads):
        stream = b"".join(frame_message(p) for p in payloads)
        parser = StreamFrameParser()
        out: list[bytes] = []
        for i in range(len(stream)):
            out.extend(parser.feed(stream[i : i + 1]))
        assert out == payloads


class TestFramingEdges:
    def test_header_straddles_feed_boundary(self):
        frame = frame_message(b"abcdef")
        parser = StreamFrameParser()
        assert parser.feed(frame[:2]) == []
        assert parser.pending_bytes == 2
        assert parser.feed(frame[2:5]) == []
        assert parser.feed(frame[5:]) == [b"abcdef"]

    def test_trailing_partial_frame_stays_pending(self):
        stream = frame_message(b"one") + frame_message(b"two")[:3]
        parser = StreamFrameParser()
        assert parser.feed(stream) == [b"one"]
        assert parser.pending_bytes == 3
        with pytest.raises(MarshalError):
            parse_frames_blocking(stream)

    def test_oversized_length_prefix_rejected(self):
        bad = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"x"
        with pytest.raises(MarshalError):
            StreamFrameParser().feed(bad)
        with pytest.raises(MarshalError):
            parse_frames_blocking(bad)
        with pytest.raises(MarshalError):
            frame_message(b"\x00" * (MAX_FRAME_BYTES + 1))

    def test_prelude_is_not_a_valid_giop_message(self):
        # Legacy message-mode readers must drop the prelude as malformed
        # instead of misinterpreting it; that is the handshake's safety.
        with pytest.raises(Exception):
            decode_message(ASYNC_STREAM_PRELUDE)

    def test_framed_writer_frames_and_delegates(self):
        sent = []

        class FakeConn:
            local_label = "a"
            peer_label = "b"
            closed = False

            def send(self, payload, sender_host=None):
                sent.append(payload)

            def close(self):
                self.closed = True

        conn = FakeConn()
        writer = FramedConnectionWriter(conn)
        writer.send(b"hello")
        assert sent == [frame_message(b"hello")]
        assert parse_frames_blocking(sent[0]) == [b"hello"]
        assert writer.local_label == "a" and writer.peer_label == "b"
        assert not writer.closed
        writer.close()
        assert writer.closed
