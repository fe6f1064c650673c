"""Byte-level fuzzing of GIOP decoding: every failure is a MarshalError.

Take a valid request or reply — with or without an FTL, with non-ASCII
strings, every reply status — and damage its bytes: truncate it, flip a
bit, or overwrite an aligned ``u32`` (a string or blob length, the request
id, the magic) with a hostile value. ``decode_message`` must then return a
message or raise :class:`MarshalError`; so must every frame that
``StreamFrameParser.feed`` yields from the damaged bytes behind a length
prefix, itself possibly damaged, fed in arbitrary chunks. The ORB's reader
loops and reply wait count a :class:`MarshalError` as a malformed message
and catch nothing else, so any other exception here would reach them.
"""

from __future__ import annotations

import struct

from hypothesis import given, strategies as st

from repro.errors import MarshalError
from repro.orb.aio.framing import StreamFrameParser
from repro.orb.giop import (
    ReplyMessage,
    ReplyStatus,
    RequestMessage,
    decode_message,
    encode_request,
)

_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_blob = st.binary(max_size=40)
_ftl = st.one_of(st.none(), _blob)

_requests = st.builds(
    lambda rid, key, ifc, op, oneway, body, ftl: encode_request(
        rid, key, ifc, op, oneway, body, ftl, {}
    ),
    st.integers(0, 2**32 - 1), _text, _text, _text, st.booleans(), _blob, _ftl,
)
_replies = st.builds(
    lambda rid, status, body, ftl: ReplyMessage(rid, status, body, ftl).encode(),
    st.integers(0, 2**32 - 1), st.sampled_from(list(ReplyStatus)), _blob, _ftl,
)
_hostile = st.sampled_from([0, 1, 3, 0x7F, 0xFF, 0x7FFFFFFF, 0xFFFFFFFF])


@st.composite
def damaged(draw):
    """A valid message and its bytes after one kind of damage."""
    payload = bytearray(draw(st.one_of(_requests, _replies)))
    how = draw(st.sampled_from(["truncate", "flip", "length"]))
    if how == "truncate":
        del payload[draw(st.integers(0, len(payload) - 1)):]
    elif how == "flip":
        at = draw(st.integers(0, len(payload) - 1))
        payload[at] ^= 1 << draw(st.integers(0, 7))
    else:
        at = 4 * draw(st.integers(0, len(payload) // 4 - 1))
        struct.pack_into(">I", payload, at, draw(_hostile))
    return bytes(payload)


def decodes_or_refuses(payload: bytes) -> None:
    try:
        message = decode_message(payload)
    except MarshalError:
        return
    assert isinstance(message, (RequestMessage, ReplyMessage))


@given(payload=damaged())
def test_decode_message_fails_only_with_marshal_error(payload):
    decodes_or_refuses(payload)


@given(
    payload=damaged(),
    size=st.one_of(st.none(), _hostile, st.integers(0, 80)),
    chunk=st.integers(1, 64),
)
def test_stream_parser_fails_only_with_marshal_error(payload, size, chunk):
    # ``size`` None: the true length prefix; else a damaged one.
    stream = struct.pack(">I", len(payload) if size is None else size) + payload
    parser = StreamFrameParser()
    frames = []
    try:
        for at in range(0, len(stream), chunk):
            frames += parser.feed(stream[at:at + chunk])
    except MarshalError:
        # Only a damaged prefix desynchronizes the stream: the bytes after
        # the frame it bounds read as a length past the limit.
        assert size is not None
    for frame in frames:
        decodes_or_refuses(frame)
