"""GIOP-like message framing for the ORB.

Two message kinds cross the wire: requests and replies. The FTL travels
as a dedicated trailing field — morally the hidden ``inout
Probe::FunctionTxLogType log`` parameter the paper's IDL compiler splices
into every operation (Figure 3); framing it explicitly keeps mismatched
instrumented/uninstrumented peers diagnosable instead of silently
garbling the argument stream.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.errors import MarshalError
from repro.telemetry.metrics import NULL_COUNTER, NULL_REGISTRY
from repro.telemetry.runtime import metrics_binder

_MAGIC = 0x52504F47  # "RPOG"

# Precompiled header templates. Framing is on the per-call critical path,
# so the fixed prefixes (magic, kind, request id, reply status) pack and
# unpack through one Struct each instead of field-at-a-time CDR writes;
# the pad bytes reproduce CDR natural alignment exactly, keeping frames
# byte-identical to the original encoder.
_REQ_HEAD = struct.Struct(">IBxxxI")  # magic, kind, pad, request_id
_REPLY_HEAD = struct.Struct(">IBxxxIBB")  # ... status, has_ftl
_ULONG = struct.Struct(">I")
_PAD = b"\x00\x00\x00"


def _write_string(buf: bytearray, value: str) -> None:
    """Append one CDR string (align 4, ulong length incl. NUL, bytes, NUL)."""
    if not isinstance(value, str):
        raise MarshalError(f"expected str, got {type(value).__name__}")
    data = value.encode("utf-8")
    pad = -len(buf) % 4
    if pad:
        buf.extend(_PAD[:pad])
    buf.extend(_ULONG.pack(len(data) + 1))
    buf.extend(data)
    buf.append(0)


def _write_blob(buf: bytearray, data) -> None:
    """Append one CDR byte sequence (align 4, ulong length, bytes)."""
    pad = -len(buf) % 4
    if pad:
        buf.extend(_PAD[:pad])
    buf.extend(_ULONG.pack(len(data)))
    buf.extend(data)


def _read_ulong(view, pos: int) -> tuple[int, int]:
    pos += -pos % 4
    if pos + 4 > len(view):
        raise MarshalError("buffer underrun reading unsigned long")
    (value,) = _ULONG.unpack_from(view, pos)
    return value, pos + 4


def _read_blob(view, pos: int):
    """Read one byte sequence as a zero-copy slice of the frame view."""
    length, pos = _read_ulong(view, pos)
    end = pos + length
    if end > len(view):
        raise MarshalError("buffer underrun reading bytes")
    return view[pos:end], end


def _read_octet(view, pos: int) -> tuple[int, int]:
    if pos >= len(view):
        raise MarshalError("buffer underrun reading octet")
    return view[pos], pos + 1

# Framework self-metrics (no-ops until repro.telemetry.enable()): message
# and byte counters keyed (kind, direction) for both framing directions.
_MESSAGES: dict[tuple[str, str], object] = {}
_BYTES: dict[tuple[str, str], object] = {}
for _kind in ("request", "reply"):
    for _direction in ("encode", "decode"):
        _MESSAGES[(_kind, _direction)] = NULL_COUNTER
        _BYTES[(_kind, _direction)] = NULL_COUNTER


@metrics_binder
def _bind_metrics(registry) -> None:
    registry = registry or NULL_REGISTRY
    messages = registry.counter(
        "repro_giop_messages_total",
        "GIOP-like messages framed, by message kind and direction.",
        labels=("kind", "direction"),
    )
    size = registry.counter(
        "repro_giop_bytes_total",
        "Bytes of GIOP-like messages framed, by message kind and direction.",
        labels=("kind", "direction"),
    )
    for key in _MESSAGES:
        _MESSAGES[key] = messages.labels(*key)
        _BYTES[key] = size.labels(*key)


class MessageKind(enum.IntEnum):
    REQUEST = 0
    REPLY = 1


class ReplyStatus(enum.IntEnum):
    OK = 0
    USER_EXCEPTION = 1
    SYSTEM_EXCEPTION = 2


def encode_request(
    request_id: int,
    object_key: str,
    interface: str,
    operation: str,
    oneway: bool,
    body,
    ftl,
    template_cache: dict,
) -> bytes:
    """Frame one request, memoizing the constant middle of the frame.

    For a given stub operation the object key, interface, operation and
    oneway flag never change, so everything between the 12-byte header
    and the FTL/body blobs is cached as one ``bytes`` template on first
    use (the cache lives on the client ORB). Alignment is computed
    against a 12-byte placeholder head, so the result is byte-identical
    to :meth:`RequestMessage.encode`.
    """
    key = (object_key, interface, operation, oneway)
    template = template_cache.get(key)
    if template is None:
        tmp = bytearray(12)
        _write_string(tmp, object_key)
        _write_string(tmp, interface)
        _write_string(tmp, operation)
        tmp.append(1 if oneway else 0)
        template = bytes(tmp[12:])
        template_cache[key] = template
    buf = bytearray(_REQ_HEAD.pack(_MAGIC, MessageKind.REQUEST, request_id))
    buf += template
    if ftl is None:
        buf.append(0)
    else:
        buf.append(1)
        _write_blob(buf, ftl)
    _write_blob(buf, body)
    _MESSAGES[("request", "encode")].inc()
    _BYTES[("request", "encode")].inc(len(buf))
    return bytes(buf)


@dataclass
class RequestMessage:
    request_id: int
    object_key: str
    interface: str
    operation: str
    oneway: bool
    #: Decoded messages carry zero-copy memoryview slices of the frame.
    body: bytes | bytearray | memoryview
    ftl: bytes | memoryview | None = None

    def encode(self) -> bytes:
        buf = bytearray(_REQ_HEAD.pack(_MAGIC, MessageKind.REQUEST, self.request_id))
        _write_string(buf, self.object_key)
        _write_string(buf, self.interface)
        _write_string(buf, self.operation)
        buf.append(1 if self.oneway else 0)
        ftl = self.ftl
        if ftl is None:
            buf.append(0)
        else:
            buf.append(1)
            _write_blob(buf, ftl)
        _write_blob(buf, self.body)
        _MESSAGES[("request", "encode")].inc()
        _BYTES[("request", "encode")].inc(len(buf))
        return bytes(buf)


@dataclass
class ReplyMessage:
    request_id: int
    status: ReplyStatus
    body: bytes | bytearray | memoryview
    ftl: bytes | memoryview | None = None

    def encode(self) -> bytes:
        buf = bytearray(
            _REPLY_HEAD.pack(
                _MAGIC,
                MessageKind.REPLY,
                self.request_id,
                int(self.status),
                0 if self.ftl is None else 1,
            )
        )
        if self.ftl is not None:
            _write_blob(buf, self.ftl)
        _write_blob(buf, self.body)
        _MESSAGES[("reply", "encode")].inc()
        _BYTES[("reply", "encode")].inc(len(buf))
        return bytes(buf)


def decode_message(payload: bytes) -> RequestMessage | ReplyMessage:
    """Decode one framed message, dispatching on the kind octet.

    Zero-copy: ``body`` and ``ftl`` come back as memoryview slices over
    the received frame, so argument unmarshalling and FTL adoption read
    the wire bytes in place. (``memoryview == bytes`` compares contents,
    so message equality is unaffected.) A payload that is not a message
    raises :class:`MarshalError`, and nothing else.
    """
    view = memoryview(payload)
    magic, pos = _read_ulong(view, 0)
    if magic != _MAGIC:
        raise MarshalError(f"bad message magic {magic:#x}")
    kind, pos = _read_octet(view, pos)
    if kind == MessageKind.REQUEST:
        # Inlined header parse: requests are decoded once per dispatched
        # call on the server's reader thread, so the ulong/string readers
        # are unrolled here (same byte layout, same error messages).
        length = len(view)
        if length < 12:
            raise MarshalError("buffer underrun reading unsigned long")
        (request_id,) = _ULONG.unpack_from(view, 8)
        pos = 12
        strings = []
        for _ in range(3):
            pos += -pos % 4
            if pos + 4 > length:
                raise MarshalError("buffer underrun reading unsigned long")
            (str_len,) = _ULONG.unpack_from(view, pos)
            pos += 4
            end = pos + str_len
            if end > length:
                raise MarshalError("buffer underrun reading string")
            if str_len == 0 or view[end - 1] != 0:
                raise MarshalError("string missing NUL terminator")
            try:
                strings.append(bytes(view[pos : end - 1]).decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise MarshalError(f"string is not UTF-8: {exc}") from None
            pos = end
        object_key, interface, operation = strings
        if pos + 2 > len(view):
            raise MarshalError("buffer underrun reading boolean")
        oneway = bool(view[pos])
        has_ftl = view[pos + 1]
        pos += 2
        ftl = None
        if has_ftl:
            ftl, pos = _read_blob(view, pos)
        body, pos = _read_blob(view, pos)
        _MESSAGES[("request", "decode")].inc()
        _BYTES[("request", "decode")].inc(len(payload))
        return RequestMessage(
            request_id=request_id,
            object_key=object_key,
            interface=interface,
            operation=operation,
            oneway=oneway,
            body=body,
            ftl=ftl,
        )
    if kind == MessageKind.REPLY:
        request_id, pos = _read_ulong(view, pos)
        status_octet, pos = _read_octet(view, pos)
        try:
            status = ReplyStatus(status_octet)
        except ValueError:
            raise MarshalError(f"unknown reply status {status_octet}") from None
        if pos >= len(view):
            raise MarshalError("buffer underrun reading boolean")
        has_ftl = view[pos]
        pos += 1
        ftl = None
        if has_ftl:
            ftl, pos = _read_blob(view, pos)
        body, pos = _read_blob(view, pos)
        _MESSAGES[("reply", "decode")].inc()
        _BYTES[("reply", "decode")].inc(len(payload))
        return ReplyMessage(request_id=request_id, status=status, body=body, ftl=ftl)
    raise MarshalError(f"unknown message kind {kind}")
