"""Framed control + spool-shipping protocol between workers and the
coordinator.

One TCP connection per worker carries everything: hello/endpoint-map
exchange, heartbeats, run commands, and — at collection time — the
worker's sealed ``.seg`` files streamed to the coordinator, which
re-ingests them into the central store (:mod:`repro.store.ingest`).

The wire format reuses the data plane's length-prefixed framing
(:func:`~repro.orb.aio.framing.frame_message` /
:class:`~repro.orb.aio.framing.StreamFrameParser`): every message is one
frame, either UTF-8 JSON (control) or raw binary (a segment file's
bytes). A shipment is::

    {"type": "ship-begin", "run_id": ..., "segments": N,
     "record_count": ..., "loss": {...}, "processes": [...],
     "monitor_mode": ..., "schema_version": ...}
    {"type": "segment", "name": "000001.sealed.seg", "bytes": M}
    <M raw bytes>                      # repeated per segment
    {"type": "ship-end", "run_id": ...}

Segments ship as their exact on-disk bytes — the coordinator decodes
them with the ordinary :class:`~repro.store.SegmentReader`, so the
segment format is the shipping format and there is no second codec to
drift. A collection commits as one sealed segment (about a tenth larger
than an arrival-order spool of the same records: ranks, zone map).
"""

from __future__ import annotations

import json
import os
import socket
import threading

from repro.errors import TransportError
from repro.orb.aio.framing import StreamFrameParser, frame_message

_RECV_CHUNK = 1 << 16


class ChannelTimeout(TransportError):
    """A framed recv exceeded its timeout (the channel itself is fine)."""


class FrameChannel:
    """A blocking, framed message channel over one TCP socket.

    Unlike :class:`~repro.cluster.transport.SocketConnection` there is no
    reader thread: control traffic is strictly request/response plus
    explicitly polled heartbeats, so the caller drives ``recv`` directly
    (with a timeout so signal flags — SIGTERM drain — get polled).
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._parser = StreamFrameParser()
        self._pending: list[bytes] = []
        self._send_lock = threading.Lock()

    def send_json(self, message: dict) -> None:
        self.send_bytes(json.dumps(message, sort_keys=True).encode("utf-8"))

    def send_bytes(self, payload: bytes) -> None:
        try:
            with self._send_lock:
                self._sock.sendall(frame_message(payload))
        except OSError as exc:
            raise TransportError(f"control channel send failed: {exc}") from exc

    def recv(self, timeout: float | None = None) -> bytes:
        """Receive one frame; raises TransportError on EOF or timeout."""
        if self._pending:
            return self._pending.pop(0)
        self._sock.settimeout(timeout)
        try:
            while True:
                try:
                    chunk = self._sock.recv(_RECV_CHUNK)
                except socket.timeout:
                    raise ChannelTimeout("control channel recv timed out") from None
                except OSError as exc:
                    raise TransportError(
                        f"control channel recv failed: {exc}"
                    ) from exc
                if not chunk:
                    raise TransportError("control channel closed by peer")
                frames = self._parser.feed(chunk)
                if frames:
                    self._pending.extend(frames[1:])
                    return frames[0]
        finally:
            self._sock.settimeout(None)

    def recv_json(self, timeout: float | None = None) -> dict:
        return json.loads(self.recv(timeout=timeout).decode("utf-8"))

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


def ship_run(
    channel: FrameChannel,
    store_path: str,
    run_id: str,
    loss: dict,
    processes: list[str],
    monitor_mode: str,
    record_count: int,
    schema_version: int,
) -> None:
    """Stream one sealed local run (worker side of the protocol).

    The local :class:`~repro.store.SegmentStore` must be closed first so
    every segment is complete; segments ship in filename order, which is
    the order they were committed in (within one, the footer's ranks say
    how its records arrived).
    """
    run_dir = os.path.join(store_path, "runs", run_id)
    names = sorted(
        name
        for name in (os.listdir(run_dir) if os.path.isdir(run_dir) else [])
        if name.endswith(".seg") and not name.startswith(".tmp")
    )
    channel.send_json(
        {
            "type": "ship-begin",
            "run_id": run_id,
            "segments": len(names),
            "record_count": record_count,
            "loss": loss,
            "processes": processes,
            "monitor_mode": monitor_mode,
            "schema_version": schema_version,
        }
    )
    for name in names:
        with open(os.path.join(run_dir, name), "rb") as handle:
            data = handle.read()
        channel.send_json({"type": "segment", "name": name, "bytes": len(data)})
        channel.send_bytes(data)
    channel.send_json({"type": "ship-end", "run_id": run_id})
