"""Awaitable multiplexed client channel for the asyncio data plane.

The threaded :class:`~repro.orb.channel.MuxChannel` parks one OS thread
per in-flight call; an :class:`AsyncMuxChannel` parks one *future* per
call instead, so tens of thousands of pipelined invocations cost one
asyncio Task each. Same demux contract as the threaded mux — request ids
are unique per client ORB, replies complete out of order, stale reply
ids are counted and dropped, transport loss fails every outstanding
caller — with two event-loop twists:

- **Coalesced pipelined writes.** Frames queued within one loop tick are
  joined into a single transport send (flushed by a ``call_soon``
  callback), so 8k concurrent callers cost ~1 transport crossing per
  tick instead of 8k. Fault-injecting connections are the exception:
  they take one plan decision (and one latency charge) per transport
  send, so the flush degrades to frame-by-frame sends there — keeping
  injected delays, drops and corruption attributed per *request*, byte
  and charge compatible with the threaded plane.
- **Thread-to-loop demux.** The in-memory transport blocks in
  ``recv``, so one reader thread per channel re-slices the byte stream
  (:class:`~repro.orb.aio.framing.StreamFrameParser`) and hands decoded
  reply batches to the loop via ``call_soon_threadsafe``; futures are
  only ever touched on the loop.
"""

from __future__ import annotations

import asyncio

from repro.errors import MarshalError, TransportError
from repro.orb.aio.framing import (
    ASYNC_STREAM_PRELUDE,
    StreamFrameParser,
    frame_message,
)
from repro.orb.giop import ReplyMessage, decode_message
from repro.platform.network import Connection
from repro.telemetry.metrics import NULL_COUNTER, NULL_GAUGE, NULL_REGISTRY
from repro.telemetry.runtime import metrics_binder

_PENDING = NULL_GAUGE
_STALE_REPLIES = NULL_COUNTER
_MALFORMED = NULL_COUNTER
_FLUSHES = NULL_COUNTER


@metrics_binder
def _bind_metrics(registry) -> None:
    global _PENDING, _STALE_REPLIES, _MALFORMED, _FLUSHES
    registry = registry or NULL_REGISTRY
    _PENDING = registry.gauge(
        "repro_orb_async_pending_requests",
        "Requests pipelined on asyncio channels, awaiting demux.",
    )
    _STALE_REPLIES = registry.counter(
        "repro_orb_async_stale_replies_total",
        "Async-plane replies whose request id matched no waiter.",
    )
    _MALFORMED = registry.counter(
        "repro_orb_async_malformed_replies_total",
        "Async-plane payloads that failed to decode (dropped).",
    )
    _FLUSHES = registry.counter(
        "repro_orb_async_write_flushes_total",
        "Coalesced write flushes on asyncio channels.",
    )


class AsyncMuxChannel:
    """One shared stream-mode connection, demultiplexed by request id.

    Must be constructed, called, and closed on ``loop``; only the demux
    reader thread lives off-loop, and it re-enters via
    ``call_soon_threadsafe``.
    """

    def __init__(self, conn: Connection, process, loop: asyncio.AbstractEventLoop):
        self._conn = conn
        self._loop = loop
        self._pending: dict[int, asyncio.Future] = {}
        self._failure: TransportError | None = None
        self._write_buf: list[bytes] = []
        self._flush_scheduled = False
        self._sender_host = None
        #: High-water mark of concurrent in-flight calls — the honesty
        #: figure the throughput bench records as effective concurrency.
        self.peak_pending = 0
        # Announce stream mode before any framed bytes; legacy readers
        # drop the prelude as one malformed message.
        conn.send(ASYNC_STREAM_PRELUDE, sender_host=getattr(process, "host", None))
        process.spawn_thread(
            self._demux_loop, name=f"aiomux-{conn.peer_label}", args=()
        )

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The event loop this channel's futures belong to."""
        return self._loop

    @property
    def closed(self) -> bool:
        return self._conn.closed or self._failure is not None

    def close(self) -> None:
        """Tear the channel down; outstanding futures fail promptly.

        Safe from any thread: futures are only touched on the loop, so a
        foreign-thread close posts the failure instead of applying it.
        """
        self._conn.close()
        exc = TransportError(f"connection {self._conn.local_label} closed by peer")
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is self._loop:
            self._fail_all(exc)
        else:
            self._post(self._fail_all, exc)

    # -- caller side (on the loop) --------------------------------------

    async def call(
        self,
        request_id: int,
        payload: bytes,
        sender_host,
        oneway: bool,
        timeout: float | None,
    ) -> ReplyMessage | None:
        """Queue one framed request; await its own reply unless oneway."""
        if self._failure is not None:
            raise TransportError(str(self._failure))
        if oneway:
            self._queue_write(frame_message(payload), sender_host)
            return None
        future = self._loop.create_future()
        self._pending[request_id] = future
        depth = len(self._pending)
        if depth > self.peak_pending:
            self.peak_pending = depth
        _PENDING.inc()
        try:
            self._queue_write(frame_message(payload), sender_host)
            try:
                if timeout is None:
                    reply = await future
                else:
                    reply = await asyncio.wait_for(future, timeout)
            except asyncio.TimeoutError:
                self._pending.pop(request_id, None)
                raise TransportError(
                    f"recv timed out on {self._conn.local_label}"
                    f"<-{self._conn.peer_label}"
                ) from None
            except asyncio.CancelledError:
                self._pending.pop(request_id, None)
                raise
        finally:
            _PENDING.dec()
        return reply

    def _queue_write(self, frame: bytes, sender_host) -> None:
        self._write_buf.append(frame)
        self._sender_host = sender_host
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self._loop.call_soon(self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        if not self._write_buf:
            return
        frames = self._write_buf[:]
        self._write_buf.clear()
        _FLUSHES.inc()
        try:
            if getattr(self._conn, "_injector", None) is not None:
                # Fault-injecting connections take one plan decision and
                # one latency charge per transport send. Coalescing would
                # charge an injected delay once per *batch* and land
                # drop/corrupt faults on whole batches — per-request
                # latency attribution would depend on flush timing. Send
                # frame-by-frame so the seeded fault schedule and the
                # latency accounting stay per-request, matching the
                # threaded plane.
                for frame in frames:
                    self._conn.send(frame, sender_host=self._sender_host)
            else:
                self._conn.send(b"".join(frames), sender_host=self._sender_host)
        except TransportError as exc:
            # The shared connection is gone: every pipelined caller's loss.
            self._fail_all(exc)

    # -- demux reader (its own thread) ----------------------------------

    def _demux_loop(self) -> None:
        try:
            self._demux()
        finally:
            # However the loop ends (the connection gone, or a bug raising
            # out of it), no caller is left awaiting a reply.
            self._post(
                self._fail_all,
                TransportError(f"demux of {self._conn.local_label} stopped"),
            )

    def _demux(self) -> None:
        conn = self._conn
        parser = StreamFrameParser()
        while True:
            try:
                chunk = conn.recv(timeout=None)
            except TransportError as exc:
                self._post(self._fail_all, exc)
                return
            try:
                frames = parser.feed(chunk)
            except MarshalError as exc:
                self._post(
                    self._fail_all,
                    TransportError(f"corrupt reply stream: {exc}"),
                )
                return
            replies: list[ReplyMessage] = []
            undecodable: Exception | None = None
            for frame in frames:
                try:
                    message = decode_message(frame)
                except MarshalError as exc:
                    # Framing is intact (the length prefix still bounds
                    # the bad message), so the channel survives — mirror
                    # MuxChannel: fail current waiters, keep going.
                    _MALFORMED.inc()
                    undecodable = exc
                    continue
                if isinstance(message, ReplyMessage):
                    replies.append(message)
            if replies or undecodable is not None:
                self._post(self._deliver, replies, undecodable)

    def _post(self, callback, *args) -> None:
        try:
            self._loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:
            # Loop already closed during shutdown; nobody is waiting.
            pass

    # -- loop-side delivery ---------------------------------------------

    def _deliver(self, replies: list[ReplyMessage], undecodable) -> None:
        for message in replies:
            future = self._pending.pop(message.request_id, None)
            if future is None:
                _STALE_REPLIES.inc()
                continue
            if not future.done():
                future.set_result(message)
        if undecodable is not None:
            self._fail_pending(
                TransportError(f"undecodable reply payload: {undecodable}")
            )

    def _fail_pending(self, exc: TransportError) -> None:
        """Fail current waiters but keep the channel open for new calls."""
        pending = list(self._pending.values())
        self._pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(TransportError(str(exc)))

    def _fail_all(self, exc: TransportError) -> None:
        """Mark the channel dead and fail every outstanding waiter."""
        if self._failure is None:
            self._failure = exc
        self._fail_pending(exc)
