"""Multiplexed client channels: request pipelining over one connection.

The original client path kept one connection per (calling thread,
endpoint) and ran the lock-step read-your-own-reply loop inline, so N
client threads cost N connections and each call held its connection
hostage for the full round trip. A :class:`MuxChannel` is the shared
alternative: one connection per (client ORB, endpoint), any number of
concurrent requests in flight, and a single demux reader thread that
routes each reply to its waiter by GIOP request id.

Protocol properties the demux relies on (and the adversarial
interleaving suite pins down):

- request ids are unique per client ORB, so a reply matches at most one
  waiter;
- replies may complete out of order — waiters park on their own event,
  never on the connection;
- a duplicate or stale reply id matches no waiter and is dropped
  (counted, when telemetry is enabled) instead of corrupting another
  call;
- a transport failure fails *all* outstanding waiters at once, since a
  shared connection's loss is every pipelined call's loss.
"""

from __future__ import annotations

import threading

from repro.errors import MarshalError, TransportError
from repro.orb.giop import ReplyMessage, decode_message
from repro.platform.network import Connection
from repro.telemetry.metrics import NULL_COUNTER, NULL_GAUGE, NULL_REGISTRY
from repro.telemetry.runtime import metrics_binder

_PENDING = NULL_GAUGE
_STALE_REPLIES = NULL_COUNTER
_MALFORMED = NULL_COUNTER


@metrics_binder
def _bind_metrics(registry) -> None:
    global _PENDING, _STALE_REPLIES, _MALFORMED
    registry = registry or NULL_REGISTRY
    _PENDING = registry.gauge(
        "repro_orb_mux_pending_requests",
        "Requests pipelined on shared client channels, awaiting demux.",
    )
    _STALE_REPLIES = registry.counter(
        "repro_orb_mux_stale_replies_total",
        "Replies whose request id matched no waiter (duplicate or stale).",
    )
    _MALFORMED = registry.counter(
        "repro_orb_mux_malformed_replies_total",
        "Client-side payloads that failed to decode (dropped).",
    )


class _Waiter:
    """One parked caller: a one-shot lock plus the routed reply or error.

    The park/wake primitive is a raw lock acquired at construction: the
    caller parks by acquiring it again (blocking in C), the demux thread
    wakes it by releasing. This is the cheapest handoff CPython offers —
    no Condition, no waiter list — and each waiter is woken at most once
    (whoever pops it from the pending table owns the release).
    """

    __slots__ = ("lock", "reply", "error")

    def __init__(self):
        self.lock = threading.Lock()
        self.lock.acquire()
        self.reply: ReplyMessage | None = None
        self.error: TransportError | None = None

    def wake(self) -> None:
        self.lock.release()


class MuxChannel:
    """One shared connection to an endpoint, demultiplexed by request id."""

    def __init__(self, conn: Connection, process):
        self._conn = conn
        self._pending: dict[int, _Waiter] = {}
        self._lock = threading.Lock()
        self._failure: TransportError | None = None
        process.spawn_thread(
            self._demux_loop, name=f"mux-{conn.peer_label}", args=()
        )

    @property
    def closed(self) -> bool:
        return self._conn.closed or self._failure is not None

    def close(self) -> None:
        """Tear the channel down; outstanding waiters fail promptly."""
        self._conn.close()
        self._fail_all(
            TransportError(f"connection {self._conn.local_label} closed by peer")
        )

    # -- caller side ----------------------------------------------------

    def call(
        self,
        request_id: int,
        payload: bytes,
        sender_host,
        oneway: bool,
        timeout: float | None,
    ) -> ReplyMessage | None:
        """Send one framed request; block for its own reply unless oneway."""
        if oneway:
            self._conn.send(payload, sender_host=sender_host)
            return None
        waiter = _Waiter()
        with self._lock:
            failure = self._failure
            if failure is None:
                self._pending[request_id] = waiter
        if failure is not None:
            raise TransportError(str(failure))
        _PENDING.inc()
        try:
            try:
                self._conn.send(payload, sender_host=sender_host)
            except BaseException:
                with self._lock:
                    self._pending.pop(request_id, None)
                raise
            if not waiter.lock.acquire(timeout=-1 if timeout is None else timeout):
                with self._lock:
                    self._pending.pop(request_id, None)
                raise TransportError(
                    f"recv timed out on {self._conn.local_label}"
                    f"<-{self._conn.peer_label}"
                )
        finally:
            _PENDING.dec()
        if waiter.error is not None:
            raise TransportError(str(waiter.error))
        return waiter.reply

    # -- demux reader ---------------------------------------------------

    def _demux_loop(self) -> None:
        try:
            self._demux()
        finally:
            # However the loop ends (the connection gone, or a bug raising
            # out of it), no caller is left parked on a reply.
            self._fail_all(
                TransportError(f"demux of {self._conn.local_label} stopped")
            )

    def _demux(self) -> None:
        conn = self._conn
        while True:
            try:
                payload = conn.recv(timeout=None)
            except TransportError as exc:
                self._fail_all(exc)
                return
            try:
                message = decode_message(payload)
            except MarshalError as exc:
                # An undecodable reply cannot be routed to its waiter, so
                # every pipelined caller fails promptly — with a single
                # outstanding call this reproduces the lock-step path's
                # immediate "undecodable reply payload" error exactly.
                # The connection itself is still framed and usable, so
                # the channel survives for subsequent calls (as the
                # lock-step path's connection did).
                _MALFORMED.inc()
                self._fail_pending(
                    TransportError(f"undecodable reply payload: {exc}")
                )
                continue
            if not isinstance(message, ReplyMessage):
                continue
            with self._lock:
                waiter = self._pending.pop(message.request_id, None)
            if waiter is None:
                _STALE_REPLIES.inc()
                continue
            waiter.reply = message
            waiter.wake()

    def _fail_pending(self, exc: TransportError) -> None:
        """Fail current waiters but keep the channel open for new calls."""
        with self._lock:
            waiters = list(self._pending.values())
            self._pending.clear()
        for waiter in waiters:
            waiter.error = exc
            waiter.wake()

    def _fail_all(self, exc: TransportError) -> None:
        """Mark the channel dead and fail every outstanding waiter."""
        with self._lock:
            if self._failure is None:
                self._failure = exc
        self._fail_pending(exc)
