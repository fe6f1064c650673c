"""The per-process ORB runtime (ORBlite stand-in).

One :class:`Orb` is attached to each simulated process. It owns:

- the network endpoint (it starts listening at construction, so loopback
  calls inside one process travel the same path as remote ones — that is
  the "collocated call with optimization turned off" configuration of the
  paper's latency experiment),
- the object adapter mapping object keys to skeletons,
- the server threading policy (thread-per-request by default, matching
  the Section-2.1 baseline),
- client connection management: by default one *multiplexed* connection
  per target endpoint shared by every calling thread, with replies
  demultiplexed by request id (true request pipelining); the legacy
  ``channel="per-thread"`` mode keeps one connection per calling thread
  and the lock-step read-your-own-reply loop,
- collocation optimization (on by default; the generated stubs consult
  :meth:`Orb.collocated_servant` and short-circuit through the direct
  pointer when allowed),
- marshal-by-value support (custom marshalling, Section 2.2): servants
  activated ``by_value=True`` are copied to the client process at resolve
  time and run in the client's thread context.
"""

from __future__ import annotations

import asyncio
import copy
import itertools
import threading
import time
from typing import Any

from repro.errors import (
    ComponentCrash,
    MarshalError,
    ObjectNotFound,
    OrbError,
    TransportError,
)
from repro.orb.aio.channel import AsyncMuxChannel
from repro.orb.aio.framing import (
    ASYNC_STREAM_PRELUDE,
    FramedConnectionWriter,
    StreamFrameParser,
)
from repro.orb.channel import MuxChannel
from repro.orb.giop import (
    ReplyMessage,
    ReplyStatus,
    RequestMessage,
    decode_message,
    encode_request,
)
from repro.orb.poa import ObjectAdapter
from repro.orb.refs import ObjectRef
from repro.orb.runtime import (
    GLOBAL_INTERFACE_REGISTRY,
    InterfaceRegistry,
    _marshal_system_exception,
)
from repro.orb.threading_policies import ThreadingPolicy, ThreadPerRequest
from repro.platform.network import Connection, Network
from repro.platform.process import SimProcess
from repro.telemetry.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
)
from repro.telemetry.runtime import metrics_binder

# Framework self-metrics (no-ops until repro.telemetry.enable()). The
# enabled flag gates the dispatch clock reads so the metrics-off path
# never touches perf_counter_ns.
_TELEMETRY_ON = False
_REQUESTS = {False: NULL_COUNTER, True: NULL_COUNTER}  # keyed by oneway
_INFLIGHT = NULL_GAUGE
_DISPATCH_TOTAL = NULL_COUNTER
_DISPATCH_NS = NULL_HISTOGRAM
_DISPATCH_NOT_FOUND = NULL_COUNTER
_MALFORMED = NULL_COUNTER
_CRASHED_DISPATCHES = NULL_COUNTER


@metrics_binder
def _bind_metrics(registry) -> None:
    global _TELEMETRY_ON, _INFLIGHT, _DISPATCH_TOTAL, _DISPATCH_NS, _DISPATCH_NOT_FOUND
    global _MALFORMED, _CRASHED_DISPATCHES
    _TELEMETRY_ON = registry is not None
    registry = registry or NULL_REGISTRY
    requests = registry.counter(
        "repro_orb_requests_total",
        "Client-side ORB requests sent, by call kind.",
        labels=("kind",),
    )
    _REQUESTS[False] = requests.labels("sync")
    _REQUESTS[True] = requests.labels("oneway")
    _INFLIGHT = registry.gauge(
        "repro_orb_inflight_requests",
        "Client-side ORB requests currently awaiting a reply.",
    )
    _DISPATCH_TOTAL = registry.counter(
        "repro_orb_dispatch_total",
        "Server-side ORB request dispatches (skeleton invocations).",
    )
    _DISPATCH_NS = registry.histogram(
        "repro_orb_dispatch_ns",
        "Wall time of one server-side dispatch, skeleton included, in ns.",
    )
    _DISPATCH_NOT_FOUND = registry.counter(
        "repro_orb_dispatch_object_not_found_total",
        "Dispatches rejected because the object key was not active.",
    )
    _MALFORMED = registry.counter(
        "repro_orb_malformed_messages_total",
        "Wire payloads that failed to decode (dropped, reader kept alive).",
    )
    _CRASHED_DISPATCHES = registry.counter(
        "repro_orb_crashed_dispatches_total",
        "Dispatches aborted by an injected component crash (no reply sent).",
    )


class _ByValueRegistry:
    """Network-wide registry of marshal-by-value servants."""

    def __init__(self):
        self._servants: dict[str, Any] = {}
        self._lock = threading.Lock()

    def register(self, url: str, servant: Any) -> None:
        with self._lock:
            self._servants[url] = servant

    def lookup(self, url: str) -> Any:
        with self._lock:
            return self._servants.get(url)


def _by_value_registry(network: Network) -> _ByValueRegistry:
    registry = getattr(network, "_repro_by_value", None)
    if registry is None:
        registry = _ByValueRegistry()
        network._repro_by_value = registry
    return registry


class Orb:
    """ORB runtime for one simulated process."""

    def __init__(
        self,
        process: SimProcess,
        network: Network,
        policy: ThreadingPolicy | None = None,
        collocation_optimization: bool = True,
        registry: InterfaceRegistry | None = None,
        request_timeout: float = 30.0,
        channel: str = "mux",
    ):
        if channel not in ("mux", "per-thread", "asyncio"):
            raise OrbError(f"unknown channel mode {channel!r}")
        self.process = process
        self.network = network
        self.address = process.name
        self.adapter = ObjectAdapter(self.address)
        self.policy = policy if policy is not None else ThreadPerRequest()
        self.collocation_optimization = collocation_optimization
        self.registry = registry if registry is not None else GLOBAL_INTERFACE_REGISTRY
        self.request_timeout = request_timeout
        self.channel_mode = channel
        self._client_state = threading.local()
        self._channels: dict[str, MuxChannel] = {}
        self._async_channels: dict[str, AsyncMuxChannel] = {}
        self._channels_lock = threading.Lock()
        self._request_ids = itertools.count(1)
        self._connection_serial = itertools.count(1)
        #: Per-operation constant request-frame middles (see encode_request).
        self._request_templates: dict[tuple, bytes] = {}
        self._server_connections: list[Connection] = []
        self._server_connections_lock = threading.Lock()
        self._shut_down = False
        process.attach(self)
        self.policy.start(process)
        network.listen(self.address, self._on_connect)

    # ------------------------------------------------------------------
    # Activation / resolution

    def activate(
        self,
        servant: Any,
        interface: str | None = None,
        object_key: str | None = None,
        component: str | None = None,
        by_value: bool = False,
    ) -> ObjectRef:
        """Activate a servant and return its object reference.

        ``interface`` defaults to the servant base's scoped interface name
        (generated servant bases carry ``_repro_interface``). ``component``
        defaults to the servant class name. With ``by_value=True`` the
        servant is additionally registered for marshal-by-value: remote
        resolvers receive a deep copy running in their own thread context.
        """
        if interface is None:
            interface = getattr(servant, "_repro_interface", None)
            if interface is None:
                raise OrbError(
                    f"cannot infer interface for {servant!r}; pass interface= explicitly"
                )
        skeleton_class = self.registry.skeleton_class(interface)
        component = component or type(servant).__name__
        # Reserve the key first so the skeleton knows its identity.
        object_key = self.adapter.reserve(object_key)
        skeleton = skeleton_class(servant, self, object_key, component)
        self.adapter.install(object_key, skeleton)
        ref = ObjectRef(
            address=self.address,
            object_key=object_key,
            interface=interface,
            component=component,
        )
        servant._repro_object_ref = ref
        if by_value:
            _by_value_registry(self.network).register(ref.to_url(), servant)
        return ref

    def resolve(self, ref_or_url: ObjectRef | str) -> Any:
        """Create a stub for an object reference.

        If the reference was activated marshal-by-value, a deep copy of
        the servant is installed locally and a collocated stub over the
        copy is returned ("custom marshalling ... basically turns remote
        calls into collocated calls").
        """
        ref = (
            ObjectRef.from_url(ref_or_url) if isinstance(ref_or_url, str) else ref_or_url
        )
        by_value = _by_value_registry(self.network).lookup(ref.to_url())
        if by_value is not None and ref.address != self.address:
            local_copy = copy.deepcopy(by_value)
            local_ref = self.activate(
                local_copy,
                interface=ref.interface,
                component=ref.component or type(local_copy).__name__,
            )
            ref = local_ref
        stub_class = self.registry.stub_class(ref.interface)
        return stub_class(self, ref)

    def localize(self, value: Any) -> Any:
        """Convert unmarshalled ObjectRef values into live stubs."""
        if isinstance(value, ObjectRef):
            return self.resolve(value)
        if isinstance(value, list):
            return [self.localize(item) for item in value]
        return value

    def collocated_servant(self, ref: ObjectRef) -> Any:
        """Return the servant for a same-process reference, if optimizable."""
        if not self.collocation_optimization or self._shut_down:
            return None
        if ref.address != self.address:
            return None
        skeleton = self.adapter.try_find(ref.object_key)
        if skeleton is None:
            return None
        return skeleton.servant

    # ------------------------------------------------------------------
    # Client side

    def _connections(self) -> dict[str, Connection]:
        connections = getattr(self._client_state, "connections", None)
        if connections is None:
            connections = {}
            self._client_state.connections = connections
        return connections

    def _connection_to(self, address: str) -> Connection:
        connections = self._connections()
        conn = connections.get(address)
        if conn is None or conn.closed:
            label = f"{self.address}/t{next(self._connection_serial)}"
            conn = self.network.connect(label, address)
            connections[address] = conn
        return conn

    def _channel_to(self, address: str) -> MuxChannel:
        """The shared multiplexed channel to ``address`` (created lazily).

        One connection per endpoint regardless of calling-thread count; a
        dead channel (peer reset, injected fault) is replaced on the next
        call, mirroring the per-thread mode's reconnect-after-close.

        Fast path first: a healthy cached channel is returned from a
        GIL-atomic dict read, so pipelined caller threads never serialize
        on the channel-table lock; the lock only guards (re)connection.
        """
        chan = self._channels.get(address)
        if chan is not None and not chan.closed:
            return chan
        with self._channels_lock:
            chan = self._channels.get(address)
            if chan is None or chan.closed:
                label = f"{self.address}/t{next(self._connection_serial)}"
                conn = self.network.connect(label, address)
                chan = MuxChannel(conn, self.process)
                self._channels[address] = chan
            return chan

    def _async_channel_to(self, address: str) -> AsyncMuxChannel:
        """The shared awaitable channel to ``address`` (created lazily).

        Channels are bound to the event loop that created them: a cached
        channel whose loop is not the *running* loop (a previous
        ``asyncio.run`` epoch) is replaced, like a dead threaded channel.
        """
        loop = asyncio.get_running_loop()
        chan = self._async_channels.get(address)
        if chan is not None and not chan.closed and chan.loop is loop:
            return chan
        with self._channels_lock:
            chan = self._async_channels.get(address)
            if chan is None or chan.closed or chan.loop is not loop:
                if chan is not None:
                    chan.close()  # else its reader thread outlives its loop
                label = f"{self.address}/t{next(self._connection_serial)}"
                conn = self.network.connect(label, address)
                chan = AsyncMuxChannel(conn, self.process, loop)
                self._async_channels[address] = chan
            return chan

    async def send_request_async(
        self,
        ref: ObjectRef,
        operation: str,
        body: bytes,
        oneway: bool,
        ftl: bytes | None,
    ) -> ReplyMessage | None:
        """Awaitable twin of :meth:`send_request`, used by async stubs.

        Same frame bytes (shared request-template cache), same request-id
        space; the call parks on an asyncio future instead of an OS
        thread, so in-flight depth is bounded by memory, not threads.
        """
        if self._shut_down:
            raise OrbError("ORB has been shut down")
        request_id = next(self._request_ids)
        payload = encode_request(
            request_id,
            ref.object_key,
            ref.interface,
            operation,
            oneway,
            body,
            ftl,
            self._request_templates,
        )
        _REQUESTS[oneway].inc()
        channel = self._async_channel_to(ref.address)
        if oneway:
            await channel.call(
                request_id, payload, self.process.host, oneway=True, timeout=None
            )
            return None
        _INFLIGHT.inc()
        try:
            return await channel.call(
                request_id,
                payload,
                self.process.host,
                oneway=False,
                timeout=self.request_timeout,
            )
        finally:
            _INFLIGHT.dec()

    def send_request(
        self,
        ref: ObjectRef,
        operation: str,
        body: bytes,
        oneway: bool,
        ftl: bytes | None,
    ) -> ReplyMessage | None:
        """Marshal-level entry point used by generated stubs."""
        if self._shut_down:
            raise OrbError("ORB has been shut down")
        request_id = next(self._request_ids)
        payload = encode_request(
            request_id,
            ref.object_key,
            ref.interface,
            operation,
            oneway,
            body,
            ftl,
            self._request_templates,
        )
        _REQUESTS[oneway].inc()
        # channel="asyncio" only changes the *async* client path; sync
        # callers on an asyncio-mode ORB ride the threaded mux channel.
        if self.channel_mode != "per-thread":
            channel = self._channel_to(ref.address)
            if oneway:
                channel.call(
                    request_id,
                    payload,
                    self.process.host,
                    oneway=True,
                    timeout=None,
                )
                return None
            _INFLIGHT.inc()
            try:
                return channel.call(
                    request_id,
                    payload,
                    self.process.host,
                    oneway=False,
                    timeout=self.request_timeout,
                )
            finally:
                _INFLIGHT.dec()
        conn = self._connection_to(ref.address)
        conn.send(payload, sender_host=self.process.host)
        if oneway:
            return None
        _INFLIGHT.inc()
        try:
            while True:
                payload = conn.recv(timeout=self.request_timeout)
                try:
                    reply = decode_message(payload)
                except MarshalError as exc:
                    # A corrupt/truncated reply must surface as a transport
                    # failure, not a decoder crash in the caller's stack.
                    _MALFORMED.inc()
                    raise TransportError(f"undecodable reply payload: {exc}") from exc
                if not isinstance(reply, ReplyMessage):
                    raise TransportError("expected a reply message")
                if reply.request_id == request_id:
                    return reply
                # Connections are per calling thread, so a mismatched id means
                # a stale reply from an abandoned call; skip it.
        finally:
            _INFLIGHT.dec()

    # ------------------------------------------------------------------
    # Server side

    def _on_connect(self, conn: Connection) -> None:
        with self._server_connections_lock:
            self._server_connections.append(conn)
        self.process.spawn_thread(
            self._reader_loop, name=f"reader-{conn.peer_label}", args=(conn,)
        )

    def _reader_loop(self, conn: Connection) -> None:
        connection_id = f"{conn.peer_label}#{id(conn)}"
        inline = getattr(self.policy, "inline_per_connection", False)
        # Asyncio-plane clients speak a length-prefixed byte *stream*
        # (coalesced writes may pack many frames into one transport
        # message). The prelude, sent before any framed bytes, switches
        # this reader into stream mode; replies then go back framed.
        parser: StreamFrameParser | None = None
        reply_conn: Connection | FramedConnectionWriter = conn
        while not self._shut_down:
            try:
                payload = conn.recv(timeout=None)
            except TransportError:
                return
            if parser is None and payload == ASYNC_STREAM_PRELUDE:
                parser = StreamFrameParser()
                reply_conn = FramedConnectionWriter(conn)
                continue
            if parser is not None:
                try:
                    frames = parser.feed(payload)
                except MarshalError:
                    # A corrupt length prefix desynchronizes the whole
                    # stream — unlike one bad message, there is no next
                    # frame boundary to resume from. Reset the link.
                    _MALFORMED.inc()
                    conn.close()
                    return
            else:
                frames = (payload,)
            for frame in frames:
                try:
                    message = decode_message(frame)
                except MarshalError:
                    # A corrupt/truncated request must not kill the reader
                    # thread; drop the payload and keep serving the link.
                    _MALFORMED.inc()
                    continue
                if not isinstance(message, RequestMessage):
                    continue

                def dispatch(message=message, reply_conn=reply_conn):
                    self._dispatch_request(message, reply_conn)

                if inline:
                    dispatch()
                else:
                    self.policy.submit(dispatch, connection_id)

    def _dispatch_request(self, request: RequestMessage, conn: Connection) -> None:
        _DISPATCH_TOTAL.inc()
        try:
            skeleton = self.adapter.find(request.object_key)
        except ObjectNotFound as exc:
            _DISPATCH_NOT_FOUND.inc()
            if not request.oneway:
                reply = ReplyMessage(
                    request_id=request.request_id,
                    status=ReplyStatus.SYSTEM_EXCEPTION,
                    body=_marshal_system_exception(exc),
                )
                self._send_reply(conn, reply)
            return
        try:
            if _TELEMETRY_ON:
                started = time.perf_counter_ns()
                reply = skeleton.dispatch(request)
                _DISPATCH_NS.observe(time.perf_counter_ns() - started)
            else:
                reply = skeleton.dispatch(request)
        except ComponentCrash:
            # Simulated component death mid-call: the skeleton-end probe
            # never fired and no reply exists. Reset the connection so the
            # client observes the death promptly instead of timing out.
            _CRASHED_DISPATCHES.inc()
            conn.close()
            return
        if asyncio.iscoroutine(reply):
            # Async skeleton: the probes and the servant body live inside
            # the coroutine; run it as its own Task (own context copy,
            # own FTL slot) and reply from the done callback.
            self._finish_async_dispatch(reply, request, conn)
            return
        if reply is not None and not request.oneway:
            self._send_reply(conn, reply)

    def _finish_async_dispatch(self, coro, request: RequestMessage, conn) -> None:
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            loop = None
        if loop is None:
            # Compatibility path: an async skeleton dispatched by a
            # threaded policy. Drive the coroutine to completion on this
            # worker thread — concurrency comes from the policy, as ever.
            try:
                reply = asyncio.run(coro)
            except ComponentCrash:
                _CRASHED_DISPATCHES.inc()
                conn.close()
                return
            if reply is not None and not request.oneway:
                self._send_reply(conn, reply)
            return
        task = loop.create_task(coro)

        def _done(task, request=request, conn=conn):
            try:
                reply = task.result()
            except (ComponentCrash, asyncio.CancelledError):
                # Crash mid-call (no skel-end probe, no reply) or loop
                # teardown: reset the link so the client fails promptly.
                _CRASHED_DISPATCHES.inc()
                conn.close()
                return
            if reply is not None and not request.oneway:
                self._send_reply(conn, reply)

        task.add_done_callback(_done)

    def _send_reply(self, conn: Connection, reply: ReplyMessage) -> None:
        """Send a reply, tolerating a connection torn down mid-dispatch.

        A client reset (or an injected connection fault) between request
        receipt and reply send must not kill the dispatching thread — a
        pooled policy worker dying would silently shrink the pool.
        """
        try:
            conn.send(reply.encode(), sender_host=self.process.host)
        except TransportError:
            pass

    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        if self._shut_down:
            return
        self._shut_down = True
        self.network.unlisten(self.address)
        with self._channels_lock:
            channels = list(self._channels.values())
            self._channels.clear()
            async_channels = list(self._async_channels.values())
            self._async_channels.clear()
        for channel in channels:
            channel.close()  # unblocks the demux reader thread
        for channel in async_channels:
            channel.close()  # posts failure to the owning loop
        with self._server_connections_lock:
            connections = list(self._server_connections)
        for conn in connections:
            conn.close()  # unblocks the reader thread
        self.policy.shutdown()


def create_orb(process: SimProcess, network: Network, **kwargs) -> Orb:
    """Convenience factory mirroring ``CORBA::ORB_init``."""
    return Orb(process, network, **kwargs)
