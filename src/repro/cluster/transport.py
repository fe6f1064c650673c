"""Real-socket TCP transport behind the in-memory network seam.

Every prior layer — the threaded :class:`~repro.orb.channel.MuxChannel`,
the :class:`~repro.orb.aio.channel.AsyncMuxChannel`, the ORB's reader
loops — talks to a *message-oriented* connection: one ``send`` arrives
as exactly one ``recv``. TCP is a byte stream, so the socket transport
re-creates message boundaries with the PR-9 length-prefixed framing
(:func:`~repro.orb.aio.framing.frame_message` on the way out, an
incremental :class:`~repro.orb.aio.framing.StreamFrameParser` on the way
in). The asyncio plane's own stream protocol — the
``ASYNC_STREAM_PRELUDE`` handshake followed by length-framed GIOP — then
rides *inside* these transport messages unchanged, which is exactly why
the existing fragmentation property suite applies to this transport
verbatim: the same parser re-slices both layers.

:class:`SocketTransport` duck-types :class:`repro.platform.network.Network`
(``listen`` / ``unlisten`` / ``connect``), so an :class:`~repro.orb.Orb`
binds to it with zero changes. Addresses stay symbolic process names;
an endpoint map published by the cluster coordinator resolves them to
``(host, port)`` pairs, letting ORBs in different OS processes find each
other.

Connection lifecycle mirrors the in-memory semantics the channels pin
down:

- peer ``close`` (or process death — FIN, RST, kill -9) surfaces as a
  ``None`` sentinel in the inbox: the blocked ``recv`` raises
  :class:`~repro.errors.TransportError` and marks the connection closed,
  like TCP after FIN;
- ``send`` on a closed/reset connection raises ``TransportError``;
- a corrupt length prefix is stream desynchronization: the reader tears
  the link down rather than guessing at the next frame boundary.

Fault injection is out of scope by design: deterministic fault plans
belong to the in-memory :class:`~repro.faults.FaultyNetwork`; a real
socket's faults are the real network's.
"""

from __future__ import annotations

import json
import queue
import socket
import threading

from repro.errors import MarshalError, TransportError
from repro.orb.aio.framing import StreamFrameParser, frame_message

#: recv() buffer size for the per-connection reader threads.
_RECV_CHUNK = 1 << 16
#: Bound on connect/handshake blocking; data-plane reads are unbounded.
_HANDSHAKE_TIMEOUT_S = 10.0


class SocketConnection:
    """One framed TCP socket presented with message semantics.

    A dedicated reader thread drains the socket, re-slices the byte
    stream into transport messages with a :class:`StreamFrameParser`,
    and feeds a ``SimpleQueue`` inbox — so ``recv`` has exactly the
    blocking/timeout/close contract of the in-memory
    :class:`~repro.platform.network.Connection`.
    """

    def __init__(
        self,
        sock: socket.socket,
        local_label: str,
        peer_label: str,
        parser: StreamFrameParser | None = None,
        ready: tuple[bytes, ...] = (),
    ):
        self.local_label = local_label
        self.peer_label = peer_label
        self._sock = sock
        self._inbox: queue.SimpleQueue[bytes | None] = queue.SimpleQueue()
        self._parser = parser if parser is not None else StreamFrameParser()
        self._closed = False
        self._send_lock = threading.Lock()
        # Frames the accept-side handshake over-read past the hello.
        for payload in ready:
            self._inbox.put(payload)
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"sockconn-{local_label}<-{peer_label}",
            daemon=True,
        )
        self._reader.start()

    # -- data plane -----------------------------------------------------

    def send(self, payload: bytes, sender_host=None) -> None:
        """Frame and send one message (``sender_host`` kept for seam
        compatibility; real links charge real latency)."""
        if self._closed:
            raise TransportError(
                f"connection {self.local_label}->{self.peer_label} is closed"
            )
        data = frame_message(payload)
        try:
            with self._send_lock:
                self._sock.sendall(data)
        except OSError as exc:
            self._closed = True
            raise TransportError(
                f"connection {self.local_label}->{self.peer_label} is closed"
            ) from exc

    def recv(self, timeout: float | None = None) -> bytes:
        """Block until a whole message arrives; raise on close or timeout."""
        try:
            payload = self._inbox.get(timeout=timeout)
        except queue.Empty:
            raise TransportError(
                f"recv timed out on {self.local_label}<-{self.peer_label}"
            ) from None
        if payload is None:
            self._closed = True
            # Keep later receivers failing too: unlike the in-memory
            # transport there is no live peer left to re-signal, so the
            # sentinel is re-armed for any other thread still blocked.
            self._inbox.put(None)
            raise TransportError(
                f"connection {self.local_label} closed by peer"
            )
        return payload

    def close(self) -> None:
        """Close both directions; local and remote receivers unblock.

        Also after the peer closed first (``closed`` already true): the
        socket itself is still open until this call."""
        if self._sock.fileno() == -1:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._inbox.put(None)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- reader thread --------------------------------------------------

    def _read_loop(self) -> None:
        sock = self._sock
        parser = self._parser
        inbox = self._inbox
        while True:
            try:
                chunk = sock.recv(_RECV_CHUNK)
            except OSError:
                break  # reset, or local close() shut the socket down
            if not chunk:
                break  # FIN / half-close: peer is gone for good
            try:
                frames = parser.feed(chunk)
            except MarshalError:
                # Corrupt length prefix: no next frame boundary exists.
                break
            for payload in frames:
                inbox.put(payload)
        inbox.put(None)


class SocketTransport:
    """TCP network for ORB endpoints in separate OS processes.

    Duck-types the :class:`~repro.platform.network.Network` seam:
    ``listen(address, on_connect)`` binds a real listening socket (an
    ephemeral loopback port by default) and ``connect(client_label,
    address)`` resolves ``address`` through the endpoint map and opens a
    framed TCP connection, announcing the client label in a one-frame
    hello so the server side can label the link exactly as the in-memory
    network does.
    """

    def __init__(self, bind_host: str = "127.0.0.1"):
        self._bind_host = bind_host
        self._lock = threading.Lock()
        #: address -> (listening socket, accept thread) for local listeners.
        self._listeners: dict[str, tuple[socket.socket, threading.Thread]] = {}
        #: address -> (host, port); local listeners plus the published map.
        self._endpoints: dict[str, tuple[str, int]] = {}
        self._connections: list[SocketConnection] = []
        self._closed = False

    # -- seam: server side ----------------------------------------------

    def listen(self, address: str, on_connect) -> None:
        """Bind a listening socket for ``address`` on an ephemeral port."""
        with self._lock:
            if self._closed:
                raise TransportError("socket transport is closed")
            if address in self._listeners:
                raise TransportError(f"address already in use: {address}")
        server = socket.create_server((self._bind_host, 0))
        thread = threading.Thread(
            target=self._accept_loop,
            args=(server, address, on_connect),
            name=f"sock-listen-{address}",
            daemon=True,
        )
        with self._lock:
            self._listeners[address] = (server, thread)
            self._endpoints[address] = (self._bind_host, server.getsockname()[1])
        thread.start()

    def unlisten(self, address: str) -> None:
        with self._lock:
            entry = self._listeners.pop(address, None)
            if entry is not None:
                self._endpoints.pop(address, None)
        if entry is not None:
            server, _thread = entry
            try:
                server.close()
            except OSError:
                pass

    def _accept_loop(self, server: socket.socket, address: str, on_connect) -> None:
        while True:
            try:
                sock, _peer = server.accept()
            except OSError:
                return  # unlisten()/close() closed the listening socket
            threading.Thread(
                target=self._handshake,
                args=(sock, address, on_connect),
                name=f"sock-accept-{address}",
                daemon=True,
            ).start()

    def _handshake(self, sock: socket.socket, address: str, on_connect) -> None:
        """Read the client's hello frame, then hand the link to the ORB.

        The hello may share TCP segments with the frames the client sent
        right after it; whatever the handshake over-reads is preserved —
        the parser (with its buffered tail) and any already-complete
        frames ride into the :class:`SocketConnection`.
        """
        parser = StreamFrameParser()
        frames: list[bytes] = []
        sock.settimeout(_HANDSHAKE_TIMEOUT_S)
        try:
            while not frames:
                chunk = sock.recv(_RECV_CHUNK)
                if not chunk:
                    sock.close()
                    return
                frames = parser.feed(chunk)
            hello = json.loads(frames[0].decode("utf-8"))
            client_label = str(hello["client_label"])
        except (OSError, MarshalError, ValueError, KeyError, TypeError):
            # A socket error or timeout, a corrupt prefix, a hello that is
            # not UTF-8 JSON (ValueError), or one of the wrong shape.
            try:
                sock.close()
            except OSError:
                pass
            return
        sock.settimeout(None)
        _nodelay(sock)
        conn = SocketConnection(
            sock, address, client_label, parser=parser, ready=tuple(frames[1:])
        )
        with self._lock:
            self._connections.append(conn)
        on_connect(conn)

    # -- seam: client side ----------------------------------------------

    def connect(self, client_label: str, address: str) -> SocketConnection:
        """Open a framed connection from ``client_label`` to ``address``."""
        with self._lock:
            if self._closed:
                raise TransportError("socket transport is closed")
            endpoint = self._endpoints.get(address)
        if endpoint is None:
            raise TransportError(f"no listener at {address}")
        try:
            sock = socket.create_connection(endpoint, timeout=_HANDSHAKE_TIMEOUT_S)
        except OSError as exc:
            raise TransportError(f"no listener at {address}: {exc}") from exc
        sock.settimeout(None)
        _nodelay(sock)
        try:
            sock.sendall(
                frame_message(
                    json.dumps({"client_label": client_label}).encode("utf-8")
                )
            )
        except OSError as exc:
            try:
                sock.close()
            except OSError:
                pass
            raise TransportError(f"no listener at {address}: {exc}") from exc
        conn = SocketConnection(sock, client_label, address)
        with self._lock:
            self._connections.append(conn)
        return conn

    # -- endpoint map ----------------------------------------------------

    def local_endpoints(self) -> dict[str, tuple[str, int]]:
        """The ``address -> (host, port)`` pairs this transport serves."""
        with self._lock:
            return {
                address: self._endpoints[address] for address in self._listeners
            }

    def set_endpoints(self, endpoints: dict[str, tuple[str, int]]) -> None:
        """Merge the coordinator-published map of remote endpoints."""
        with self._lock:
            for address, (host, port) in endpoints.items():
                if address not in self._listeners:
                    self._endpoints[address] = (str(host), int(port))

    # -- seam: latency hooks (real links have real latency) ---------------

    def set_default_latency(self, latency_ns: int) -> None:  # pragma: no cover
        raise TransportError("socket transport does not simulate link latency")

    def set_latency(self, *_args) -> None:  # pragma: no cover
        raise TransportError("socket transport does not simulate link latency")

    def apply_latency(self, *_args) -> None:
        """No-op: the kernel's TCP stack charges the real latency."""

    # -- teardown ---------------------------------------------------------

    def close(self) -> None:
        """Close every listener and connection (worker shutdown path)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            listeners = list(self._listeners.values())
            self._listeners.clear()
            connections = list(self._connections)
            self._connections.clear()
        for server, _thread in listeners:
            try:
                server.close()
            except OSError:
                pass
        for conn in connections:
            conn.close()


def _nodelay(sock: socket.socket) -> None:
    """Disable Nagle: the data plane sends many small framed messages and
    the channels already coalesce where it matters."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - platform without TCP_NODELAY
        pass
