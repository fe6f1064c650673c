"""The real-socket transport preserves message boundaries over TCP.

The channels above the network seam assume message semantics — one
``send`` is one ``recv``. TCP coalesces and fragments arbitrarily, so
the property that matters is: *however* the framed byte stream is cut
into segments, the accept side re-slices it into exactly the sent
messages (checked against the blocking reference decoder, like the
asyncio plane's own fragmentation suite — the same parser runs both
layers). The rest pins the connection lifecycle the channels rely on:
timeouts, half-close, send-after-close, endpoint resolution.
"""

from __future__ import annotations

import queue
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.transport import SocketTransport
from repro.errors import TransportError
from repro.orb.aio.framing import (
    MAX_FRAME_BYTES,
    frame_message,
    parse_frames_blocking,
)

_HELLO = frame_message(b'{"client_label": "raw-client"}')


def _fragment(stream: bytes, cuts: list[int]) -> list[bytes]:
    """Split ``stream`` at the (normalized) cut offsets."""
    points = sorted({min(c % (len(stream) + 1), len(stream)) for c in cuts})
    chunks = []
    prev = 0
    for point in points:
        chunks.append(stream[prev:point])
        prev = point
    chunks.append(stream[prev:])
    return [c for c in chunks if c]


@pytest.fixture(scope="module")
def listener():
    """One shared listening transport; accepted connections via a queue."""
    transport = SocketTransport()
    accepted: queue.Queue = queue.Queue()
    transport.listen("svc", accepted.put)
    host, port = transport.local_endpoints()["svc"]
    yield (host, port), accepted
    transport.close()


class TestLoopbackFragmentation:
    @given(
        payloads=st.lists(
            st.binary(min_size=0, max_size=64), min_size=1, max_size=8
        ),
        cuts=st.lists(st.integers(min_value=0, max_value=10_000), max_size=24),
    )
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_segmentation_reslices_to_sent_messages(
        self, listener, payloads, cuts
    ):
        (host, port), accepted = listener
        framed = b"".join(frame_message(p) for p in payloads)
        # The hello shares the stream with the data frames, so cuts can
        # land inside the handshake too — the over-read path is under test.
        stream = _HELLO + framed
        client = socket.create_connection((host, port), timeout=5.0)
        try:
            for chunk in _fragment(stream, cuts):
                client.sendall(chunk)
            conn = accepted.get(timeout=5.0)
            try:
                received = [conn.recv(timeout=5.0) for _ in payloads]
                assert received == payloads == parse_frames_blocking(framed)
                assert conn.peer_label == "raw-client"
            finally:
                conn.close()
        finally:
            client.close()

    @given(payload=st.binary(min_size=0, max_size=48))
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_one_byte_trickle(self, listener, payload):
        (host, port), accepted = listener
        stream = _HELLO + frame_message(payload)
        client = socket.create_connection((host, port), timeout=5.0)
        try:
            for i in range(len(stream)):
                client.sendall(stream[i : i + 1])
            conn = accepted.get(timeout=5.0)
            try:
                assert conn.recv(timeout=5.0) == payload
            finally:
                conn.close()
        finally:
            client.close()


class TestConnectionLifecycle:
    def _pair(self):
        """A connected (client_conn, server_conn) pair over loopback."""
        server = SocketTransport()
        accepted: queue.Queue = queue.Queue()
        server.listen("svc", accepted.put)
        client = SocketTransport()
        client.set_endpoints(server.local_endpoints())
        client_conn = client.connect("cli", "svc")
        server_conn = accepted.get(timeout=5.0)
        return server, client, client_conn, server_conn

    def test_bidirectional_roundtrip_and_labels(self):
        server, client, c2s, s2c = self._pair()
        try:
            c2s.send(b"ping")
            assert s2c.recv(timeout=5.0) == b"ping"
            s2c.send(b"pong")
            assert c2s.recv(timeout=5.0) == b"pong"
            assert (c2s.local_label, c2s.peer_label) == ("cli", "svc")
            assert (s2c.local_label, s2c.peer_label) == ("svc", "cli")
        finally:
            client.close()
            server.close()

    def test_recv_timeout_keeps_connection_usable(self):
        server, client, c2s, s2c = self._pair()
        try:
            with pytest.raises(TransportError, match="timed out"):
                s2c.recv(timeout=0.05)
            c2s.send(b"late")
            assert s2c.recv(timeout=5.0) == b"late"
        finally:
            client.close()
            server.close()

    def test_peer_close_surfaces_and_stays_closed(self):
        # Half-close regression: the peer's FIN must fail *every* later
        # recv (the sentinel re-arms), and sends must fail fast — the
        # same behaviour a kill -9'd worker's partner observes.
        server, client, c2s, s2c = self._pair()
        try:
            c2s.close()
            with pytest.raises(TransportError, match="closed by peer"):
                s2c.recv(timeout=5.0)
            assert s2c.closed
            with pytest.raises(TransportError, match="closed by peer"):
                s2c.recv(timeout=5.0)
            with pytest.raises(TransportError, match="is closed"):
                s2c.send(b"into the void")
        finally:
            client.close()
            server.close()

    def test_send_after_local_close_raises(self):
        server, client, c2s, _s2c = self._pair()
        try:
            c2s.close()
            with pytest.raises(TransportError, match="is closed"):
                c2s.send(b"x")
        finally:
            client.close()
            server.close()

    def test_corrupt_length_prefix_tears_link_down(self):
        # Stream desync has no recovery point: the reader must drop the
        # link, not guess at the next frame boundary.
        server = SocketTransport()
        accepted: queue.Queue = queue.Queue()
        server.listen("svc", accepted.put)
        host, port = server.local_endpoints()["svc"]
        raw = socket.create_connection((host, port), timeout=5.0)
        try:
            raw.sendall(_HELLO + frame_message(b"good"))
            conn = accepted.get(timeout=5.0)
            assert conn.recv(timeout=5.0) == b"good"
            raw.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"junk")
            with pytest.raises(TransportError, match="closed by peer"):
                conn.recv(timeout=5.0)
        finally:
            raw.close()
            server.close()


class TestTransportSeam:
    def test_connect_unknown_address(self):
        transport = SocketTransport()
        try:
            with pytest.raises(TransportError, match="no listener at nowhere"):
                transport.connect("cli", "nowhere")
        finally:
            transport.close()

    def test_listen_conflict_and_unlisten(self):
        transport = SocketTransport()
        try:
            transport.listen("svc", lambda conn: None)
            with pytest.raises(TransportError, match="already in use"):
                transport.listen("svc", lambda conn: None)
            transport.unlisten("svc")
            with pytest.raises(TransportError, match="no listener at svc"):
                transport.connect("cli", "svc")
        finally:
            transport.close()

    def test_published_map_never_shadows_local_listener(self):
        transport = SocketTransport()
        try:
            transport.listen("svc", lambda conn: None)
            local = transport.local_endpoints()["svc"]
            transport.set_endpoints({"svc": ("10.0.0.1", 1), "other": ("h", 2)})
            assert transport.local_endpoints()["svc"] == local
        finally:
            transport.close()

    def test_simulated_latency_is_refused(self):
        transport = SocketTransport()
        try:
            with pytest.raises(TransportError):
                transport.set_default_latency(1_000)
            with pytest.raises(TransportError):
                transport.set_latency("a", "b", 1_000)
            transport.apply_latency("a", "b")  # no-op by contract
        finally:
            transport.close()

    def test_closed_transport_refuses_new_work(self):
        transport = SocketTransport()
        transport.close()
        with pytest.raises(TransportError, match="closed"):
            transport.listen("svc", lambda conn: None)
        with pytest.raises(TransportError, match="closed"):
            transport.connect("cli", "svc")
