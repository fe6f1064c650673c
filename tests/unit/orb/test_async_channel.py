"""AsyncMuxChannel: the awaitable demux contract.

Mirrors the adversarial interleaving suite of the threaded MuxChannel:
out-of-order completion, stale replies dropped, timeout surfaces as a
TransportError, transport loss fails every outstanding caller, an
undecodable reply fails pending calls but leaves the channel usable.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.errors import TransportError
from repro.orb.aio.channel import AsyncMuxChannel
from repro.orb.aio.framing import (
    ASYNC_STREAM_PRELUDE,
    StreamFrameParser,
    frame_message,
)
from repro.orb.giop import ReplyMessage, ReplyStatus, decode_message
from repro.platform.host import Host
from repro.platform.network import Network
from repro.platform.process import SimProcess


class _Server:
    """A scripted stream-mode peer: parses requests, runs a reply script.

    ``script(request_ids) -> list[bytes]`` receives the ids decoded from
    one transport chunk and returns raw payloads to send back (already
    framed or deliberately broken, per the scenario).
    """

    def __init__(self, network: Network, address: str, script):
        self.script = script
        self.conn = None
        self._parser = StreamFrameParser()
        self._saw_prelude = False
        network.listen(address, self._on_connect)

    def _on_connect(self, conn):
        self.conn = conn
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        while True:
            try:
                chunk = self.conn.recv(timeout=None)
            except TransportError:
                return
            if not self._saw_prelude and chunk == ASYNC_STREAM_PRELUDE:
                self._saw_prelude = True
                continue
            request_ids = []
            for frame in self._parser.feed(chunk):
                request_ids.append(decode_message(frame).request_id)
            for payload in self.script(request_ids):
                try:
                    self.conn.send(payload)
                except TransportError:
                    return


def _reply(request_id: int, body: bytes = b"") -> bytes:
    return frame_message(
        ReplyMessage(request_id=request_id, status=ReplyStatus.OK, body=body).encode()
    )


def _make_channel(script, timeout_addr="srv"):
    network = Network()
    process = SimProcess("client", Host("h"))
    server = _Server(network, timeout_addr, script)
    conn = network.connect("client", timeout_addr)
    return network, process, server, conn


def _run(coro):
    return asyncio.run(coro)


def _encode_request(request_id: int) -> bytes:
    from repro.orb.giop import RequestMessage

    return RequestMessage(
        request_id=request_id, object_key="k", interface="I",
        operation="op", oneway=False, body=b"",
    ).encode()


class TestAsyncMux:
    def test_out_of_order_replies_route_correctly(self):
        def script(ids):
            # Reply in reverse arrival order; batch into ONE transport
            # send so the client's parser also exercises multi-frame
            # chunks on the reply path.
            return [b"".join(_reply(i, str(i).encode()) for i in reversed(ids))]

        network, process, server, conn = _make_channel(script)

        async def main():
            channel = AsyncMuxChannel(conn, process, asyncio.get_running_loop())
            replies = await asyncio.gather(
                *(channel.call(i, _encode_request(i), process.host,
                               oneway=False, timeout=5.0)
                  for i in (1, 2, 3, 4))
            )
            assert [bytes(r.body) for r in replies] == [b"1", b"2", b"3", b"4"]
            assert channel.peak_pending == 4
            channel.close()

        _run(main())

    def test_stale_reply_dropped_channel_survives(self):
        def script(ids):
            out = [_reply(999)]  # matches no waiter
            out.extend(_reply(i, b"ok") for i in ids)
            return out

        network, process, server, conn = _make_channel(script)

        async def main():
            channel = AsyncMuxChannel(conn, process, asyncio.get_running_loop())
            reply = await channel.call(
                7, _encode_request(7), process.host, oneway=False, timeout=5.0
            )
            assert bytes(reply.body) == b"ok"
            assert not channel.closed
            channel.close()

        _run(main())

    def test_timeout_raises_transport_error(self):
        network, process, server, conn = _make_channel(lambda ids: [])

        async def main():
            channel = AsyncMuxChannel(conn, process, asyncio.get_running_loop())
            with pytest.raises(TransportError, match="recv timed out"):
                await channel.call(
                    1, _encode_request(1), process.host, oneway=False, timeout=0.05
                )
            # The abandoned call's entry is gone: a late reply is stale.
            assert 1 not in channel._pending
            channel.close()

        _run(main())

    def test_peer_close_fails_all_pending(self):
        def script(ids):
            server.conn.close()
            return []

        network, process, server, conn = _make_channel(script)

        async def main():
            channel = AsyncMuxChannel(conn, process, asyncio.get_running_loop())
            results = await asyncio.gather(
                *(channel.call(i, _encode_request(i), process.host,
                               oneway=False, timeout=5.0)
                  for i in (1, 2)),
                return_exceptions=True,
            )
            assert all(isinstance(r, TransportError) for r in results)
            assert channel.closed
            with pytest.raises(TransportError):
                await channel.call(
                    3, _encode_request(3), process.host, oneway=False, timeout=1.0
                )

        _run(main())

    def test_undecodable_reply_fails_pending_but_channel_survives(self):
        state = {"first": True}

        def script(ids):
            if state["first"]:
                state["first"] = False
                return [frame_message(b"\x00garbage")]
            return [_reply(i, b"ok") for i in ids]

        network, process, server, conn = _make_channel(script)

        async def main():
            channel = AsyncMuxChannel(conn, process, asyncio.get_running_loop())
            with pytest.raises(TransportError, match="undecodable reply"):
                await channel.call(
                    1, _encode_request(1), process.host, oneway=False, timeout=5.0
                )
            assert not channel.closed
            reply = await channel.call(
                2, _encode_request(2), process.host, oneway=False, timeout=5.0
            )
            assert bytes(reply.body) == b"ok"
            channel.close()

        _run(main())

    def test_coalesced_writes_share_transport_sends(self):
        chunks = []

        def script(ids):
            chunks.append(list(ids))
            return [_reply(i) for i in ids]

        network, process, server, conn = _make_channel(script)

        async def main():
            channel = AsyncMuxChannel(conn, process, asyncio.get_running_loop())
            await asyncio.gather(
                *(channel.call(i, _encode_request(i), process.host,
                               oneway=False, timeout=5.0)
                  for i in range(1, 9))
            )
            channel.close()

        _run(main())
        # All 8 requests queued in one loop tick arrive in (at most a
        # few) coalesced transport chunks, not 8 separate sends.
        assert sum(len(c) for c in chunks) == 8
        assert len(chunks) < 8

    def test_a_bug_in_decode_fails_the_pending_call_promptly(self, monkeypatch):
        # decode_message raises only MarshalError; anything else is a bug.
        # It ends the demux thread, and the call fails at once, not at its
        # timeout.
        def broken(frame):
            raise TypeError("a bug, not a malformed reply")

        monkeypatch.setattr("repro.orb.aio.channel.decode_message", broken)
        monkeypatch.setattr(threading, "excepthook", lambda args: None)
        network, process, server, conn = _make_channel(lambda ids: [_reply(i) for i in ids])

        async def main():
            channel = AsyncMuxChannel(conn, process, asyncio.get_running_loop())
            loop = asyncio.get_running_loop()
            started = loop.time()
            with pytest.raises(TransportError, match="demux of .* stopped"):
                await channel.call(
                    1, _encode_request(1), process.host, oneway=False, timeout=30.0
                )
            assert loop.time() - started < 5.0
            assert channel.closed

        _run(main())
