"""Adversarial interleaving tests for the multiplexed client channel.

The reply demux in :class:`repro.orb.channel.MuxChannel` routes replies
to pipelined callers by GIOP request id. These tests script the server
side of the connection by hand so the reply stream can be arbitrarily
hostile: out-of-order completion, duplicate and stale request ids,
undecodable payloads, and a transport reset with calls in flight.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import TransportError
from repro.faults.injector import FaultInjector
from repro.faults.network import FaultyNetwork
from repro.faults.plan import FaultKind, FaultPlan
from repro.orb import InterfaceRegistry, Orb
from repro.orb.channel import MuxChannel
from repro.orb.giop import ReplyMessage, ReplyStatus
from repro.platform import Host, Network, PlatformKind, SimProcess, VirtualClock


@pytest.fixture
def harness():
    """A raw connection pair with a MuxChannel on the client side."""
    network = Network()
    host = Host("mux-host", PlatformKind.HPUX_11, clock=VirtualClock())
    process = SimProcess("mux-proc", host)
    server_sides: list = []
    network.listen("server", server_sides.append)
    client_conn = network.connect("client", "server")
    channel = MuxChannel(client_conn, process)
    yield channel, server_sides[0]
    channel.close()
    process.shutdown()


def _reply(request_id: int, body: bytes = b"") -> bytes:
    return ReplyMessage(request_id, ReplyStatus.OK, body).encode()


def _call_in_thread(channel, request_id, results, timeout=5.0):
    def run():
        try:
            results[request_id] = channel.call(
                request_id, b"req", None, oneway=False, timeout=timeout
            )
        except TransportError as exc:
            results[request_id] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


class TestOutOfOrderCompletion:
    def test_replies_routed_by_id_not_arrival_order(self, harness):
        channel, server = harness
        results: dict = {}
        threads = [_call_in_thread(channel, rid, results) for rid in (1, 2, 3)]
        for _ in range(3):
            server.recv(timeout=2)
        # Complete the pipeline in reverse: 3, then 2, then 1.
        for rid in (3, 2, 1):
            server.send(_reply(rid, body=b"r%d" % rid))
        for thread in threads:
            thread.join(timeout=5)
        for rid in (1, 2, 3):
            assert results[rid].request_id == rid
            assert bytes(results[rid].body) == b"r%d" % rid

    def test_slow_first_call_does_not_block_later_ones(self, harness):
        channel, server = harness
        results: dict = {}
        first = _call_in_thread(channel, 10, results)
        second = _call_in_thread(channel, 11, results)
        for _ in range(2):
            server.recv(timeout=2)
        server.send(_reply(11))
        second.join(timeout=5)
        # Call 11 completed while 10 is still parked on the channel.
        assert results[11].request_id == 11
        assert 10 not in results
        server.send(_reply(10))
        first.join(timeout=5)
        assert results[10].request_id == 10


class TestDuplicateAndStaleReplies:
    def test_duplicate_reply_id_is_dropped_not_misrouted(self, harness):
        channel, server = harness
        results: dict = {}
        first = _call_in_thread(channel, 1, results)
        server.recv(timeout=2)
        server.send(_reply(1, body=b"first"))
        first.join(timeout=5)
        assert bytes(results[1].body) == b"first"
        # A duplicate of id 1 arrives while id 2 is the only waiter: it
        # must match nothing, and id 2 still gets its own reply.
        second = _call_in_thread(channel, 2, results)
        server.recv(timeout=2)
        server.send(_reply(1, body=b"duplicate"))
        server.send(_reply(2, body=b"second"))
        second.join(timeout=5)
        assert results[2].request_id == 2
        assert bytes(results[2].body) == b"second"

    def test_stale_reply_before_any_call_is_ignored(self, harness):
        channel, server = harness
        server.send(_reply(99))
        results: dict = {}
        thread = _call_in_thread(channel, 1, results)
        server.recv(timeout=2)
        server.send(_reply(1))
        thread.join(timeout=5)
        assert results[1].request_id == 1

    def test_undecodable_reply_fails_pending_but_channel_survives(self, harness):
        channel, server = harness
        results: dict = {}
        thread = _call_in_thread(channel, 1, results)
        server.recv(timeout=2)
        server.send(b"\x00garbage")
        thread.join(timeout=5)
        assert isinstance(results[1], TransportError)
        assert "undecodable" in str(results[1])
        assert not channel.closed
        # The framed connection is intact; the next call completes.
        retry = _call_in_thread(channel, 2, results)
        server.recv(timeout=2)
        server.send(_reply(2))
        retry.join(timeout=5)
        assert results[2].request_id == 2


class TestResetMidPipeline:
    def test_close_fails_every_outstanding_waiter(self, harness):
        channel, server = harness
        results: dict = {}
        threads = [_call_in_thread(channel, rid, results) for rid in (1, 2, 3, 4)]
        for _ in range(4):
            server.recv(timeout=2)
        server.send(_reply(2))  # one completes...
        server.close()  # ...then the transport dies mid-pipeline
        for thread in threads:
            thread.join(timeout=5)
        assert results[2].request_id == 2
        for rid in (1, 3, 4):
            assert isinstance(results[rid], TransportError)
        assert channel.closed

    def test_call_after_failure_raises_immediately(self, harness):
        channel, server = harness
        server.close()
        # Give the demux thread a beat to observe the close.
        for _ in range(100):
            if channel.closed:
                break
            threading.Event().wait(0.01)
        with pytest.raises(TransportError):
            channel.call(7, b"req", None, oneway=False, timeout=1)


IDL = "module MX { interface Echo { long bounce(in long n); }; };"


def _reset_plan(reset_index: int) -> FaultPlan:
    """A plan that RESETs exactly the ``reset_index``-th client->server
    message, found by scanning seeds (the schedule is hash-driven)."""
    for seed in range(10_000):
        plan = FaultPlan(seed=seed, rates={FaultKind.RESET: 0.12})
        schedule = plan.schedule("client->server", reset_index + 4)
        if (
            schedule[reset_index] == FaultKind.RESET.value
            and schedule.count(FaultKind.RESET.value) == 1
        ):
            return plan
    raise AssertionError("no seed produced the wanted reset schedule")


class TestResetThroughFaultyNetwork:
    def test_orb_recovers_after_plan_scheduled_reset(self):
        """A FaultyNetwork RESET mid-run fails the in-flight call with a
        TransportError and the next call transparently reconnects."""
        plan = _reset_plan(2)
        network = FaultyNetwork(FaultInjector(plan))
        clock = VirtualClock()
        host = Host("h", PlatformKind.HPUX_11, clock=clock)
        registry = InterfaceRegistry()
        from repro.idl import compile_idl

        compiled = compile_idl(IDL, instrument=False, registry=registry)
        server = SimProcess("server", host)
        client = SimProcess("client", host)

        class EchoImpl(compiled.Echo):
            def bounce(self, n):
                return n

        server_orb = Orb(server, network, registry=registry)
        client_orb = Orb(client, network, registry=registry, channel="mux")
        ref = server_orb.activate(EchoImpl())
        stub = client_orb.resolve(ref)
        try:
            assert stub.bounce(0) == 0  # message 0 passes
            # Message 1 passes; message 2 is the RESET. Depending on
            # whether the reset lands on this call's own request or is
            # noticed first by the demux, the failure surfaces on this
            # call or the next — but exactly one call fails.
            failures = 0
            for n in (1, 2):
                try:
                    assert stub.bounce(n) == n
                except TransportError:
                    failures += 1
            assert failures == 1
            # Recovery: a fresh channel is built on the next call.
            assert stub.bounce(3) == 3
            assert sum(1 for e in network.injector.events() if e.kind is FaultKind.RESET) == 1
        finally:
            client_orb.shutdown()
            server_orb.shutdown()
            server.shutdown()
            client.shutdown()


def test_a_bug_in_decode_fails_the_pending_call_promptly(harness, monkeypatch):
    # decode_message raises only MarshalError; anything else is a bug. It
    # ends the demux thread, and the call fails at once, not at its timeout.
    def broken(payload):
        raise TypeError("a bug, not a malformed reply")

    monkeypatch.setattr("repro.orb.channel.decode_message", broken)
    monkeypatch.setattr(threading, "excepthook", lambda args: None)
    channel, server = harness
    results: dict = {}
    thread = _call_in_thread(channel, 1, results, timeout=30.0)
    server.recv(timeout=2)
    server.send(_reply(1))
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert isinstance(results[1], TransportError)
    assert "stopped" in str(results[1])
    assert channel.closed
