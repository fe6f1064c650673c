"""The probe path builds no record: a probe logs a probe row.

Every record site of ``MonitoringRuntime`` — the remote sync stub and
skeleton, the oneway fork, the collocated pair, the malformed-FTL
fallbacks — is driven with ``ProbeRecord.__init__`` counted. The count
must stay 0 while the probes fire; ``drain()`` then builds exactly one
record per row, equal to what the probes logged.
"""

from __future__ import annotations

import pytest

from repro.core import (
    MonitorConfig,
    MonitoringRuntime,
    MonitorMode,
    OperationInfo,
    ProbeRecord,
    SequentialUuidFactory,
    TracingEvent,
)
from repro.core.records import as_row
from repro.platform import Host, SimProcess

E = TracingEvent


@pytest.fixture
def inits(monkeypatch):
    """The number of ``ProbeRecord.__init__`` calls so far (a one-item list)."""
    count = [0]
    original = ProbeRecord.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(ProbeRecord, "__init__", counting)
    return count


def _runtime(name: str, host: Host, mode: MonitorMode) -> MonitoringRuntime:
    return MonitoringRuntime(
        SimProcess(name, host),
        MonitorConfig(mode=mode, uuid_factory=SequentialUuidFactory(name[:2].encode().hex())),
    )


def _drive_every_site(client: MonitoringRuntime, server: MonitoringRuntime) -> None:
    op = OperationInfo("Rows::Svc", "work", "svc.obj-1", "SvcImpl")
    semantics = {"args": ["1"]}
    # Remote sync: stub start/end on the client, skeleton start/end on the server.
    stub = client.stub_start(op, semantics=semantics)
    skel = server.skel_start(op, stub.request_ftl_payload, semantics=semantics)
    reply = server.skel_end(skel, semantics=semantics)
    server.unbind_ftl()
    client.stub_end(stub, reply, semantics=semantics)
    # Oneway fork: the parent chain's stub pair, the child chain's skeleton.
    stub = client.stub_start(op, oneway=True)
    client.stub_end(stub, None)
    skel = server.skel_start(op, stub.request_ftl_payload, oneway=True)
    server.skel_end(skel)
    server.unbind_ftl()
    # The collocated pair, both halves.
    pair = client.collocated_call_start(op, semantics=semantics)
    client.collocated_call_end(*pair, semantics=semantics)
    client.unbind_ftl()
    # Malformed tunnel payloads: a fresh chain at the skeleton, the reply ignored.
    stub = client.stub_start(op)
    skel = server.skel_start(op, b"\x00garbage")
    server.skel_end(skel)
    server.unbind_ftl()
    client.stub_end(stub, b"\x01")
    client.unbind_ftl()


@pytest.mark.parametrize("mode", list(MonitorMode))
def test_probes_build_no_record(inits, mode):
    host = Host("rows-host")
    client, server = _runtime("client", host, mode), _runtime("server", host, mode)
    _drive_every_site(client, server)
    assert inits[0] == 0

    expected_events = {
        client: [E.STUB_START, E.STUB_END, E.STUB_START, E.STUB_END,
                 E.STUB_START, E.SKEL_START, E.SKEL_END, E.STUB_END,
                 E.STUB_START, E.STUB_END],
        server: [E.SKEL_START, E.SKEL_END, E.SKEL_START, E.SKEL_END,
                 E.SKEL_START, E.SKEL_END],
    }
    wall_on, cpu_on, semantics_on = mode.flags
    for runtime, events in expected_events.items():
        buffer = runtime.process.log_buffer
        rows = buffer.drain_rows()
        for row in rows:
            buffer.append_row(row)
        assert inits[0] == 0
        records = buffer.drain()
        assert inits[0] == len(records) == len(rows) == len(events)
        inits[0] = 0
        assert [record.event for record in records] == events
        for record, row in zip(records, rows):
            assert as_row(record) == row
            # The end readings were stamped into the logged row.
            assert (record.wall_end is not None) is wall_on
            assert (record.cpu_end is not None) is (cpu_on and host.capabilities.supports_thread_cpu)
            if wall_on:
                assert record.wall_end >= record.wall_start
        if semantics_on:
            assert any(record.semantics == {"args": ["1"]} for record in records)

