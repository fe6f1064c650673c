"""A deterministic budget for what a probe costs: Python frames entered.

``sys.setprofile`` ``"call"`` events, monitored world minus its
identically built unmonitored twin, divided by the probes fired. A count,
not a timing: it repeats exactly, takes milliseconds, and fails the change
that re-grows the probe (a helper call here, a property there). The
ledger's ``monitor_overhead_ratio`` on ``collocated_nested`` carries the
claim in time; this is its tier-1 tripwire. C calls (the clock, the
context variable, ``struct``) are not frames and are not counted.

Before the probes were inlined the collocated figure was 11.6 frames per
probe (``_make_record``, ``advance``, ``_ftl_for_call``, the carrier's
``get`` -> ``_var``, two wrapper levels, ...). What is left is the probe
pair itself and, once per root call, the two frames a chain start cannot
avoid: the uuid factory's ``__call__`` and ``FunctionTxLog.__init__``. The
start probe mints and binds the chain in its own frame; a probe logs its
record as a list (a probe row) through the buffer's per-thread C-level
``list.append``, counts it only behind the telemetry flag, and hands its
end probe a plain ``(site, ftl)`` tuple; the generated code reads the
``OperationInfo`` by subscript and builds a semantics payload only while
the mode captures semantics.
"""

from __future__ import annotations

import gc
import sys

from repro.core import MonitorConfig, MonitoringRuntime, MonitorMode, SequentialUuidFactory
from repro.idl import compile_idl
from repro.orb import InterfaceRegistry, Orb, ThreadPool
from repro.platform import Host, Network, SimProcess

IDL = """
module Budget {
  interface Level { long step(in long x); };
  interface Svc {
    long work(in long x);
    void arm();
    void fence();
  };
};
"""

#: Frames per probe, collocated depth-4 chain (16 probes per root call):
#: exactly what was measured once the start probe minted the root's chain
#: in its own frame — the four fused pairs (8 frames) plus the uuid
#: factory and the ``FunctionTxLog`` constructor (10 frames / 16 probes).
#: It was 0.8125 with ``_start_chain`` -> ``bind_ftl`` / ``new_chain``,
#: 3.375 with a ``CallContext``, ``append_row``, a no-op counter ``inc``
#: and ``_op_info`` per call, 4.375 before probes logged rows, 11.75
#: before they were inlined.
COLLOCATED_BUDGET = 0.625
#: Frames per probe, one remote sync root call (4 probes): exactly what was
#: measured once the chain start moved into the probe and the generated
#: code skipped the semantics helpers with semantics off (4.5 before, 7.25
#: before no probe entered a buffer method or a no-op counter, 8.25 with a
#: ``ProbeRecord`` per probe, 15.75 before the probes were inlined). Beside
#: the four probes it holds what else only a monitored remote call runs —
#: the root's uuid factory, two ``FunctionTxLog`` constructors (the root's
#: chain and the skeleton's unmarshalled copy), the ``CallContext`` of each
#: start probe, two ``FunctionTxLog.to_bytes`` and the two GIOP
#: ``_write_blob`` calls that carry them (13 frames / 4 probes).
REMOTE_BUDGET = 3.25


def _process(name: str, host: Host, monitored: bool) -> SimProcess:
    process = SimProcess(name, host)
    if monitored:
        MonitoringRuntime(
            process,
            MonitorConfig(mode=MonitorMode.LATENCY, uuid_factory=SequentialUuidFactory("b0")),
        )
    return process


def _no_chain() -> None:
    """The twin's stand-in for ``unbind_ftl``: the same frame, no chain."""


class _FrameCounter:
    """Counts "call" events on every thread it is installed on while open."""

    def __init__(self):
        self.open = False
        self.frames = 0

    def __call__(self, frame, event, arg):
        if event == "call" and self.open:
            self.frames += 1


def _collocated_frames(monitored: bool) -> int:
    """Frames of one warmed root call through a depth-4 collocated chain,
    built the way the ledger's ``collocated_nested`` world is."""
    registry = InterfaceRegistry()
    compiled = compile_idl(IDL, instrument=True, registry=registry)
    solo = _process("solo", Host("budget-host"), monitored)
    orb = Orb(solo, Network(), registry=registry)

    class LevelImpl(compiled.Level):
        def __init__(self, inner=None):
            self.inner = inner

        def step(self, x):
            return x + 1 if self.inner is None else self.inner.step(x) + 1

    stub = None
    for _depth in range(4):
        stub = orb.resolve(orb.activate(LevelImpl(stub)))
    unbind = solo.monitor.unbind_ftl if monitored else _no_chain
    counter = _FrameCounter()
    try:
        for _ in range(20):  # warm: sites bound, caches filled
            assert stub.step(1) == 5
            unbind()
        sys.setprofile(counter)
        counter.open = True
        stub.step(1)
        unbind()
        counter.open = False
    finally:
        sys.setprofile(None)
        solo.shutdown()
    assert len(solo.log_buffer) == (21 * 16 if monitored else 0)
    return counter.frames


def _remote_frames_per_call(monitored: bool) -> float:
    """Frames one remote sync call adds on the two threads that run probes:
    the caller's and the server's one pooled worker.

    The worker installs the counter on itself (``arm``), and closes the
    window itself (``fence``) — it is the last thread still running frames
    of the final call, and the caller is parked waiting for the fence's
    reply by then, so nothing races the close. The fence's own frames are
    the same for every ``calls`` and cancel in the difference.
    """
    network = Network()
    host = Host("budget-host")
    registry = InterfaceRegistry()
    compiled = compile_idl(IDL, instrument=True, registry=registry)
    client, server = _process("client", host, monitored), _process("server", host, monitored)
    counter = _FrameCounter()

    class SvcImpl(compiled.Svc):
        def work(self, x):
            return x + 1

        def arm(self):
            sys.setprofile(counter)

        def fence(self):
            counter.open = False
            sys.setprofile(None)

    server_orb = Orb(server, network, policy=ThreadPool(1), registry=registry)
    client_orb = Orb(client, network, registry=registry)
    stub = client_orb.resolve(server_orb.activate(SvcImpl()))
    unbind = client.monitor.unbind_ftl if monitored else _no_chain

    def frames(calls: int) -> int:
        stub.arm()
        counter.frames = 0
        sys.setprofile(counter)
        try:
            counter.open = True
            for _ in range(calls):
                stub.work(1)
                unbind()  # every call a root call, as in the ledger's driver
            stub.fence()
        finally:
            sys.setprofile(None)
        assert not counter.open
        return counter.frames

    try:
        for _ in range(20):
            assert stub.work(1) == 2
            unbind()
        frames(1)  # warm arm/fence too
        return (frames(5) - frames(1)) / 4
    finally:
        client.shutdown()
        server.shutdown()


def _quiet(measure, monitored: bool):
    """Run ``measure`` with the collector off: a ``__del__`` or weakref
    callback fired by a GC pass would be a frame that is nobody's cost."""
    gc.collect()
    gc.disable()
    try:
        return measure(monitored)
    finally:
        gc.enable()


def test_collocated_probe_stays_within_its_frame_budget():
    per_probe = (_quiet(_collocated_frames, True) - _quiet(_collocated_frames, False)) / 16
    assert 0 < per_probe <= COLLOCATED_BUDGET, per_probe


def test_collocated_frame_count_repeats_exactly():
    assert _quiet(_collocated_frames, True) == _quiet(_collocated_frames, True)


def test_remote_probe_stays_within_its_frame_budget():
    monitored = _quiet(_remote_frames_per_call, True)
    twin = _quiet(_remote_frames_per_call, False)
    per_probe = (monitored - twin) / 4
    assert 0 < per_probe <= REMOTE_BUDGET, per_probe
