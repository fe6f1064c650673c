"""Property test: sharded reconstruction == serial reconstruction.

Hypothesis generates arbitrary workloads — nested synchronous calls,
collocated calls, oneway forks, and optionally corrupted (mingled)
chains; the simulator drives the real probes; the sharded analyzer must
produce a DSCG whose serialized JSON is byte-identical to the serial
single-scan analyzer's, for every worker count and for both file-backed
(per-thread WAL readers) and in-memory (serialized fallback) databases.
"""

import os
import tempfile

from hypothesis import given, strategies as st

from repro.analysis import dscg_to_json, reconstruct, reconstruct_sharded
from repro.collector import MonitoringDatabase, collect_run
from repro.core import CallKind, Domain, MonitorMode, ProbeRecord, Site, TracingEvent
from tests.helpers import Call, simulate

_NAMES = ["A::f", "A::g", "B::h", "C::m"]


@st.composite
def call_trees(draw, depth=2):
    name = draw(st.sampled_from(_NAMES))
    cpu = draw(st.integers(0, 500))
    collocated = draw(st.booleans())
    oneway = draw(st.booleans()) if depth < 2 else False
    children = ()
    if depth > 0:
        children = tuple(draw(st.lists(call_trees(depth=depth - 1), max_size=2)))
    return Call(
        name,
        cpu_ns=cpu,
        children=children,
        collocated=collocated and not oneway,
        oneway=oneway,
    )


def _stray_record(chain_uuid, seq, event):
    return ProbeRecord(
        chain_uuid=chain_uuid,
        event_seq=seq,
        event=event,
        site=Site(
            interface="Rogue",
            operation="mingled",
            object_id="rogue.obj",
            component="Rogue",
            process="sim",
            pid=1,
            host="sim-host",
            processor_type="PA-RISC",
            platform="HPUX 11",
            domain=Domain.CORBA,
        ),
        thread_id=7,
        call_kind=CallKind.SYNC,
        collocated=False,
        wall_start=1,
        wall_end=2,
    )


@given(
    top_calls=st.lists(call_trees(), min_size=1, max_size=4),
    workers=st.integers(2, 6),
    mingle=st.booleans(),
    file_backed=st.booleans(),
)
def test_sharded_reconstruction_matches_serial(top_calls, workers, mingle,
                                               file_backed):
    sim = simulate(top_calls, mode=MonitorMode.FULL, fresh_chain_per_top_call=True)
    if mingle:
        # A chain violating the Figure-4 machine from its first record,
        # plus a mid-stream corruption appended to a real chain.
        sim.process.log_buffer.append(
            _stray_record("ee" * 16, 0, TracingEvent.STUB_END)
        )
        first = sim.records[0].chain_uuid
        seq = 1 + max(r.event_seq for r in sim.records if r.chain_uuid == first)
        sim.process.log_buffer.append(
            _stray_record(first, seq, TracingEvent.SKEL_END)
        )
    if file_backed:
        with tempfile.TemporaryDirectory(prefix="repro-prop-") as tmp:
            database, run_id = collect_run(
                [sim.process],
                database=MonitoringDatabase(os.path.join(tmp, "run.db")),
            )
            _assert_equivalent(database, run_id, workers)
            database.close()
    else:
        database, run_id = collect_run([sim.process])
        _assert_equivalent(database, run_id, workers)


def _assert_equivalent(database, run_id, workers):
    serial = reconstruct(database, run_id)
    sharded = reconstruct_sharded(database, run_id, workers=workers)
    assert list(sharded.chains) == list(serial.chains)
    assert dscg_to_json(sharded) == dscg_to_json(serial)
    # The annotation slots the serializer filled agree too.
    for uuid, tree in serial.chains.items():
        for node, twin in zip(tree.walk(), sharded.chains[uuid].walk()):
            assert node.latency_ns == twin.latency_ns
            assert node.self_cpu_ns == twin.self_cpu_ns
