"""A deterministic budget for what a reconstructed call costs the garbage
collector: GC-tracked objects per call, and what a node's records read as.

The offline journey used to pay one full collection (70-190 ms of a
0.25-0.36 s ``capture_to_report_s``) because a call was 9.75 tracked
objects: four ``ProbeRecord``s, the node, its ``__dict__``, a ``records``
dict, a ``children`` list and a ``CpuVector`` or two. Now a call is its
slotted ``CallNode`` plus, on a depth-4 chain, 3/4 of a children list, 3/4
of a vector, 1/4 of a ``ChainTree`` and 1/4 of its roots list: 3.0. The
four readings are exact tuples of atoms, which the collector untracks the
first time it sees them. A count, not a timing: it repeats exactly and
fails the change that hangs a container back on the node. The ledger's
``capture_to_report_s`` carries the claim in time; this is its tier-1
tripwire, in the style of ``tests/unit/core/test_probe_budget.py``.
"""

from __future__ import annotations

import gc
from dataclasses import replace
from operator import attrgetter

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import CpuAnalysis, annotate_latency, reconstruct_from_records
from repro.analysis.dscg import CallNode
from repro.core import CallKind, Domain, MonitorMode, TracingEvent
from tests.helpers import Call, simulate
from tests.property.test_probe_record_oracle import FORESTS, DirectRun

#: Tracked objects per call after reconstruct + both annotators (9.75 before).
NODE_BUDGET = 3.25


def _depth4(index: int) -> Call:
    call = None
    for level in "dcba":
        call = Call(f"Deep::{level}", cpu_ns=10 + index % 7, collocated=True,
                    children=(call,) if call else ())
    return call


def _flat_remote(index: int) -> Call:
    """A remote root fanning out to sync and oneway leaves."""
    leaves = tuple(
        Call(f"Flat::leaf{i}", cpu_ns=5, oneway=(i + index) % 3 == 0) for i in range(3)
    )
    return Call("Flat::root", cpu_ns=20, children=leaves)


def test_a_reconstructed_call_costs_the_collector_three_objects():
    calls = [_depth4(i) for i in range(250)] + [_flat_remote(i) for i in range(100)]
    records = simulate(calls, fresh_chain_per_top_call=True).records
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects()) - len(records) - 1  # the records, their list
        dscg = reconstruct_from_records(records)
        annotate_latency(dscg)
        cpu = CpuAnalysis(dscg)
        cpu.annotate()
        del records
        gc.collect()
        tracked = len(gc.get_objects()) - before
    finally:
        gc.enable()
    nodes = list(dscg.walk())
    assert len(nodes) == 250 * 4 + 100 * 5  # one leaf of three is oneway: two nodes
    assert tracked / len(nodes) <= NODE_BUDGET, f"{tracked} tracked objects, {len(nodes)} calls"
    assert not hasattr(nodes[0], "__dict__")
    for node in nodes:
        readings = [node.reading(event) for event in TracingEvent]
        assert any(readings)
        for reading in filter(None, readings):
            assert type(reading) is tuple and not gc.is_tracked(reading)
        assert node.latency_ns is not None and node.descendant_cpu is not None
@given(forest=FORESTS, mode=st.sampled_from(list(MonitorMode)))
def test_the_records_view_rebuilds_the_records_applied(forest, mode):
    """``node.record(event)`` equals the record the machine was given, for
    every node and event, across processes, domains, modes and semantics."""
    run = DirectRun(mode, "b7")
    try:
        for call in forest:
            run.call(0, call)
            run.runtimes[0].unbind_ftl()
        applied = [r for p in run.processes for r in p.log_buffer.snapshot()]
    finally:
        run.close()
    dscg = reconstruct_from_records(applied)
    assert dscg.abnormal_events() == []
    viewed = [
        record
        for node in dscg.walk()
        for event in TracingEvent
        if (record := node.record(event)) is not None
    ]
    by_key = attrgetter("chain_uuid", "event_seq")
    assert sorted(viewed, key=by_key) == sorted(applied, key=by_key)
    for node in dscg.walk():
        assert node.records == {e: node.record(e) for e in TracingEvent if node.reading(e)}
        assert all(node.record(e) is not node.record(e) for e in node.records)


def test_a_record_reads_back_with_its_frames_identity():
    """The one divergence of the view: a node holds its identity once, so a
    hand-built record that disagrees with the frame it is attached to reads
    back with the frame's component, call kind, collocation and domain."""
    (applied,) = [
        r for r in simulate([Call("I::F", cpu_ns=5)]).records
        if r.event is TracingEvent.SKEL_END
    ]
    odd = replace(applied, site=replace(applied.site, component="Other", domain=Domain.COM),
                  call_kind=CallKind.ONEWAY, collocated=True)
    node = CallNode("I", "F", "obj-1", "Comp", applied.chain_uuid,
                    records={TracingEvent.SKEL_END: odd})
    assert node.record(TracingEvent.SKEL_END) == applied != odd
    assert node.record(TracingEvent.STUB_START) is None
    odd.wall_end = -1  # a snapshot: neither the source record nor the view writes through
    node.record(TracingEvent.SKEL_END).wall_end = -2
    assert node.record(TracingEvent.SKEL_END) == applied
