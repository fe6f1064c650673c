"""Unit tests for the Figure-4 reconstruction state machine."""

from dataclasses import replace

from repro.analysis import reconstruct_from_records
from repro.analysis.statemachine import ChainBuilder
from repro.core import CallKind, ProbeRecord, TracingEvent
from repro.core.records import as_row, from_row
from tests.helpers import Call, simulate


def build(calls, **kwargs):
    sim = simulate(calls, **kwargs)
    return reconstruct_from_records(sim.records), sim


class TestBasicStructures:
    def test_single_call(self):
        dscg, _ = build([Call("I::F")])
        assert dscg.node_count() == 1
        (tree,) = dscg.chains.values()
        assert tree.roots[0].function == "I::F"
        assert tree.is_clean

    def test_sibling_calls_one_chain_two_roots(self):
        dscg, _ = build([Call("I::F"), Call("I::G")])
        (tree,) = dscg.chains.values()
        assert [n.function for n in tree.roots] == ["I::F", "I::G"]
        assert all(not n.children for n in tree.roots)

    def test_nesting_parent_child(self):
        dscg, _ = build([Call("I::F", children=(Call("I::G", children=(Call("I::H"),)),))])
        (tree,) = dscg.chains.values()
        f = tree.roots[0]
        assert f.function == "I::F"
        assert f.children[0].function == "I::G"
        assert f.children[0].children[0].function == "I::H"
        assert dscg.max_depth() == 3

    def test_cascading_children(self):
        dscg, _ = build([Call("I::F", children=(Call("I::G1"), Call("I::G2")))])
        f = list(dscg.chains.values())[0].roots[0]
        assert [c.function for c in f.children] == ["I::G1", "I::G2"]

    def test_recursion_nests(self):
        call = Call("I::rec", children=(Call("I::rec", children=(Call("I::rec"),)),))
        dscg, _ = build([call])
        assert dscg.max_depth() == 3
        assert not dscg.abnormal_events()

    def test_fresh_chain_per_top_call(self):
        dscg, _ = build([Call("I::F"), Call("I::G")], fresh_chain_per_top_call=True)
        assert len(dscg.chains) == 2

    def test_collocated_flagged(self):
        dscg, _ = build([Call("I::F", collocated=True)])
        node = list(dscg.walk())[0]
        assert node.collocated
        assert len(node.records) == 4


class TestOneway:
    def test_oneway_forks_linked_chain(self):
        dscg, _ = build([Call("I::F", children=(Call("I::cast", oneway=True),))])
        assert len(dscg.chains) == 2
        assert len(dscg.links) == 1
        parent_uuid, forking_node, child_uuid = dscg.links[0]
        assert forking_node.function == "I::cast"
        assert forking_node.oneway_side == "stub"
        child_tree = dscg.chains[child_uuid]
        assert child_tree.parent_chain_uuid == parent_uuid
        assert child_tree.roots[0].oneway_side == "skel"
        assert child_tree.roots[0].call_kind is CallKind.ONEWAY

    def test_oneway_child_work_in_forked_chain(self):
        dscg, _ = build(
            [Call("I::F", children=(
                Call("I::cast", oneway=True, children=(Call("I::inner"),)),
            ))]
        )
        child_uuid = dscg.links[0][2]
        child_root = dscg.chains[child_uuid].roots[0]
        assert [c.function for c in child_root.children] == ["I::inner"]

    def test_root_chains_excludes_forked(self):
        dscg, _ = build([Call("I::F", children=(Call("I::cast", oneway=True),))])
        roots = dscg.root_chains()
        assert len(roots) == 1
        assert roots[0].roots[0].function == "I::F"


class TestAbnormal:
    def _records(self, calls):
        return simulate(calls).records

    def test_clean_run_has_no_abnormal(self):
        records = self._records([Call("I::F", children=(Call("I::G"),))])
        dscg = reconstruct_from_records(records)
        assert dscg.abnormal_events() == []

    def test_missing_stub_end_reported(self):
        records = self._records([Call("I::F")])
        truncated = [r for r in records if r.event is not TracingEvent.STUB_END]
        dscg = reconstruct_from_records(truncated)
        abnormal = dscg.abnormal_events()
        assert abnormal
        assert "never completed" in abnormal[0].reason

    def test_orphan_skel_end_reported_and_restarts(self):
        records = self._records([Call("I::F"), Call("I::G")])
        # Drop F's skel_start: its skel_end becomes an orphan.
        damaged = [
            r
            for r in records
            if not (r.operation == "F" and r.event is TracingEvent.SKEL_START)
        ]
        dscg = reconstruct_from_records(damaged)
        abnormal = dscg.abnormal_events()
        assert any("skel_end" in a.reason for a in abnormal)
        # The analyzer restarted: G is still reconstructed cleanly.
        assert dscg.nodes_for_function("I", "G")

    def test_mismatched_stub_end_reported(self):
        records = self._records([Call("I::F")])
        # Rename the stub_end so it cannot close the open F frame.
        records = [
            replace(record, site=replace(record.site, operation="WRONG"))
            if record.event is TracingEvent.STUB_END else record
            for record in records
        ]
        dscg = reconstruct_from_records(records)
        assert any("stub_end" in a.reason for a in dscg.abnormal_events())

    def test_an_abnormal_row_is_reported_with_its_record(self):
        # The machine applies rows; the event it flags still carries a
        # ProbeRecord (the online monitor reads ``event.record.function``).
        records = sorted(self._records([Call("I::F")]), key=lambda r: r.event_seq)
        rows = [tuple(as_row(record)) for record in records]
        site = records[-1].site
        rows[-1] = (replace(site, operation="WRONG"), *rows[-1][1:])  # the stub_end
        builder = ChainBuilder(records[0].chain_uuid)
        for row in rows:
            builder.apply(row)
        (event, _never_completed) = builder.finish().abnormal
        assert "stub_end for I::WRONG" in event.reason
        assert type(event.record) is ProbeRecord
        assert event.record == from_row(rows[-1])
        assert event.event_seq == rows[-1][2]

    def test_partial_when_server_unmonitored(self):
        records = self._records([Call("I::F")])
        stub_only = [r for r in records if r.event.is_stub_side]
        dscg = reconstruct_from_records(stub_only)
        node = list(dscg.walk())[0]
        assert node.partial
        assert not dscg.abnormal_events()

    def test_partial_when_client_unmonitored(self):
        records = self._records([Call("I::F")])
        skel_only = [r for r in records if not r.event.is_stub_side]
        dscg = reconstruct_from_records(skel_only)
        node = list(dscg.walk())[0]
        assert node.partial
        assert not dscg.abnormal_events()


class TestNodeMetadata:
    def test_locality_properties(self):
        dscg, sim = build([Call("I::F")])
        node = list(dscg.walk())[0]
        assert node.client_process == "sim"
        assert node.server_process == "sim"
        assert node.server_processor_type == "PA-RISC"
        assert node.server_thread is not None

    def test_stats(self):
        dscg, _ = build(
            [Call("A::f", children=(Call("B::g"),)), Call("A::f")],
            fresh_chain_per_top_call=True,
        )
        stats = dscg.stats()
        assert stats["chains"] == 2
        assert stats["nodes"] == 3
        assert stats["unique_methods"] == 2
        assert stats["unique_interfaces"] == 2
        assert stats["abnormal_events"] == 0
