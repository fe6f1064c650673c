"""Unit tests for DSCG JSON serialization."""

import gc
import json

import pytest

from repro.analysis import dscg_from_json, dscg_to_json, reconstruct_from_records
from repro.core import MonitorMode
from tests.helpers import Call, simulate


def dscg_for(calls, **kwargs):
    sim = simulate(calls, mode=MonitorMode.FULL, **kwargs)
    return reconstruct_from_records(sim.records)


class TestRoundtrip:
    def make(self):
        return dscg_for(
            [Call("I::root", cpu_ns=100, children=(
                Call("I::a", cpu_ns=20, collocated=True),
                Call("I::cast", oneway=True, cpu_ns=30),
            ))]
        )

    def test_structure_preserved(self):
        original = self.make()
        restored = dscg_from_json(dscg_to_json(original))
        assert restored.stats()["nodes"] == original.stats()["nodes"]
        assert set(restored.chains) == set(original.chains)
        (tree,) = restored.root_chains()
        root = tree.roots[0]
        assert root.function == "I::root"
        assert [c.function for c in root.children] == ["I::a", "I::cast"]
        assert root.children[0].collocated

    def test_oneway_links_relinked(self):
        restored = dscg_from_json(dscg_to_json(self.make()))
        assert len(restored.links) == 1

    def test_annotations_present(self):
        document = json.loads(dscg_to_json(self.make()))
        root = document["chains"][0]["roots"][0] if document["chains"][0]["roots"] else None
        # find the chain holding root (order not guaranteed)
        roots = [r for chain in document["chains"] for r in chain["roots"]]
        root = [r for r in roots if r["operation"] == "root"][0]
        assert "latency_ns" in root
        assert "self_cpu_ns" in root
        assert root["descendant_cpu_ns"]

    def test_reserializes_to_the_same_document(self):
        document = dscg_to_json(self.make())
        restored = dscg_from_json(document)
        assert dscg_to_json(restored) == document
        (tree,) = restored.root_chains()
        assert tree.roots[0].descendant_cpu.total_ns() > 0
        assert tree.roots[0].children[0].descendant_cpu.by_processor == {}

    def test_without_cpu_annotations(self):
        document = json.loads(dscg_to_json(self.make(), include_cpu=False))
        roots = [r for chain in document["chains"] for r in chain["roots"]]
        root = [r for r in roots if r["operation"] == "root"][0]
        assert "self_cpu_ns" not in root

    def test_bad_document_rejected(self):
        with pytest.raises(ValueError):
            dscg_from_json('{"format": "something-else"}')

    @pytest.mark.parametrize("include_cpu", [True, False])
    def test_emitter_strands_nothing_for_the_collector(self, include_cpu):
        """The emitter's working set (its CPU vectors, every fragment of
        the document) dies with the call: a recursive closure used to hold
        it in a cycle until the next full collection."""
        dscg = dscg_for([Call("I::root", cpu_ns=9, children=(Call("I::a"),))] * 100)
        gc.collect()
        gc.disable()
        try:
            dscg_to_json(dscg, include_cpu=include_cpu)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_stats_recorded(self):
        document = json.loads(dscg_to_json(self.make()))
        assert document["stats"]["nodes"] == 4  # root, a, cast stub, cast skel


class TestEmittedText:
    """The emitter writes text itself; these pin the cases a hand-written
    encoder gets wrong. The oracle is ``json.dumps(document, indent=2)``
    over the document ``tests/property/test_serialize_oracle.py`` builds."""

    def assert_oracle(self, dscg):
        from tests.property.test_serialize_oracle import reference_document

        text = dscg_to_json(dscg)
        assert text == json.dumps(reference_document(dscg), indent=2)
        return json.loads(text)

    def test_empty_dscg(self):
        from repro.analysis.dscg import Dscg

        document = self.assert_oracle(Dscg())
        assert document["chains"] == []
        assert dscg_from_json(dscg_to_json(Dscg())).chains == {}

    def test_identifiers_are_escaped(self):
        nasty = 'a"b\\c\n\x00\x7f é \U0001f600 \ud800'
        dscg = dscg_for([Call(f"I{nasty}::op{nasty}", object_id=nasty, component=nasty)])
        document = self.assert_oracle(dscg)
        (root,) = document["chains"][0]["roots"]
        assert root["object_id"] == nasty and root["operation"] == f"op{nasty}"
        assert dscg_to_json(dscg).isascii()

    def test_abnormal_events_are_listed(self):
        sim = simulate([Call("I::a", children=(Call("I::b"),)), Call("I::c")],
                       mode=MonitorMode.FULL)
        dscg = reconstruct_from_records(sim.records[1:4] + sim.records[6:])
        assert dscg.abnormal_events()
        (tree,) = dscg.chains.values()
        tree.abnormal[0].reason = 'quote " backslash \\ newline \n'
        document = self.assert_oracle(dscg)
        listed = document["chains"][0]["abnormal"]
        assert [a["event_seq"] for a in listed] == [a.event_seq for a in tree.abnormal]
        assert listed[0]["reason"] == tree.abnormal[0].reason

    def test_truthy_non_bool_collocated_prints_as_itself(self):
        dscg = dscg_for([Call("I::a", collocated=True), Call("I::b")])
        first, second = next(iter(dscg.chains.values())).roots
        first.collocated, second.collocated = 1, None
        document = self.assert_oracle(dscg)
        roots = document["chains"][0]["roots"]
        assert [r["collocated"] for r in roots] == [1, None]
        assert '"collocated": 1,' in dscg_to_json(dscg)
