"""Unit tests for end-to-end latency computation (Section 3.2)."""

from repro.analysis import (
    annotate_latency,
    causality_overhead,
    end_to_end_latency,
    latency_report,
    reconstruct_from_records,
)
from repro.core import MonitorMode
from tests.helpers import Call, simulate


def dscg_for(calls, **kwargs):
    sim = simulate(calls, mode=MonitorMode.LATENCY, **kwargs)
    return reconstruct_from_records(sim.records)


def only_node(dscg, function):
    (node,) = [n for n in dscg.walk() if n.function == function]
    return node


class TestSyncLatency:
    def test_leaf_latency_equals_work(self):
        dscg = dscg_for([Call("I::F", cpu_ns=500)])
        assert end_to_end_latency(only_node(dscg, "I::F")) == 500

    def test_latency_includes_idle_wall_time(self):
        dscg = dscg_for([Call("I::F", cpu_ns=100, idle_ns=400)])
        assert end_to_end_latency(only_node(dscg, "I::F")) == 500

    def test_parent_latency_compensates_child_probe_overhead(self):
        # On the virtual clock probes are zero-duration, so O_F == 0 and
        # the parent's latency is exactly its own plus its child's work.
        dscg = dscg_for([Call("I::F", cpu_ns=100, children=(Call("I::G", cpu_ns=50),))])
        f = only_node(dscg, "I::F")
        assert causality_overhead(f) == 0
        assert end_to_end_latency(f) == 150

    def test_overhead_term_subtracts_child_probe_costs(self):
        sim = simulate(
            [Call("I::F", cpu_ns=100, children=(Call("I::G", cpu_ns=50),))],
            mode=MonitorMode.LATENCY,
        )
        # Inflate each of G's probe intervals artificially by 10ns (in the
        # source records: a node keeps readings, not the records).
        for record in sim.records:
            if record.function == "I::G":
                record.wall_end += 10
        f = only_node(reconstruct_from_records(sim.records), "I::F")
        assert causality_overhead(f) == 40
        assert end_to_end_latency(f) == 150 - 40

    def test_missing_wall_readings_yield_none(self):
        sim = simulate([Call("I::F")], mode=MonitorMode.CAUSALITY)
        dscg = reconstruct_from_records(sim.records)
        assert end_to_end_latency(only_node(dscg, "I::F")) is None


class TestCollocatedLatency:
    def test_collocated_uses_skeleton_window(self):
        dscg = dscg_for([Call("I::F", cpu_ns=300, collocated=True)])
        assert end_to_end_latency(only_node(dscg, "I::F")) == 300


class TestOnewayLatency:
    def test_stub_side_measures_send_window(self):
        dscg = dscg_for([Call("I::cast", oneway=True, cpu_ns=900)])
        # Simulator fires stub_end immediately after stub_start: the
        # stub-side latency is the send cost, not the execution.
        stub_nodes = [n for n in dscg.walk() if n.oneway_side == "stub"]
        assert end_to_end_latency(stub_nodes[0]) == 0

    def test_skel_side_measures_execution(self):
        dscg = dscg_for([Call("I::cast", oneway=True, cpu_ns=900)])
        skel_nodes = [n for n in dscg.walk() if n.oneway_side == "skel"]
        assert end_to_end_latency(skel_nodes[0]) == 900


class TestReports:
    def test_annotate_sets_attribute(self):
        dscg = dscg_for([Call("I::F", cpu_ns=10)])
        annotate_latency(dscg)
        assert only_node(dscg, "I::F").latency_ns == 10

    def test_report_aggregates_per_function(self):
        dscg = dscg_for(
            [Call("I::F", cpu_ns=100), Call("I::F", cpu_ns=300), Call("I::G", cpu_ns=50)]
        )
        report = latency_report(dscg)
        f = report["I::F"]
        assert f.count == 2
        assert f.total_ns == 400
        assert f.mean_ns == 200
        assert f.min_ns == 100
        assert f.max_ns == 300
        assert report["I::G"].count == 1

    def test_report_skips_unmeasurable(self):
        sim = simulate([Call("I::F")], mode=MonitorMode.CAUSALITY)
        dscg = reconstruct_from_records(sim.records)
        assert latency_report(dscg) == {}
